#include "util/cli_args.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace coruscant {

namespace detail {

std::string
joinTokens(std::span<const char *const> tokens)
{
    std::string out;
    for (const char *t : tokens) {
        if (!out.empty())
            out += '|';
        out += t;
    }
    return out;
}

} // namespace detail

Options
operator+(Options a, const Options &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

std::string
parseOptions(const std::vector<std::string> &args, const Options &options)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &tok = args[i];
        if (tok.rfind("--", 0) != 0)
            return "unexpected argument '" + tok + "'";
        auto it = std::find_if(options.begin(), options.end(),
                               [&](const Option &o) {
                                   return tok.substr(2) == o.name;
                               });
        if (it == options.end())
            return "unknown option '" + tok + "'";
        if (i + 1 >= args.size())
            return "option '" + tok + "' requires a value";
        const std::string &value = args[++i];
        std::string why = it->set(value);
        if (!why.empty())
            return "invalid value '" + value + "' for option '" + tok +
                   "' (" + why + ")";
    }
    return {};
}

std::string
describeOptions(const Options &options)
{
    std::string out;
    for (const Option &o : options) {
        std::string flag = "  --" + o.name + " " + o.value;
        flag.resize(std::max<std::size_t>(flag.size() + 2, 32), ' ');
        out += flag + o.help + "\n";
    }
    return out;
}

void
parseOrExit(const std::vector<std::string> &args, const Options &options)
{
    std::string error = parseOptions(args, options);
    if (error.empty())
        return;
    std::fprintf(stderr, "error: %s\noptions:\n%s", error.c_str(),
                 describeOptions(options).c_str());
    std::exit(2);
}

} // namespace coruscant
