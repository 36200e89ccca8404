/**
 * @file
 * Declarative `--key value` command-line options.
 *
 * A command declares each option once, as an Option bound to the field
 * it sets; that table is the accepted-flag set, the parser, the range
 * checks and the help text.  Anything outside it is a diagnostic, never
 * a silent default: an unknown option, a missing value, a bare token,
 * or a value the field cannot hold.  Numbers are consumed whole and
 * range-checked against their field's own type (a uint32_t field
 * rejects 2^32); an option may add [lo, hi] or a predicate.  An
 * enumeration is spelled by the enumTokens() overload declared beside
 * its *Name() function (found by argument-dependent lookup), a bool by
 * off|on.  An absent flag leaves its field as initialised, and help
 * prints that value as the default; a std::optional field records
 * whether its flag appeared.  Repeated options keep the last one.
 */

#ifndef CORUSCANT_UTIL_CLI_ARGS_HPP
#define CORUSCANT_UTIL_CLI_ARGS_HPP

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace coruscant {

/** One `--name VALUE` option bound to the field it sets. */
struct Option
{
    std::string name;  ///< flag without the leading "--"
    std::string value; ///< help column: the default, or a placeholder
    std::string help;

    /**
     * Store @p text in the bound field.  Returns why the text was
     * rejected ("expected ..."), or an empty string on success.
     */
    std::function<std::string(const std::string &text)> set;
};

using Options = std::vector<Option>;

/** Concatenate option tables (e.g. a command's own plus a shared one). */
Options operator+(Options a, const Options &b);

/** A bool option is spelled off|on. */
inline constexpr const char *kOffOn[] = {"off", "on"};

constexpr std::span<const char *const>
enumTokens(bool)
{
    return kOffOn;
}

namespace detail {

template <typename T>
inline constexpr bool kOptional = false;
template <typename T>
inline constexpr bool kOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kEnumerated = std::is_enum_v<T> || std::same_as<T, bool>;

/** What a range check sees: the field, or the value an optional holds. */
template <typename T>
using Value = typename decltype(std::optional(std::declval<T>()))::value_type;

std::string joinTokens(std::span<const char *const> tokens);

/** Store @p text in @p out; returns why it was rejected, or "". */
template <typename T>
std::string
parse(const std::string &text, T &out)
{
    if constexpr (kOptional<T>) {
        typename T::value_type v{};
        if (std::string why = parse(text, v); !why.empty())
            return why;
        out = v;
    } else if constexpr (kEnumerated<T>) {
        auto tokens = enumTokens(T{});
        auto it = std::find(tokens.begin(), tokens.end(), text);
        if (it == tokens.end())
            return "expected one of " + joinTokens(tokens);
        out = static_cast<T>(it - tokens.begin());
    } else if constexpr (std::is_arithmetic_v<T>) {
        T v{};
        const char *last = text.data() + text.size();
        auto [end, ec] = std::from_chars(text.data(), last, v);
        if (text.empty() || ec != std::errc() || end != last || v != v)
            return std::floating_point<T>
                       ? "expected number"
                       : "expected unsigned integer <= " +
                             std::to_string(std::numeric_limits<T>::max());
        out = v;
    } else {
        out = text;
    }
    return {};
}

/** Help column: the value, or the kind of value an optional takes. */
template <typename T>
std::string
show(const T &v)
{
    if constexpr (kOptional<T>) {
        using V = typename T::value_type;
        if constexpr (kEnumerated<V>)
            return joinTokens(enumTokens(V{}));
        return std::floating_point<V> ? "X"
               : std::unsigned_integral<V> ? "N"
                                            : "FILE";
    } else if constexpr (kEnumerated<T>) {
        return enumTokens(v)[static_cast<std::size_t>(v)];
    } else {
        char buf[32];
        return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
    }
}

} // namespace detail

/**
 * Option `--name` bound to @p field: an unsigned integer, double,
 * bool, enumeration, or a std::optional of one (or of a string).
 */
template <typename T>
Option
opt(const char *name, T &field, std::string help)
{
    if constexpr (detail::kEnumerated<T>)
        help += " (" + detail::joinTokens(enumTokens(T{})) + ")";
    return {name, detail::show(field), std::move(help),
            [&field](const std::string &text) {
                return detail::parse(text, field);
            }};
}

/**
 * Option accepting only values for which @p ok holds (for a
 * std::optional field, the value it would hold); @p expected names
 * them, in help and in the diagnostic.
 */
template <typename T>
Option
opt(const char *name, T &field, const std::string &help,
    std::function<bool(const detail::Value<T> &)> ok,
    const std::string &expected)
{
    Option o = opt(name, field, help + " (" + expected + ")");
    o.set = [&field, ok, expected](const std::string &text) {
        T v = field;
        std::string why = detail::parse(text, v);
        // *std::optional(v) is the value, plain or optional field alike.
        if (why.empty() && !ok(*std::optional(v)))
            why = "expected " + expected;
        if (why.empty())
            field = v;
        return why;
    };
    return o;
}

/** Number option accepted in [@p lo, @p hi]. */
template <typename T>
Option
opt(const char *name, T &field, const std::string &help,
    detail::Value<T> lo, detail::Value<T> hi)
{
    return opt(
        name, field, help,
        [lo, hi](const detail::Value<T> &v) { return lo <= v && v <= hi; },
        "in [" + detail::show(lo) + ", " + detail::show(hi) + "]");
}

/** Predicate of the count options that must be positive. */
inline constexpr auto atLeastOne = [](const auto &n) { return n >= 1; };

/**
 * Parse @p args (the tokens after the command name) into the fields
 * bound by @p options.  Returns the diagnostic for the first offending
 * argument, or an empty string when every argument matched.  Never
 * exits, which keeps the parser unit-testable in-process.
 */
std::string parseOptions(const std::vector<std::string> &args,
                         const Options &options);

/** One help line per option: `  --name VALUE   help`. */
std::string describeOptions(const Options &options);

/**
 * parseOptions(); on a diagnostic, print it and the option list to
 * stderr and exit 2.
 */
void parseOrExit(const std::vector<std::string> &args,
                 const Options &options);

} // namespace coruscant

#endif // CORUSCANT_UTIL_CLI_ARGS_HPP
