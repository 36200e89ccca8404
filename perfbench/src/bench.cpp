#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    // JSON has no NaN or infinity; a non-finite value is a bug upstream
    // and is printed as null so the consumer rejects it loudly.
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ",";
        out += items[i];
    }
    return out + "]";
}

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ",";
    body_ += jsonString(k) + ":";
}

JsonObject &
JsonObject::add(const std::string &k, double v)
{
    key(k);
    body_ += jsonNumber(v);
    return *this;
}

JsonObject &
JsonObject::add(const std::string &k, std::uint64_t v)
{
    key(k);
    body_ += std::to_string(v);
    return *this;
}

JsonObject &
JsonObject::add(const std::string &k, bool v)
{
    key(k);
    body_ += v ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::add(const std::string &k, const std::string &v)
{
    key(k);
    body_ += jsonString(v);
    return *this;
}

JsonObject &
JsonObject::addRaw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        failures_.push_back(what);
    }
}

void
Metrics::set(const std::string &name, double value, const std::string &unit,
             const std::string &note)
{
    items_.push_back({name, value, unit, note});
}

} // namespace perfbench
