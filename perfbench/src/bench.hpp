/**
 * @file
 * Shared plumbing of the benchmark program: wall clock, output checks,
 * metric collection and a minimal JSON writer.
 *
 * The benchmark talks to the simulator only through its public API and
 * reads results from the returned structs; everything printed here is
 * assembled from those structs, never from report text.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Input size of a run: the standing sizes, or tiny self-test sizes. */
enum class Scale
{
    Full,
    Tiny,
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** FNV-1a 64-bit hash of @p text, as 16 hex digits. */
std::string fnv1aHex(const std::string &text);

/** JSON string literal of @p s (quoted and escaped). */
std::string jsonString(const std::string &s);

/** JSON number of @p v with round-trip precision. */
std::string jsonNumber(double v);

/** JSON array of already-serialized @p items. */
std::string jsonArray(const std::vector<std::string> &items);

/** Insertion-ordered JSON object under construction. */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, double v);
    JsonObject &add(const std::string &key, std::uint64_t v);
    JsonObject &add(const std::string &key, std::uint32_t v)
    {
        return add(key, static_cast<std::uint64_t>(v));
    }
    JsonObject &add(const std::string &key, bool v);
    JsonObject &add(const std::string &key, const std::string &v);
    JsonObject &add(const std::string &key, const char *v)
    {
        return add(key, std::string(v));
    }
    /** Add an already-serialized JSON value. */
    JsonObject &addRaw(const std::string &key, const std::string &json);

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** Output checks: each made check counts as attempted. */
class Checks
{
  public:
    /** Record one check; @p what names it in the failure list. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Named metric values in insertion order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< provenance of a per-layer value ("" = none)
};

class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit,
             const std::string &note = "");

    const std::vector<Metric> &all() const { return items_; }

  private:
    std::vector<Metric> items_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
