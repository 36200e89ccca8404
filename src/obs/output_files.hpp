/**
 * @file
 * The observability outputs a driver offers, declared and written once:
 * `--metrics-json FILE` (MetricsRegistry JSON) and `--trace FILE`
 * (Chrome trace events; load in Perfetto).
 */

#ifndef CORUSCANT_OBS_OUTPUT_FILES_HPP
#define CORUSCANT_OBS_OUTPUT_FILES_HPP

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/cli_args.hpp"

namespace coruscant::obs {

struct OutputFiles
{
    std::optional<std::string> metricsJson;
    std::optional<std::string> trace;

    Options
    options()
    {
        return {opt("metrics-json", metricsJson,
                    "write per-component counters as JSON"),
                opt("trace", trace,
                    "write Chrome trace events (load in Perfetto)")};
    }

    /** Write to the paths given; false (reported) if one fails. */
    bool
    write(const MetricsRegistry &reg, const TraceSink &sink) const
    {
        return writeFile(metricsJson,
                         [&](std::ostream &os) { os << reg.toJson(); }) &&
               writeFile(trace, [&](std::ostream &os) { sink.writeJson(os); });
    }

    template <typename Emit>
    static bool
    writeFile(const std::optional<std::string> &path, Emit emit)
    {
        if (!path)
            return true;
        std::ofstream os(*path);
        if (os)
            emit(os);
        if (!os)
            std::fprintf(stderr, "error: cannot write '%s'\n", path->c_str());
        return static_cast<bool>(os);
    }
};

} // namespace coruscant::obs

#endif // CORUSCANT_OBS_OUTPUT_FILES_HPP
