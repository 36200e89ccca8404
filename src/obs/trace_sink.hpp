/**
 * @file
 * TraceSink: Chrome trace-event recording for the simulators.
 *
 * Emits the JSON object format of the Trace Event specification, which
 * chrome://tracing and Perfetto both load directly: complete spans
 * (ph "X") for CPIM operations, gang dispatches, and guard scrubs;
 * instant events (ph "i"); and metadata events (ph "M") naming the
 * process/thread rows.  Timestamps are modeled cycles used as the
 * spec's microsecond field — a trace viewer's "1 µs" is one simulated
 * memory cycle.
 *
 * The sink is disabled by default and every recording call starts
 * with an inline `enabled` check, so a null/disabled sink costs one
 * predictable branch per call site — the property the <2% bench
 * overhead acceptance bound relies on.  Sinks buffer events in memory
 * and are concatenated with append() in channel order, keeping
 * threaded runs bit-identical to single-threaded ones.
 */

#ifndef CORUSCANT_OBS_TRACE_SINK_HPP
#define CORUSCANT_OBS_TRACE_SINK_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace coruscant::obs {

/** One buffered trace event (internal representation). */
struct TraceEvent
{
    char phase = 'X';     ///< 'X' span, 'i' instant, 'M' meta
    std::string name;
    std::string cat;
    std::uint64_t ts = 0;  ///< modeled cycles
    std::uint64_t dur = 0; ///< span length (phase 'X' only)
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    const char *argKey = nullptr; ///< optional numeric argument
    double argValue = 0.0;
};

/** Buffering Chrome-trace event sink with a disabled fast path. */
class TraceSink
{
  public:
    /** Construct disabled; recording calls are no-ops until enable(). */
    TraceSink() = default;

    void enable() { enabled_ = true; }
    bool on() const { return enabled_; }

    /** Complete span: [@p ts, @p ts + @p dur) on row (@p pid, @p tid). */
    void
    span(const char *name, const char *cat, std::uint64_t ts,
         std::uint64_t dur, std::uint32_t pid, std::uint32_t tid,
         const char *arg_key = nullptr, double arg_value = 0.0)
    {
        if (!enabled_)
            return;
        push({'X', name, cat, ts, dur, pid, tid, arg_key, arg_value});
    }

    /** Instantaneous event (a vertical tick in the viewer). */
    void
    instant(const char *name, const char *cat, std::uint64_t ts,
            std::uint32_t pid, std::uint32_t tid)
    {
        if (!enabled_)
            return;
        push({'i', name, cat, ts, 0, pid, tid, nullptr, 0.0});
    }

    /** Name the process row @p pid (metadata event). */
    void
    processName(std::uint32_t pid, const std::string &name)
    {
        if (!enabled_)
            return;
        push({'M', name, "__metadata", 0, 0, pid, 0, nullptr, 0.0});
    }

    /**
     * Concatenate @p o's buffered events after this sink's.  Used to
     * merge per-channel sinks in channel order; enables this sink if
     * @p o is enabled so merged traces survive the disabled fast path.
     */
    void append(const TraceSink &o);

    std::size_t events() const { return events_.size(); }
    const std::vector<TraceEvent> &buffered() const { return events_; }

    /** Write the Trace Event JSON object format to @p os. */
    void writeJson(std::ostream &os) const;

    /** writeJson into a string (tests and small traces). */
    std::string toJson() const;

  private:
    void push(TraceEvent e) { events_.push_back(std::move(e)); }

    bool enabled_ = false;
    std::vector<TraceEvent> events_;
};

} // namespace coruscant::obs

#endif // CORUSCANT_OBS_TRACE_SINK_HPP
