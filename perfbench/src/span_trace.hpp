/**
 * @file
 * In-memory spans for the traced run.
 *
 * Each worker thread owns one SpanLog and records spans around the
 * calls it makes into a layer (name, start, end, parent, op id).  The
 * log folds every span into per-name totals and self times as it goes
 * and keeps the first few thousand spans verbatim, which are written
 * out as chrome-trace JSON when the benchmark ends.
 */

#ifndef PERFBENCH_SPAN_TRACE_HPP
#define PERFBENCH_SPAN_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench
{

/** One recorded span; ids are unique within a thread's log. */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = top level
    std::uint64_t op = 0;
};

/** Per-name totals: a span's self time is its duration minus the part
 *  its child spans cover. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/** Single-writer span recorder; one per thread. */
class SpanLog
{
  public:
    SpanLog(std::uint32_t tid, std::size_t keep);

    /** Spans are recorded only while enabled (the traced rounds). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span at @p ts_ns, nested under the innermost open one. */
    void open(const char *name, std::uint64_t op, std::uint64_t ts_ns);
    /** Close the innermost open span at @p ts_ns. */
    void close(std::uint64_t ts_ns);

    /** A span with no children, from timestamps already taken. */
    void
    leaf(const char *name, std::uint64_t op, std::uint64_t start_ns,
         std::uint64_t end_ns)
    {
        open(name, op, start_ns);
        close(end_ns);
    }

    std::uint32_t tid() const { return tid_; }
    const std::vector<Span> &kept() const { return kept_; }
    std::uint64_t dropped() const { return dropped_; }
    /** Totals per span name. */
    std::map<std::string, SpanTotals> totals() const;

  private:
    struct Frame
    {
        const char *name;
        std::uint64_t op;
        std::uint64_t startNs;
        std::uint64_t childNs;
        std::uint32_t id;
        std::uint32_t parent;
    };
    static constexpr int kMaxDepth = 4;

    std::uint32_t tid_;
    std::size_t keep_;
    bool enabled_ = false;
    std::uint32_t nextId_ = 1;
    int depth_ = 0;
    Frame stack_[kMaxDepth] = {};
    std::vector<Span> kept_;
    std::uint64_t dropped_ = 0;
    /** Names are string literals, so the pointer identifies the name;
     *  a handful of names per log makes a linear scan the cheapest. */
    std::vector<std::pair<const char *, SpanTotals>> totals_;
};

/** The layer a span belongs to: its name up to the last '.'. */
std::string layerOf(const std::string &span_name);

/** Per-layer self time summed over @p logs, in nanoseconds. */
std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<const SpanLog *> &logs);

/**
 * Text table of per-span and per-layer self times over @p logs,
 * with each layer's self time per op (@p ops traced ops).
 */
std::vector<std::string>
selfTimeTable(const std::vector<const SpanLog *> &logs, std::uint64_t ops);

/**
 * Chrome-trace JSON ({"traceEvents":[...]}, the shape obs/chrome_trace
 * emits) of every kept span as a complete ("X") event, timestamps in
 * microseconds from the earliest span, with op id and parent in args.
 * @p other_data is a JSON object placed under "otherData".
 */
std::string chromeTraceJson(const std::vector<const SpanLog *> &logs,
                            const std::string &other_data);

/**
 * Add the per-layer metrics every workload shares: each layer's self
 * time per traced op, bench.host_probe_us (median of @p probe_us) and
 * bench.trace_overhead_frac (time per op of traced over untraced
 * rounds, minus one).  Appends the self-time table to the notes and
 * writes the chrome trace to args.traceOut.
 */
void reportTraced(Result &res, const std::vector<const SpanLog *> &logs,
                  const std::vector<Round> &rounds,
                  const std::vector<double> &probe_us, const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HPP
