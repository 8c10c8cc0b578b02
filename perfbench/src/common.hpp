/**
 * @file
 * Shared pieces of the benchmark program: the run arguments, the result
 * every workload returns, the round loop, the host clock, the
 * statistics and the host diagnostics (probe kernel, peak RSS,
 * provenance).
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line arguments shared by every workload. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its chrome-trace JSON ("" = nowhere). */
    std::string traceOut;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload reports back to main. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result (sample counts,
     *  self-time table, check verdicts). */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed output check: the run is not correct. */
    void fail(const std::string &why);
};

/** One timed round of a workload: a fixed number of ops under one
 *  policy, traced or not. */
struct Round
{
    int variant = 0; ///< policy / lock family index
    bool traced = false;
    std::uint64_t ops = 0;
    std::uint64_t ns = 0; ///< wall time of the round
    /** Op latency percentiles within the round (p50, p90, p99). */
    double pUs[3] = {0.0, 0.0, 0.0};
    /** Every op latency of the round, kept when a round is too short
     *  for its own tail percentiles (the simulator workloads). */
    std::vector<double> samplesUs;

    /** Fill pUs from the round's op latencies @p lat_us. */
    void setPercentiles(const std::vector<double> &lat_us);
};

/** The op latency percentiles every round records. */
constexpr double kRoundQuantiles[3] = {0.5, 0.9, 0.99};

/** Set-ups per run; their median is setup_s. */
constexpr int kSetups = 9;

/** Host monotonic clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Busy-wait on the clock until @p deadline_ns.  Workload think and hold
 * times are spun on the clock rather than counted in loop iterations,
 * so a slow host mode cannot stretch them.
 */
void spinUntilNs(std::uint64_t deadline_ns);

/** Nearest-rank percentile (q in [0, 1]) of @p v; sorts a copy. */
double percentile(std::vector<double> v, double q);

/** Median of @p v (nearest rank). */
inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/**
 * Fixed-work kernel (a dependent integer chain), timed in microseconds.
 * Run between rounds as a diagnostic of the host's current speed; it
 * is reported, never used to normalise.
 */
double hostProbeUs();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * The round loop every workload shares.  The first set-up has already
 * run; @p round(i) runs round i and returns false to stop early.  The
 * loop runs rounds until args.seconds have passed (and at least
 * @p min_rounds), times hostProbeUs() after every round, and calls
 * @p setup() between rounds at evenly spaced times so that kSetups
 * set-ups in all sample the whole run rather than one moment of it.
 */
template <typename RoundFn, typename SetupFn>
void
runRounds(const RunArgs &args, int min_rounds, RoundFn &&round,
          SetupFn &&setup, std::vector<double> &setup_s,
          std::vector<double> &probe_us)
{
    const std::uint64_t start = nowNs();
    const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
    for (int r = 0; r < min_rounds || nowNs() - start < budget; ++r) {
        if (!round(r))
            break;
        probe_us.push_back(hostProbeUs());
        const auto n = static_cast<std::uint64_t>(setup_s.size());
        if (n < kSetups && nowNs() - start >= budget * n / kSetups)
            setup_s.push_back(setup());
    }
    while (setup_s.size() < kSetups)
        setup_s.push_back(setup());
}

/**
 * The slowest tenth of the rounds of each variant (by throughput),
 * untraced or traced.  The host switches speed modes from one round to
 * the next and, for minutes at a time, between mostly-fast and
 * mostly-slow states.  Statistics of the slow rounds move least between
 * those states (measured: ~20% against ~60% for all-round medians on
 * the simulator workloads), because even a mostly-fast stretch has a
 * slow tenth, while a mostly-slow stretch has no fast tenth.
 */
std::vector<const Round *> slowRounds(const std::vector<Round> &rounds,
                                      bool traced);

/** Ops per second over @p rounds. */
double opsPerSecond(const std::vector<const Round *> &rounds);

/**
 * Op latency percentile @p q_index (into kRoundQuantiles) over the
 * untraced or traced rounds: pooled over every op when the rounds keep
 * their samples, otherwise per variant the median over rounds of each
 * round's own percentile, averaged over variants.  @p how receives a
 * one-line description with the sample count.
 */
double opLatencyUs(const std::vector<Round> &rounds, bool traced,
                   int q_index, std::string *how);

/**
 * Add the end-to-end metrics: setup_s (median of @p setup_s),
 * ops_per_s over the slow rounds, and peak_rss_mb.  Op latency
 * percentiles moved 10-60% between batches of runs on the host's
 * speed states (the pause-based backoff overshoot of the runtime
 * workloads too), so they are per-layer metrics without a bound.
 */
void reportEndToEnd(Result &res, const std::vector<double> &setup_s,
                    const std::vector<Round> &rounds);

/** One JSON object describing the host and build. */
std::string provenanceJson(const std::string &commit,
                           const std::string &source_digest);

/** Escape @p s for a JSON string literal (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** Format a double with every significant digit. */
std::string fmtNum(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
