/**
 * @file
 * Benchmark program: runs one workload for a fixed number of seconds,
 * checks its outputs and prints every metric by name with its unit.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>] [--commit <id>] [--source-digest <h>]
 *
 * With --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 it carries the per-layer metrics of a run whose rounds
 * alternate between traced and untraced.  The last line of standard
 * output is one JSON object {"correct","attempted","failed","metrics"}.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "support/options.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sim-contended", "sim-sparse", "rt-barrier", "rt-lock"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"core.episode_us_p50", "us"},
            {"core.episode_us_p99", "us"},
            {"core.ns_per_event", "ns"},
            {"core.ns_per_request", "ns"},
            {"core.events_per_episode", "count"},
            {"core.skipped_cycle_frac", "frac"},
            {"core.merge_us_p50", "us"},
            {"sim.requests_per_event", "ratio"},
            {"sim.grant_ratio", "ratio"},
            {"sim.flag_share", "frac"},
            {"core.accesses_per_proc", "count"},
            {"core.wait_cycles_mean", "cycles"},
        };
        for (const char *p : {"exp", "adaptive"}) {
            const std::string b = std::string("runtime.barrier.") + p;
            m.push_back({b + ".wait_us_p50", "us"});
            m.push_back({b + ".wait_us_p99", "us"});
            m.push_back({b + ".release_lag_us_p50", "us"});
            m.push_back({b + ".release_lag_us_p99", "us"});
            m.push_back({b + ".polls_per_phase", "count"});
            m.push_back({b + ".backoff_waited_per_phase", "count"});
            m.push_back({b + ".parks_per_phase", "count"});
        }
        for (const char *f : {"ttas", "mcs"}) {
            const std::string l = std::string("runtime.lock.") + f;
            m.push_back({l + ".acquire_us_p50", "us"});
            m.push_back({l + ".acquire_us_p99", "us"});
            m.push_back({l + ".handoff_gap_us_p50", "us"});
            m.push_back({l + ".handoff_gap_us_p99", "us"});
            m.push_back({l + ".rmws_per_acquire", "ratio"});
            m.push_back({l + ".polls_per_acquire", "ratio"});
        }
        m.push_back({"runtime.lock.mcs.handoffs_per_acquire", "ratio"});
        for (const char *layer :
             {"core", "runtime.barrier", "runtime.lock", "bench"})
            m.push_back({std::string(layer) + ".self_us_per_op", "us"});
        m.push_back({"e2e.op_us_p50", "us"});
        m.push_back({"e2e.op_us_p90", "us"});
        m.push_back({"e2e.op_us_p99", "us"});
        m.push_back({"bench.host_probe_us", "us"});
        m.push_back({"bench.trace_overhead_frac", "frac"});
        return m;
    }();
    return list;
}

/** Put the metrics in report order; in a traced run, add the per-layer
 *  metrics of layers this workload does not drive as 0 (nothing of that
 *  layer ran), so every workload reports every per-layer metric. */
void
completeMetrics(Result &res, bool trace)
{
    if (!trace)
        return;
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : perLayerMetrics()) {
        const auto it =
            std::find_if(res.metrics.begin(), res.metrics.end(),
                         [&](const Metric &m) { return m.name == name; });
        ordered.push_back(it == res.metrics.end() ? Metric{name, 0.0, unit}
                                                  : *it);
    }
    for (const Metric &m : res.metrics) {
        const bool known = std::any_of(
            ordered.begin(), ordered.end(),
            [&](const Metric &o) { return o.name == m.name; });
        if (!known) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         m.name.c_str());
            std::abort();
        }
    }
    res.metrics = std::move(ordered);
}

std::string
resultJson(const Result &res)
{
    std::string out = "{\"correct\": ";
    out += res.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(res.attempted);
    out += ", \"failed\": " + std::to_string(res.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : res.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + jsonEscape(m.name) + "\": {\"value\": " +
               fmtNum(m.value) + ", \"unit\": \"" + jsonEscape(m.unit) +
               "\"}";
    }
    out += "}}";
    return out;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    absync::support::Options opts(
        argc, argv,
        {"workload", "seed", "seconds", "trace", "trace-out", "commit",
         "source-digest"});

    RunArgs args;
    args.workload = opts.get("workload");
    args.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    args.seconds = opts.getDouble("seconds", 10.0);
    args.trace = opts.getInt("trace", 0) != 0;
    args.traceOut = opts.get("trace-out");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  args.workload) == workloadNames().end()) {
        std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    if (!(args.seconds > 0.0) || args.seconds > 3600.0) {
        std::fprintf(stderr, "perfbench: --seconds must be in (0, 3600]\n");
        return 2;
    }

    Result res;
    if (args.workload.rfind("sim-", 0) == 0)
        res = runSimWorkload(args);
    else if (args.workload == "rt-barrier")
        res = runBarrierWorkload(args);
    else
        res = runLockWorkload(args);
    completeMetrics(res, args.trace);

    std::printf("provenance: %s\n",
                provenanceJson(opts.get("commit", "unknown"),
                               opts.get("source-digest", "unknown"))
                    .c_str());
    for (const std::string &line : res.notes)
        std::printf("%s\n", line.c_str());
    std::printf("fail_frac: %llu / %llu\n",
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
    std::printf("%s\n", resultJson(res).c_str());
    return 0;
}
