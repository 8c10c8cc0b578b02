/**
 * @file
 * Simulator workloads: the flat BarrierSimulator driven exactly as the
 * serial runMany drives it (Rng::split -> runOnce -> EpisodeSummary::
 * merge), timed from outside around those calls.
 *
 *  - sim-contended: N=256, A=0, no backoff, FIFO.  Every processed
 *    cycle re-steps every outstanding requester and no cycle is
 *    skipped — the regime contention-cycle compression targets.
 *  - sim-sparse: N=1024, A=100000, exponential flag backoff base 8.
 *    About one request per processed cycle and almost every cycle
 *    skipped: the time-skip heap dominates, so compression should
 *    leave it unchanged.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "common.hpp"
#include "core/barrier_sim.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

using absync::core::BackoffConfig;
using absync::core::BarrierConfig;
using absync::core::BarrierSimulator;
using absync::core::EpisodeResult;
using absync::core::EpisodeSummary;
using absync::support::Rng;
using absync::support::RunningStats;

struct SimRegime
{
    std::uint32_t processors;
    std::uint64_t window;
    BackoffConfig backoff;
    /** Warm-up episodes in each set-up (fills the thread-local
     *  workspace and the caches; ~20-40 ms of work). */
    std::uint32_t warmEpisodes;
    /** Episodes per timed round (~50 ms). */
    std::uint32_t roundEpisodes;
    /** Episodes whose fold is checked against runMany and whose exact
     *  counts are reported; fixed, so the counts repeat per seed. */
    std::uint32_t checkEpisodes;
    /** Episodes re-run through runOnceReference. */
    std::uint32_t referenceSamples;
};

/** Spans kept verbatim for the chrome trace. */
constexpr std::size_t kKeptSpans = 6000;

SimRegime
regimeFor(const std::string &workload)
{
    if (workload == "sim-contended")
        return {256, 0, BackoffConfig::none(), 8, 16, 32, 2};
    return {1024, 100000, BackoffConfig::exponentialFlag(8), 24, 48, 64, 1};
}

bool
sameStats(const RunningStats &a, const RunningStats &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.minimum() == b.minimum() &&
           a.maximum() == b.maximum();
}

bool
sameSummary(const EpisodeSummary &a, const EpisodeSummary &b)
{
    return a.runs == b.runs && sameStats(a.accesses, b.accesses) &&
           sameStats(a.wait, b.wait) && sameStats(a.span, b.span) &&
           sameStats(a.setTime, b.setTime) &&
           sameStats(a.flagTraffic, b.flagTraffic) &&
           a.blockedProcs == b.blockedProcs &&
           a.timedOutProcs == b.timedOutProcs &&
           a.crashedProcs == b.crashedProcs &&
           a.moduleHeat == b.moduleHeat && a.counters == b.counters &&
           a.waitProfile.count() == b.waitProfile.count() &&
           a.waitProfile.summary() == b.waitProfile.summary() &&
           a.cyclesSkipped == b.cyclesSkipped &&
           a.eventsProcessed == b.eventsProcessed;
}

/** Every field the engine-equivalence contract covers (engine
 *  diagnostics cyclesSkipped / eventsProcessed excluded). */
bool
sameEpisode(const EpisodeResult &a, const EpisodeResult &b)
{
    if (a.procs.size() != b.procs.size())
        return false;
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        const auto &x = a.procs[i];
        const auto &y = b.procs[i];
        if (x.accesses != y.accesses || x.waitCycles != y.waitCycles ||
            x.unsetPolls != y.unsetPolls || x.blocked != y.blocked ||
            x.timedOut != y.timedOut || x.crashed != y.crashed)
            return false;
    }
    return a.flagSetTime == b.flagSetTime &&
           a.lastExitTime == b.lastExitTime &&
           a.firstArrival == b.firstArrival &&
           a.lastArrival == b.lastArrival &&
           a.varModuleTraffic == b.varModuleTraffic &&
           a.flagModuleTraffic == b.flagModuleTraffic &&
           a.counters == b.counters && a.moduleHeat == b.moduleHeat;
}

/** A timed episode kept for the reference-stepper check. */
struct RefSample
{
    std::uint64_t episode = 0;
    Rng before;
    Rng after;
    EpisodeResult result;
};

} // namespace

Result
runSimWorkload(const RunArgs &args)
{
    const SimRegime rg = regimeFor(args.workload);
    BarrierConfig cfg;
    cfg.processors = rg.processors;
    cfg.arrivalWindow = rg.window;
    cfg.backoff = rg.backoff;

    Result res;
    std::vector<double> setups, probeUs;
    std::vector<Round> rounds;
    std::vector<double> episodeUs, mergeUs;
    // Engine work in the traced episodes, for the per-event costs.
    double tracedEvents = 0, tracedRequests = 0;
    EpisodeSummary summary, prefix;
    std::vector<RefSample> refs;
    SpanLog log(0, kKeptSpans);
    std::uint64_t episodes = 0;

    // Which timed episodes to re-run through the reference stepper.
    Rng pick(args.seed ^ 0x7e57ULL);
    std::vector<std::uint64_t> refIdx;
    for (std::uint32_t i = 0; i < rg.referenceSamples; ++i)
        refIdx.push_back(pick.uniformInt(0, rg.checkEpisodes - 1));

    // Set-up: construct the simulator and fill the calling thread's
    // workspace with warm-up episodes.
    int setupNo = 0;
    const auto construct = [&] {
        auto sim = std::make_unique<BarrierSimulator>(cfg);
        Rng warm(args.seed ^ (0x5e7u + setupNo++));
        EpisodeSummary scratch;
        for (std::uint32_t w = 0; w < rg.warmEpisodes; ++w) {
            Rng rr = warm.split();
            scratch.merge(sim->runOnce(rr, w));
        }
        return sim;
    };
    // Later set-ups each run on a fresh thread, so each fills a cold
    // thread-local workspace as the first one did.
    const auto extraSetup = [&] {
        const std::uint64_t t0 = nowNs();
        std::thread([&] { construct(); }).join();
        return (nowNs() - t0) / 1e9;
    };

    const auto timedRound = [&](const BarrierSimulator &sim, Rng &master,
                                int round) {
        const bool traced = args.trace && round % 2 == 1;
        log.setEnabled(traced);
        Round rd;
        rd.traced = traced;
        rd.ops = rg.roundEpisodes;
        const std::uint64_t r0 = nowNs();
        for (std::uint32_t k = 0; k < rg.roundEpisodes; ++k) {
            const std::uint64_t r = episodes++;
            const std::uint64_t t0 = nowNs();
            log.open("bench.episode", r, t0);
            Rng rr = master.split();
            const Rng before = rr;
            const std::uint64_t t1 = nowNs();
            EpisodeResult ep = sim.runOnce(rr, r);
            const std::uint64_t t2 = nowNs();
            summary.merge(ep);
            const std::uint64_t t3 = nowNs();
            log.leaf("core.runOnce", r, t1, t2);
            log.leaf("core.merge", r, t2, t3);
            log.close(t3);

            rd.samplesUs.push_back((t3 - t0) / 1e3);
            if (traced) {
                episodeUs.push_back((t2 - t1) / 1e3);
                mergeUs.push_back((t3 - t2) / 1e3);
                tracedEvents += static_cast<double>(ep.eventsProcessed);
                for (const auto &m : ep.moduleHeat)
                    tracedRequests += static_cast<double>(m.requests());
            }
            // refIdx may name an episode twice; keep it once.
            if (std::find(refIdx.begin(), refIdx.end(), r) != refIdx.end())
                refs.push_back({r, before, rr, std::move(ep)});
            if (episodes == rg.checkEpisodes)
                prefix = summary;
        }
        rd.ns = nowNs() - r0;
        rd.setPercentiles(rd.samplesUs);
        rounds.push_back(std::move(rd));
        log.setEnabled(false);
        return true;
    };

    // The timed loop runs on the thread whose set-up was timed first.
    const std::uint64_t t0 = nowNs();
    std::thread([&] {
        const auto sim = construct();
        setups.push_back((nowNs() - t0) / 1e9);
        Rng master(args.seed);
        const int minRounds = static_cast<int>(
            (rg.checkEpisodes + rg.roundEpisodes - 1) / rg.roundEpisodes);
        runRounds(
            args, minRounds,
            [&](int round) { return timedRound(*sim, master, round); },
            extraSetup, setups, probeUs);
    }).join();

    // ---- Output checks, outside the timed window ----
    BarrierSimulator sim(cfg);
    const EpisodeSummary serial = sim.runMany(rg.checkEpisodes, args.seed, 1);
    if (!sameSummary(prefix, serial))
        res.fail("fold of the first " + std::to_string(rg.checkEpisodes) +
                 " timed episodes differs from runMany(" +
                 std::to_string(rg.checkEpisodes) + ", seed, 1)");
    for (RefSample &ref : refs) {
        Rng r = ref.before;
        const EpisodeResult want = sim.runOnceReference(r, ref.episode);
        if (!sameEpisode(ref.result, want) || r() != ref.after())
            res.fail("episode " + std::to_string(ref.episode) +
                     " differs from runOnceReference");
    }
    res.notes.push_back("checked: fold of " +
                        std::to_string(rg.checkEpisodes) +
                        " episodes == runMany; " +
                        std::to_string(refs.size()) +
                        " episode(s) == runOnceReference");
    res.attempted = episodes;
    res.failed = res.correct ? 0 : episodes;

    // Exact simulated counts over the checked prefix.
    std::uint64_t grants = 0, requests = 0;
    for (const auto &m : prefix.moduleHeat) {
        grants += m.grants;
        requests += m.requests();
    }
    const double k = static_cast<double>(prefix.runs);
    const double events = static_cast<double>(prefix.eventsProcessed);
    const double cycles = events + static_cast<double>(prefix.cyclesSkipped);
    const double flagReq = prefix.moduleHeat.size() > 1
                               ? prefix.moduleHeat[1].requests()
                               : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "regime: %.17g requests/event, %.17g skipped-cycle "
                  "fraction, %.17g events/episode",
                  requests / events, prefix.cyclesSkipped / cycles,
                  events / k);
    res.notes.push_back(buf);

    if (!args.trace) {
        reportEndToEnd(res, setups, rounds);
    } else {
        const double runOnceNs =
            1e3 * std::accumulate(episodeUs.begin(), episodeUs.end(), 0.0);
        res.add("core.episode_us_p50", median(episodeUs), "us");
        res.add("core.episode_us_p99", percentile(episodeUs, 0.99), "us");
        res.add("core.ns_per_event", runOnceNs / tracedEvents, "ns");
        res.add("core.ns_per_request", runOnceNs / tracedRequests, "ns");
        res.add("core.events_per_episode", events / k, "count");
        res.add("core.skipped_cycle_frac", prefix.cyclesSkipped / cycles,
                "frac");
        res.add("core.merge_us_p50", median(mergeUs), "us");
        res.add("sim.requests_per_event", requests / events, "ratio");
        res.add("sim.grant_ratio",
                static_cast<double>(grants) / static_cast<double>(requests),
                "ratio");
        res.add("sim.flag_share", flagReq / static_cast<double>(requests),
                "frac");
        res.add("core.accesses_per_proc", prefix.accesses.mean(), "count");
        res.add("core.wait_cycles_mean", prefix.wait.mean(), "cycles");
        reportTraced(res, {&log}, rounds, probeUs, args);
    }
    return res;
}

} // namespace perfbench
