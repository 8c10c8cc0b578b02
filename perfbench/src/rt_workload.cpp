/**
 * @file
 * Native runtime workloads: two worker threads (at most half of a
 * 4-vCPU host; at 4 threads the numbers measure the scheduler) driven
 * through the public SpinBarrier, TtasLock and McsLock calls, timed
 * from outside around those calls.
 *
 *  - rt-barrier: before each phase every thread spins on the clock for
 *    a seeded U[0, A] us, the paper's arrival window on real threads;
 *    rounds alternate the Exponential and Adaptive policies.
 *  - rt-lock: seeded think and hold times spun on the clock; rounds
 *    alternate TtasLock<ExpBackoff> (backoff family) and McsLock
 *    (queue family).
 *
 * A round is a fixed number of ops per thread, so both threads always
 * agree on the phase count; the run keeps starting rounds until its
 * time is up.  Counter deltas are read from obs::CounterRegistry
 * between rounds, while the workers are idle.
 */

#include <atomic>
#include <barrier>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "common.hpp"
#include "obs/counters.hpp"
#include "runtime/barrier.hpp"
#include "runtime/queue_lock.hpp"
#include "runtime/spinlock.hpp"
#include "span_trace.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

using absync::obs::CounterRegistry;
using absync::obs::CounterSnapshot;
using absync::runtime::Deadline;
using absync::runtime::WaitResult;
using absync::support::Rng;

constexpr unsigned kThreads = 2;
/** Generous per-wait deadline: a hang becomes a failed op. */
constexpr std::uint64_t kDeadlineNs = 1'000'000'000;
/** Spans kept verbatim per thread for the chrome trace. */
constexpr std::size_t kKeptSpans = 4000;
/** Seed salt of the throw-away set-ups, so they never draw from the
 *  measured rig's streams. */
constexpr std::uint64_t kSetupSalt = 0x5e7u;

Deadline
deadlineAt(std::uint64_t ns)
{
    return Deadline(std::chrono::nanoseconds(ns));
}

/**
 * Worker threads that run one round body per round on demand.  The
 * coordination barrier is std::barrier, not a primitive under test.
 */
class Team
{
  public:
    explicit Team(std::function<void(unsigned)> body)
        : body_(std::move(body)), sync_(kThreads + 1)
    {
        for (unsigned t = 0; t < kThreads; ++t)
            threads_.emplace_back([this, t] {
                for (;;) {
                    sync_.arrive_and_wait();
                    if (stop_.load(std::memory_order_relaxed))
                        return;
                    body_(t);
                    sync_.arrive_and_wait();
                }
            });
    }

    Team(const Team &) = delete;
    Team &operator=(const Team &) = delete;

    ~Team()
    {
        stop_.store(true, std::memory_order_relaxed);
        sync_.arrive_and_wait();
        for (auto &th : threads_)
            th.join();
    }

    /** Run one round on every worker; returns its wall time in ns. */
    std::uint64_t
    round()
    {
        const std::uint64_t t0 = nowNs();
        sync_.arrive_and_wait();
        sync_.arrive_and_wait();
        return nowNs() - t0;
    }

  private:
    std::function<void(unsigned)> body_;
    std::barrier<> sync_;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** Per-variant per-layer numbers of the traced rounds: each round's
 *  p50 / p99 of the layer call's span and of the gap the layer leaves
 *  (barrier release lag, lock handoff gap), and counter deltas. */
struct VariantStats
{
    std::vector<double> callP50, callP99, gapP50, gapP99;
    CounterSnapshot delta;
    std::uint64_t ops = 0;

    void
    addRound(const std::vector<double> &call_us,
             const std::vector<double> &gap_us, const CounterSnapshot &d,
             std::uint64_t n)
    {
        callP50.push_back(median(call_us));
        callP99.push_back(percentile(call_us, 0.99));
        gapP50.push_back(median(gap_us));
        gapP99.push_back(percentile(gap_us, 0.99));
        delta += d;
        ops += n;
    }
};

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

/** Time @p make() (which constructs and warms up a rig) and throw the
 *  rig away afterwards, outside the timed span. */
template <typename Make>
double
timedThrowawaySetup(Make &&make)
{
    const std::uint64_t t0 = nowNs();
    auto rig = make();
    return (nowNs() - t0) / 1e9;
}

/** Say so when the host has fewer than twice the workers' CPUs: then
 *  the numbers measure the scheduler more than the primitives. */
void
noteThreads(Result &res)
{
    const unsigned cpus = std::thread::hardware_concurrency();
    res.notes.push_back("worker threads: " + std::to_string(kThreads) +
                        " on " + std::to_string(cpus) + " CPUs" +
                        (cpus < 2 * kThreads ? " (more than half of them)"
                                             : ""));
}

std::vector<const SpanLog *>
logPtrs(const std::vector<SpanLog> &logs)
{
    std::vector<const SpanLog *> out;
    for (const SpanLog &l : logs)
        out.push_back(&l);
    return out;
}

// --------------------------------------------------------------------
// rt-barrier
// --------------------------------------------------------------------

using absync::runtime::SpinBarrier;

/** Arrival window A on real threads, in ns. */
constexpr std::uint64_t kWindowNs = 40'000;
constexpr std::uint32_t kPhases = 4000;
constexpr std::uint32_t kWarmPhases = 400;

/** Both barriers, two workers and their per-round records. */
class BarrierRig
{
  public:
    explicit BarrierRig(std::uint64_t seed)
    {
        absync::runtime::BarrierConfig exp, ada;
        exp.policy = absync::runtime::BarrierPolicy::Exponential;
        ada.policy = absync::runtime::BarrierPolicy::Adaptive;
        bars_[0] = std::make_unique<SpinBarrier>(kThreads, exp);
        bars_[1] = std::make_unique<SpinBarrier>(kThreads, ada);
        for (unsigned t = 0; t < kThreads; ++t) {
            arrive[t].resize(kPhases);
            leave[t].resize(kPhases);
            logs.emplace_back(t, kKeptSpans);
            rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + t + 1);
        }
        team_ = std::make_unique<Team>([this](unsigned t) { body(t); });
    }

    /** Run @p phases phases on barrier @p v; returns wall ns. */
    std::uint64_t
    round(int v, std::uint32_t phases, bool traced, std::uint64_t op_base)
    {
        bar_ = bars_[v].get();
        phases_ = phases;
        traced_ = traced;
        opBase_ = op_base;
        return team_->round();
    }

    /** Phases both threads completed in the last round. */
    std::uint32_t completed() const { return std::min(done[0], done[1]); }
    bool aborted() const { return abort_.load(); }

    std::vector<std::uint64_t> arrive[kThreads], leave[kThreads];
    std::uint32_t done[kThreads] = {};
    std::uint64_t timeouts[kThreads] = {};
    std::vector<SpanLog> logs;

  private:
    void
    body(unsigned t)
    {
        SpanLog &log = logs[t];
        Rng &rng = rngs_[t];
        log.setEnabled(traced_);
        std::uint64_t prev = nowNs();
        done[t] = 0;
        for (std::uint32_t p = 0; p < phases_; ++p) {
            if (abort_.load(std::memory_order_relaxed))
                break;
            const std::uint64_t op = opBase_ + p;
            log.open("bench.phase", op, prev);
            spinUntilNs(prev + rng.uniformInt(0, kWindowNs));
            const std::uint64_t ta = nowNs();
            log.leaf("bench.arrival_window", op, prev, ta);
            arrive[t][p] = ta;
            const WaitResult w =
                bar_->arriveAndWaitFor(deadlineAt(ta + kDeadlineNs));
            const std::uint64_t te = nowNs();
            log.leaf("runtime.barrier.arriveAndWaitFor", op, ta, te);
            log.close(te);
            leave[t][p] = te;
            prev = te;
            if (w != WaitResult::Ok) {
                ++timeouts[t];
                abort_.store(true, std::memory_order_relaxed);
                break;
            }
            done[t] = p + 1;
        }
        log.setEnabled(false);
    }

    std::unique_ptr<SpinBarrier> bars_[2];
    std::vector<Rng> rngs_;
    // Round parameters, written by the main thread while workers idle.
    SpinBarrier *bar_ = nullptr;
    std::uint32_t phases_ = 0;
    bool traced_ = false;
    std::uint64_t opBase_ = 0;
    std::atomic<bool> abort_{false};
    std::unique_ptr<Team> team_; ///< last: joined before the rest dies
};

std::unique_ptr<BarrierRig>
makeBarrierRig(std::uint64_t seed)
{
    auto rig = std::make_unique<BarrierRig>(seed);
    rig->round(0, kWarmPhases, false, 0);
    rig->round(1, kWarmPhases, false, 0);
    return rig;
}

} // namespace

Result
runBarrierWorkload(const RunArgs &args)
{
    const char *const kNames[2] = {"exp", "adaptive"};
    Result res;
    std::vector<double> setups, probeUs;
    std::vector<Round> rounds;
    VariantStats vs[2];

    const std::uint64_t t0 = nowNs();
    const auto rig = makeBarrierRig(args.seed);
    setups.push_back((nowNs() - t0) / 1e9);
    if (rig->aborted()) {
        res.fail("a warm-up phase reached its deadline");
        return res;
    }

    std::uint64_t attempted = 0, failedOps = 0;
    const auto timedRound = [&](int round) {
        const int v = round % 2;
        const bool tr = args.trace && (round / 2) % 2 == 1;
        const CounterSnapshot before = CounterRegistry::global().total();
        const std::uint64_t ns = rig->round(v, kPhases, tr, attempted);
        const CounterSnapshot after = CounterRegistry::global().total();
        const std::uint32_t n = rig->completed();
        attempted += kPhases;
        failedOps += kPhases - n;

        std::vector<double> opUs, lagUs, waitUs;
        for (std::uint32_t p = 0; p < n; ++p) {
            const std::uint64_t a0 = rig->arrive[0][p], a1 = rig->arrive[1][p];
            const std::uint64_t first = std::min(a0, a1);
            const std::uint64_t last = std::max(a0, a1);
            const std::uint64_t out =
                std::max(rig->leave[0][p], rig->leave[1][p]);
            for (unsigned t = 0; t < kThreads; ++t) {
                if (rig->leave[t][p] < last) {
                    res.fail("thread " + std::to_string(t) +
                             " left a phase before its last arrival");
                    return false;
                }
                waitUs.push_back((rig->leave[t][p] - rig->arrive[t][p]) / 1e3);
            }
            opUs.push_back((out - first) / 1e3);
            lagUs.push_back((out - last) / 1e3);
        }
        Round rd;
        rd.variant = v;
        rd.traced = tr;
        rd.ops = n;
        rd.ns = ns;
        rd.setPercentiles(opUs);
        rounds.push_back(std::move(rd));
        if (tr)
            vs[v].addRound(waitUs, lagUs, after - before, n);
        return !rig->aborted();
    };
    std::uint64_t salt = kSetupSalt;
    runRounds(
        args, 4, timedRound,
        [&] {
            return timedThrowawaySetup(
                [&] { return makeBarrierRig(args.seed ^ salt++); });
        },
        setups, probeUs);

    res.attempted = attempted;
    res.failed = failedOps;
    noteThreads(res);
    res.notes.push_back("checked: no thread left a phase before that "
                        "phase's last arrival stamp; timeouts: " +
                        std::to_string(rig->timeouts[0] + rig->timeouts[1]));
    if (!args.trace) {
        reportEndToEnd(res, setups, rounds);
        return res;
    }
    for (int v = 0; v < 2; ++v) {
        const std::string b = std::string("runtime.barrier.") + kNames[v];
        const VariantStats &s = vs[v];
        res.add(b + ".wait_us_p50", median(s.callP50), "us");
        res.add(b + ".wait_us_p99", median(s.callP99), "us");
        res.add(b + ".release_lag_us_p50", median(s.gapP50), "us");
        res.add(b + ".release_lag_us_p99", median(s.gapP99), "us");
        res.add(b + ".polls_per_phase", ratio(s.delta.flagPolls, s.ops),
                "count");
        res.add(b + ".backoff_waited_per_phase",
                ratio(s.delta.backoffWaited, s.ops), "count");
        res.add(b + ".parks_per_phase", ratio(s.delta.parks, s.ops), "count");
    }
    reportTraced(res, logPtrs(rig->logs), rounds, probeUs, args);
    return res;
}

// --------------------------------------------------------------------
// rt-lock
// --------------------------------------------------------------------

namespace
{

using absync::runtime::ExpBackoff;
using absync::runtime::McsLock;
using absync::runtime::TtasLock;

constexpr std::uint64_t kThinkNs = 4'000;
constexpr std::uint64_t kHoldNs = 2'000;
constexpr std::uint32_t kOps = 5000; ///< per thread per round
constexpr std::uint32_t kWarmOps = 1000;

/** Both locks, two workers and their per-round records. */
class LockRig
{
  public:
    explicit LockRig(std::uint64_t seed)
        : mcs_([] {
              absync::runtime::QueueLockConfig qc;
              qc.maxThreads = kThreads;
              return qc;
          }())
    {
        for (unsigned t = 0; t < kThreads; ++t) {
            opUs[t].reserve(kOps);
            acqUs[t].reserve(kOps);
            gapUs[t].reserve(kOps);
            logs.emplace_back(t, kKeptSpans);
            rngs_.emplace_back(seed * 0xbf58476d1ce4e5b9ULL + t + 1);
        }
        team_ = std::make_unique<Team>([this](unsigned t) { body(t); });
    }

    /** Run @p ops acquires per thread on lock family @p f; wall ns. */
    std::uint64_t
    round(int f, std::uint32_t ops, bool traced, std::uint64_t op_base)
    {
        family_ = f;
        ops_ = ops;
        traced_ = traced;
        opBase_ = op_base;
        return team_->round();
    }

    std::vector<double> opUs[kThreads], acqUs[kThreads], gapUs[kThreads];
    std::uint64_t acquired[kThreads] = {}, failed[kThreads] = {};
    /** Incremented only while holding the lock under test. */
    std::uint64_t counter = 0;
    std::vector<SpanLog> logs;

  private:
    void
    body(unsigned t)
    {
        SpanLog &log = logs[t];
        Rng &rng = rngs_[t];
        log.setEnabled(traced_);
        opUs[t].clear();
        acqUs[t].clear();
        gapUs[t].clear();
        std::uint64_t prev = nowNs();
        for (std::uint32_t i = 0; i < ops_; ++i) {
            const std::uint64_t op = opBase_ + i * kThreads + t;
            log.open("bench.op", op, prev);
            spinUntilNs(prev + rng.uniformInt(0, kThinkNs));
            const std::uint64_t hold = rng.uniformInt(0, kHoldNs);
            const std::uint64_t t0 = nowNs();
            log.leaf("bench.think", op, prev, t0);
            bool ok = true;
            if (family_ == 0)
                ttas_.lock();
            else
                ok = mcs_.lockFor(t, deadlineAt(t0 + kDeadlineNs)) ==
                     WaitResult::Ok;
            const std::uint64_t t1 = nowNs();
            log.leaf("runtime.lock.acquire", op, t0, t1);
            // TtasLock has no timed acquire; one that outlived the
            // deadline still counts as failed.
            if (!ok || t1 - t0 > kDeadlineNs)
                ++failed[t];
            if (!ok) {
                log.close(t1);
                prev = t1;
                continue;
            }
            if (lastUnlockNs_ > t0)
                gapUs[t].push_back((t1 - lastUnlockNs_) / 1e3);
            ++counter;
            ++acquired[t];
            spinUntilNs(t1 + hold);
            const std::uint64_t t2 = nowNs();
            lastUnlockNs_ = t2;
            log.leaf("bench.hold", op, t1, t2);
            if (family_ == 0)
                ttas_.unlock();
            else
                mcs_.unlock(t);
            const std::uint64_t t3 = nowNs();
            log.leaf("runtime.lock.release", op, t2, t3);
            log.close(t3);
            acqUs[t].push_back((t1 - t0) / 1e3);
            opUs[t].push_back((t3 - t0) / 1e3);
            prev = t3;
        }
        log.setEnabled(false);
    }

    TtasLock<ExpBackoff> ttas_;
    McsLock mcs_;
    /** When the last holder called unlock; written under the lock. */
    std::uint64_t lastUnlockNs_ = 0;
    std::vector<Rng> rngs_;
    // Round parameters, written by the main thread while workers idle.
    int family_ = 0;
    std::uint32_t ops_ = 0;
    bool traced_ = false;
    std::uint64_t opBase_ = 0;
    std::unique_ptr<Team> team_; ///< last: joined before the rest dies
};

std::unique_ptr<LockRig>
makeLockRig(std::uint64_t seed)
{
    auto rig = std::make_unique<LockRig>(seed);
    rig->round(0, kWarmOps, false, 0);
    rig->round(1, kWarmOps, false, 0);
    return rig;
}

} // namespace

Result
runLockWorkload(const RunArgs &args)
{
    const char *const kNames[2] = {"ttas", "mcs"};
    Result res;
    std::vector<double> setups, probeUs;
    std::vector<Round> rounds;
    VariantStats vs[2];

    const std::uint64_t t0 = nowNs();
    const auto rig = makeLockRig(args.seed);
    setups.push_back((nowNs() - t0) / 1e9);
    std::uint64_t warmAcquired = 0;
    for (unsigned t = 0; t < kThreads; ++t)
        warmAcquired += rig->acquired[t];

    std::uint64_t attempted = 0;
    const auto timedRound = [&](int round) {
        const int v = round % 2;
        const bool tr = args.trace && (round / 2) % 2 == 1;
        const CounterSnapshot before = CounterRegistry::global().total();
        const std::uint64_t ns = rig->round(v, kOps, tr, attempted);
        const CounterSnapshot after = CounterRegistry::global().total();
        attempted += static_cast<std::uint64_t>(kOps) * kThreads;

        std::vector<double> op, acq, gap;
        for (unsigned t = 0; t < kThreads; ++t) {
            op.insert(op.end(), rig->opUs[t].begin(), rig->opUs[t].end());
            acq.insert(acq.end(), rig->acqUs[t].begin(), rig->acqUs[t].end());
            gap.insert(gap.end(), rig->gapUs[t].begin(), rig->gapUs[t].end());
        }
        Round rd;
        rd.variant = v;
        rd.traced = tr;
        rd.ops = op.size();
        rd.ns = ns;
        rd.setPercentiles(op);
        rounds.push_back(std::move(rd));
        if (tr)
            vs[v].addRound(acq, gap, after - before, op.size());
        return true;
    };
    std::uint64_t salt = kSetupSalt;
    runRounds(
        args, 4, timedRound,
        [&] {
            return timedThrowawaySetup(
                [&] { return makeLockRig(args.seed ^ salt++); });
        },
        setups, probeUs);

    std::uint64_t total = 0, failedOps = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        total += rig->acquired[t];
        failedOps += rig->failed[t];
    }
    if (rig->counter != total)
        res.fail("lock-protected counter " + std::to_string(rig->counter) +
                 " != acquires " + std::to_string(total));
    res.notes.push_back("checked: lock-protected counter == acquires (" +
                        std::to_string(total) + ", " +
                        std::to_string(warmAcquired) + " in warm-up)");
    res.attempted = attempted;
    res.failed = failedOps;
    noteThreads(res);
    if (!args.trace) {
        reportEndToEnd(res, setups, rounds);
        return res;
    }
    for (int v = 0; v < 2; ++v) {
        const std::string l = std::string("runtime.lock.") + kNames[v];
        const VariantStats &s = vs[v];
        res.add(l + ".acquire_us_p50", median(s.callP50), "us");
        res.add(l + ".acquire_us_p99", median(s.callP99), "us");
        res.add(l + ".handoff_gap_us_p50", median(s.gapP50), "us");
        res.add(l + ".handoff_gap_us_p99", median(s.gapP99), "us");
        res.add(l + ".rmws_per_acquire",
                ratio(s.delta.counterRmws, s.delta.acquires), "ratio");
        res.add(l + ".polls_per_acquire",
                ratio(s.delta.flagPolls, s.delta.acquires), "ratio");
    }
    res.add("runtime.lock.mcs.handoffs_per_acquire",
            ratio(vs[1].delta.queueHandoffs, vs[1].delta.acquires), "ratio");
    reportTraced(res, logPtrs(rig->logs), rounds, probeUs, args);
    return res;
}

} // namespace perfbench
