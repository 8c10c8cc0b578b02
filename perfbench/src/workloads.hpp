/**
 * @file
 * The benchmark's workloads.  Each returns its end-to-end metrics from
 * an untraced run (args.trace false) and its per-layer metrics from a
 * traced one; main completes the per-layer set.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench
{

/** Flat BarrierSimulator regimes: "sim-contended", "sim-sparse". */
Result runSimWorkload(const RunArgs &args);

/** Two threads on one SpinBarrier, Exponential and Adaptive rounds. */
Result runBarrierWorkload(const RunArgs &args);

/** Two threads on one lock, TtasLock<ExpBackoff> and McsLock rounds. */
Result runLockWorkload(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
