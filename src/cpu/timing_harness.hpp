#pragma once

// Per-architecture cost-constant calibration (Section 5.1's offline step).
//
// Times basic Stream-K executions of one problem shape at several grid
// sizes on the host CPU, then least-squares-fits the Appendix A.1 constants
// {a, b, c, d} to the measurements -- demonstrating the exact workflow the
// paper prescribes for porting the grid-size model to a new target:
// "Parameters to the model are trivially chosen with empirical measurements
// and need only be done once per target architecture."
//
// The model prices the runtime of one CTA, so that is what each sample is:
// after one untimed warm-up run, each grid's compiled plan is timed on one
// worker, and the best-of-reps wall time divided by g is the mean CTA
// runtime.  The wall time of a multi-worker run would instead fold in
// ceil(g / W) waves and the pool's thread wake-up latency (milliseconds on
// some hosts, longer than the whole calibration problem), which flattens
// the strong-scaling curve the iteration cost `c` is read from.  One worker
// also matches the simulator contract (DESIGN.md section 6): `c` is the
// uncontended per-iteration cost, and co-resident contention is scaled on
// top of it.

#include <vector>

#include "core/gemm_shape.hpp"
#include "gpu/block_shape.hpp"
#include "model/fit.hpp"

namespace streamk::cpu {

struct CalibrationResult {
  model::CostParams params;
  /// (grid, mean CTA seconds): best-of-reps one-worker wall time / grid.
  std::vector<model::FitSample> samples;
};

struct CalibrationOptions {
  std::vector<std::int64_t> grids;  ///< grid sizes to time (empty = default)
  int repetitions = 3;              ///< best-of timing repetitions
};

/// Runs the calibration GEMM (FP64) and fits the cost constants.
CalibrationResult calibrate_cpu(const core::GemmShape& shape,
                                gpu::BlockShape block,
                                const CalibrationOptions& options = {});

}  // namespace streamk::cpu
