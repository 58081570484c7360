#include "cpu/timing_harness.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/executor.hpp"

namespace streamk::cpu {

CalibrationResult calibrate_cpu(const core::GemmShape& shape,
                                gpu::BlockShape block,
                                const CalibrationOptions& options) {
  const core::WorkMapping mapping(shape, block);
  std::vector<std::int64_t> grids = options.grids;
  if (grids.empty()) {
    // Default ladder: spans the no-split / moderate-split / heavy-split
    // regimes so all four constants are observable.
    grids = {1, 2, 3, 4, 6, 8, 12, 16};
  }

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  Matrix<double> c(shape.m, shape.n);
  util::Pcg32 rng(0xca11b7a7e);
  fill_random(a, rng);
  fill_random(b, rng);

  // One worker (see the header): its descending-id claim order is the
  // serial schedule in which every fixup signal precedes its wait, so a
  // rep's wall time is the sum of its g CTA runtimes.
  const GemmProblem<double, double> problem{a, b, c};
  ExecutorOptions exec_options;
  exec_options.workers = 1;

  CalibrationResult result;
  for (const std::int64_t g : grids) {
    // Compiled once per grid, outside the timed region.
    const core::SchedulePlan plan =
        core::compile_plan(core::StreamKBasic(mapping, g));
    // Untimed warm-up: first-use workspace and panel-arena leases and
    // per-thread CTA buffers for this plan are paid here.
    execute_plan<double, double, double>(plan, {&problem, 1}, exec_options);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < std::max(1, options.repetitions); ++rep) {
      const auto start = std::chrono::steady_clock::now();
      execute_plan<double, double, double>(plan, {&problem, 1}, exec_options);
      const auto stop = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(stop - start).count());
    }
    result.samples.push_back(
        model::FitSample{g, best / static_cast<double>(g)});
  }

  result.params = model::fit_cost_params(mapping, result.samples);
  return result;
}

}  // namespace streamk::cpu
