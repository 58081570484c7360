// Integration tests: workspace spill accounting, single-worker deadlock
// freedom on pathological schedules, the CPU calibration harness feeding the
// analytical model, and end-to-end planner -> executor -> verification.

#include <gtest/gtest.h>

#include "core/stream_k.hpp"
#include "core/validate.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "cpu/timing_harness.hpp"
#include "cpu/workspace.hpp"
#include "model/grid_selector.hpp"
#include "model/memory_model.hpp"
#include "test_support.hpp"
#include "util/threading.hpp"

namespace streamk {
namespace {

TEST(Workspace, AllocatesOneSlotPerSpillingCta) {
  const core::WorkMapping mapping({128, 128, 512}, {32, 32, 16});
  for (const auto& named : testing::all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    cpu::FixupWorkspace<double> workspace(*named.decomposition,
                                          mapping.block().tile_elements());
    EXPECT_EQ(workspace.slot_count(),
              model::count_spills(*named.decomposition));
  }
}

TEST(Workspace, SignalWaitRoundTrip) {
  const core::WorkMapping mapping({32, 32, 64}, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 4);  // 4 CTAs on one tile
  cpu::FixupWorkspace<float> workspace(sk, mapping.block().tile_elements());
  ASSERT_EQ(workspace.slot_count(), 3);
  EXPECT_FALSE(workspace.cta_spills(0));  // owner
  EXPECT_TRUE(workspace.cta_spills(2));
  workspace.partials(2)[0] = 42.0f;
  workspace.signal(2);
  workspace.wait(2);  // must not block
  EXPECT_EQ(workspace.partials(2)[0], 42.0f);
}

TEST(Executor, SingleWorkerHandlesHeavySplitting) {
  // 108 CTAs on a single tile, one worker: the reverse-index serial order
  // must satisfy all 107 waits without deadlock.
  const core::GemmShape shape{32, 32, 432};
  const core::WorkMapping mapping(shape, {32, 32, 4});  // 108 iterations
  const core::StreamKBasic sk(mapping, 108);
  ASSERT_NO_THROW(core::validate_decomposition(sk));

  cpu::Matrix<double> a(shape.m, shape.k);
  cpu::Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(77);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, {32, 32, 4});

  cpu::Matrix<double> c(shape.m, shape.n);
  testing::execute_matrices<double, double, double>(sk, a, b, c,
                                                    {.workers = 1});
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(Executor, OversubscribedWorkersStillCorrect) {
  // More workers than CTAs.
  const core::GemmShape shape{64, 64, 128};
  const core::WorkMapping mapping(shape, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 3);

  cpu::Matrix<float> a(shape.m, shape.k);
  cpu::Matrix<float> b(shape.k, shape.n);
  util::Pcg32 rng(5);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  cpu::Matrix<float> expected(shape.m, shape.n);
  cpu::reference_gemm<float, float, float>(a, b, expected, {32, 32, 16});

  cpu::Matrix<float> c(shape.m, shape.n);
  testing::execute_matrices<float, float, float>(sk, a, b, c,
                                                 {.workers = 16});
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(Calibration, FitsPositiveIterationCost) {
  // Small problem, few reps: this is a smoke test of the full measure->fit
  // pipeline, not a performance assertion.
  cpu::CalibrationOptions options;
  options.grids = {1, 2, 4, 8};
  options.repetitions = 2;
  const cpu::CalibrationResult result =
      cpu::calibrate_cpu({64, 64, 256}, {32, 32, 16}, options);
  ASSERT_EQ(result.samples.size(), 4u);
  for (const auto& s : result.samples) EXPECT_GT(s.seconds, 0.0);
  // Some cost was observed (the fit clamps coefficients to >= 0, so only a
  // strictly positive assertion carries signal).
  EXPECT_GT(result.params.a + result.params.c, 0.0);
  // The per-iteration cost dominates the strong-scaling curve -- but that
  // curve only exists where two workers can actually run in parallel.  On a
  // single-hardware-thread host the g = 1 and g >= 2 samples take the same
  // wall time (all work is serialized either way), so c is pure measurement
  // noise there and asserting its sign would be a coin flip.
  if (util::hardware_threads() >= 2) {
    EXPECT_GT(result.params.c, 0.0);
  }
}

TEST(Calibration, ModelPredictsMeasurementOrdering) {
  // The fitted model, evaluated at the sampled grids, should reproduce the
  // qualitative ordering of the strong-scaling curve: g=1 is the slowest.
  cpu::CalibrationOptions options;
  options.grids = {1, 2, 4, 8};
  options.repetitions = 2;
  const core::GemmShape shape{96, 96, 512};
  const gpu::BlockShape block{32, 32, 16};
  const cpu::CalibrationResult result =
      cpu::calibrate_cpu(shape, block, options);

  const core::WorkMapping mapping(shape, block);
  const model::CostModel fitted(result.params, block,
                                gpu::Precision::kFp64);
  const double t1 = fitted.stream_k_cta_time(mapping, 1);
  const double t8 = fitted.stream_k_cta_time(mapping, 8);
  EXPECT_GT(t1, t8 * 0.99);
}

TEST(EndToEnd, PlannerExecutorVerifyAcrossShapes) {
  for (const auto& shape : testing::interesting_shapes()) {
    if (shape.macs() > 20'000'000) continue;  // keep runtime modest
    cpu::Matrix<double> a(shape.m, shape.k);
    cpu::Matrix<double> b(shape.k, shape.n);
    util::Pcg32 rng(shape.m + shape.n + shape.k);
    cpu::fill_random_int(a, rng);
    cpu::fill_random_int(b, rng);

    cpu::Matrix<double> expected(shape.m, shape.n);
    cpu::reference_gemm<double, double, double>(
        a, b, expected, cpu::default_cpu_block(gpu::Precision::kFp64));

    cpu::Matrix<double> c(shape.m, shape.n);
    const cpu::GemmReport report = cpu::gemm(a, b, c, {.workers = 3});
    EXPECT_TRUE(testing::bitwise_equal(expected, c))
        << shape.to_string() << " via " << report.schedule_name;
  }
}

}  // namespace
}  // namespace streamk
