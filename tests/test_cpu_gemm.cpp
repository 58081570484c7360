// Functional correctness of the decomposed CPU executor: every decomposition
// variant, across precisions, shapes, worker counts, and alpha/beta --
// verified against the sequential cache-blocked reference (Algorithm 1).
//
// Two verification modes:
//   * exact: small-integer inputs make every product and sum exactly
//     representable, so results must be bitwise identical regardless of the
//     decomposition's reduction order;
//   * tolerance: uniform real inputs with an error bound scaled to k.

#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/mac_loop.hpp"
#include "cpu/microkernel.hpp"
#include "cpu/reference.hpp"
#include "test_support.hpp"

namespace streamk::cpu {
namespace {

using testing::all_decompositions;
using testing::bitwise_equal;
using testing::execute_matrices;
using testing::max_abs_diff;

struct Case {
  core::GemmShape shape;
  gpu::BlockShape block;
};

std::vector<Case> gemm_cases() {
  return {
      {{64, 64, 64}, {32, 32, 16}},
      {{65, 63, 33}, {32, 32, 16}},
      {{128, 128, 512}, {32, 32, 16}},  // strong scaling
      {{96, 96, 96}, {48, 16, 24}},
      {{1, 1, 1}, {32, 32, 16}},
      {{7, 201, 95}, {16, 32, 8}},
      {{192, 160, 224}, {64, 64, 32}},
  };
}

class CpuGemmExact : public ::testing::TestWithParam<Case> {};

TEST_P(CpuGemmExact, Fp64AllDecompositionsBitwiseEqualReference) {
  const auto& [shape, block] = GetParam();
  const core::WorkMapping mapping(shape, block);

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(shape.m * 31 + shape.n * 7 + shape.k);
  fill_random_int(a, rng);
  fill_random_int(b, rng);

  Matrix<double> expected(shape.m, shape.n);
  reference_gemm<double, double, double>(a, b, expected, block);

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    Matrix<double> c(shape.m, shape.n);
    fill_value(c, -999.0);  // must be fully overwritten (beta = 0)
    execute_matrices<double, double, double>(*named.decomposition, a, b,
                                             c, {.workers = 3});
    EXPECT_TRUE(bitwise_equal(expected, c));
  }
}

TEST_P(CpuGemmExact, Fp32AllDecompositionsBitwiseEqualReference) {
  const auto& [shape, block] = GetParam();
  const core::WorkMapping mapping(shape, block);

  Matrix<float> a(shape.m, shape.k);
  Matrix<float> b(shape.k, shape.n);
  util::Pcg32 rng(shape.m * 13 + shape.n * 5 + shape.k);
  fill_random_int(a, rng, -3, 3);
  fill_random_int(b, rng, -3, 3);

  Matrix<float> expected(shape.m, shape.n);
  reference_gemm<float, float, float>(a, b, expected, block);

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    Matrix<float> c(shape.m, shape.n);
    execute_matrices<float, float, float>(*named.decomposition, a, b, c,
                                          {.workers = 2});
    EXPECT_TRUE(bitwise_equal(expected, c));
  }
}

TEST_P(CpuGemmExact, Fp16AllDecompositionsBitwiseEqualReference) {
  const auto& [shape, block] = GetParam();
  const core::WorkMapping mapping(shape, block);

  Matrix<util::Half> a(shape.m, shape.k);
  Matrix<util::Half> b(shape.k, shape.n);
  util::Pcg32 rng(shape.m + shape.n * 3 + shape.k * 17);
  fill_random_int(a, rng, -2, 2);
  fill_random_int(b, rng, -2, 2);

  Matrix<float> expected(shape.m, shape.n);
  reference_gemm<util::Half, float, float>(a, b, expected,
                                           gpu::BlockShape{16, 16, 16});

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    Matrix<float> c(shape.m, shape.n);
    execute_matrices<util::Half, float, float>(*named.decomposition, a,
                                               b, c, {.workers = 3});
    EXPECT_TRUE(bitwise_equal(expected, c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuGemmExact, ::testing::ValuesIn(gemm_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const auto& c = info.param;
      return "m" + std::to_string(c.shape.m) + "n" +
             std::to_string(c.shape.n) + "k" + std::to_string(c.shape.k) +
             "_b" + std::to_string(c.block.m) + "x" +
             std::to_string(c.block.n) + "x" + std::to_string(c.block.k);
    });

TEST(CpuGemmTolerance, RealValuedInputsWithinBound) {
  const core::GemmShape shape{120, 88, 260};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping(shape, block);

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(99);
  fill_random(a, rng);
  fill_random(b, rng);

  Matrix<double> expected(shape.m, shape.n);
  naive_gemm<double, double, double>(a, b, expected);

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    Matrix<double> c(shape.m, shape.n);
    execute_matrices<double, double, double>(*named.decomposition, a, b,
                                             c, {.workers = 4});
    EXPECT_LT(max_abs_diff(expected, c),
              1e-12 * static_cast<double>(shape.k));
  }
}

TEST(CpuGemmTolerance, HalfInputsAgainstFloatReference) {
  // FP16 storage quantizes the inputs; compute the reference from the same
  // quantized values so only summation order differs.
  const core::GemmShape shape{64, 96, 200};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping(shape, block);

  Matrix<util::Half> a(shape.m, shape.k);
  Matrix<util::Half> b(shape.k, shape.n);
  util::Pcg32 rng(7);
  fill_random(a, rng);
  fill_random(b, rng);

  Matrix<float> expected(shape.m, shape.n);
  naive_gemm<util::Half, float, float>(a, b, expected);

  core::StreamKBasic sk(mapping, 7);
  Matrix<float> c(shape.m, shape.n);
  execute_matrices<util::Half, float, float>(sk, a, b, c, {.workers = 2});
  EXPECT_LT(max_abs_diff(expected, c), 1e-4 * static_cast<double>(shape.k));
}

TEST(CpuGemm, ResultIndependentOfWorkerCount) {
  // The reduction order is fixed by the decomposition (owners reduce peers
  // in ascending id order), so results are bitwise identical for any worker
  // count -- even for non-associative float inputs.
  const core::GemmShape shape{96, 96, 320};
  const core::WorkMapping mapping(shape, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 7);

  Matrix<float> a(shape.m, shape.k);
  Matrix<float> b(shape.k, shape.n);
  util::Pcg32 rng(1234);
  fill_random(a, rng);
  fill_random(b, rng);

  Matrix<float> first(shape.m, shape.n);
  execute_matrices<float, float, float>(sk, a, b, first, {.workers = 1});
  for (const std::size_t workers : {2u, 3u, 8u}) {
    Matrix<float> c(shape.m, shape.n);
    execute_matrices<float, float, float>(sk, a, b, c, {.workers = workers});
    EXPECT_TRUE(bitwise_equal(first, c)) << "workers=" << workers;
  }
}

TEST(CpuGemm, AlphaBetaEpilogue) {
  const core::GemmShape shape{50, 40, 60};
  const gpu::BlockShape block{16, 32, 8};
  const core::WorkMapping mapping(shape, block);

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  Matrix<double> c_init(shape.m, shape.n);
  util::Pcg32 rng(55);
  fill_random_int(a, rng);
  fill_random_int(b, rng);
  fill_random_int(c_init, rng);

  const double alpha = 2.0, beta = -3.0;
  Matrix<double> expected = c_init;
  reference_gemm<double, double, double>(a, b, expected, block, alpha, beta);

  const core::StreamKBasic sk(mapping, 5);
  Matrix<double> c = c_init;
  execute_matrices<double, double, double>(
      sk, a, b, c, {.workers = 2, .alpha = alpha, .beta = beta});
  EXPECT_TRUE(bitwise_equal(expected, c));
}

TEST(CpuGemm, RejectsNonConformingMatrices) {
  const core::WorkMapping mapping({64, 64, 64}, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 4);
  Matrix<double> a(64, 32);  // wrong k
  Matrix<double> b(64, 64);
  Matrix<double> c(64, 64);
  EXPECT_THROW((execute_matrices<double, double, double>(sk, a, b, c)),
               util::CheckError);
}

// ------------------------------------------------- edge-tile MAC accounting

TEST(MacAccounting, EdgeTilePerformsOnlyValidRegionWork) {
  // One segment of an edge tile: em < blk.m and en < blk.n, with a short
  // final k iteration.  The packed path must dispatch exactly
  // em * en * k_covered MACs; the seed's loop always paid the full
  // blk.m * blk.n * blk.k block volume per iteration.
  const core::GemmShape shape{37, 29, 41};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping(shape, block);

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(4242);
  fill_random(a, rng);
  fill_random(b, rng);

  // Bottom-right tile: em = 37 - 32 = 5, en = 29 (< 32), k covered = 41.
  const std::int64_t tile_idx =
      mapping.tile_index({mapping.tiles_m() - 1, mapping.tiles_n() - 1});
  core::TileSegment seg;
  seg.tile_idx = tile_idx;
  seg.iter_begin = 0;
  seg.iter_end = mapping.iters_per_tile();
  seg.last = true;

  const std::int64_t em = mapping.tile_extent_m(mapping.tiles_m() - 1);
  const std::int64_t en = mapping.tile_extent_n(mapping.tiles_n() - 1);
  ASSERT_LT(em, block.m);
  ASSERT_LT(en, block.n);

  std::vector<double> accum(static_cast<std::size_t>(block.tile_elements()),
                            0.0);
  MacScratch<double> scratch(block);
  MacProbe::enable(true);
  const core::SchedulePlan plan =
      core::compile_plan(core::DataParallel(mapping));
  mac_segment<double, double>(plan, plan.tile_ref(tile_idx), a, b, seg,
                              accum, scratch);
  const std::int64_t macs = MacProbe::count();
  MacProbe::enable(false);

  EXPECT_EQ(macs, em * en * shape.k);
  // The seed's path paid the padded block volume -- strictly more.
  EXPECT_LT(macs, mapping.iters_per_tile() * block.macs_per_iteration());
}

TEST(MacAccounting, WholeGemmPerformsExactlyUsefulMacsUnderEveryKind) {
  // Across a full ragged GEMM the probe must total exactly shape.macs()
  // (the useful volume) for every decomposition kind: edge tiles no longer
  // multiply zero padding, and spilled partials add no extra MACs.
  const core::GemmShape shape{45, 37, 50};
  const gpu::BlockShape block{16, 16, 16};
  const core::WorkMapping mapping(shape, block);
  ASSERT_LT(shape.macs(), mapping.padded_macs());  // scenario is ragged

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(99);
  fill_random(a, rng);
  fill_random(b, rng);

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    Matrix<double> c(shape.m, shape.n);
    MacProbe::enable(true);
    execute_matrices<double, double, double>(*named.decomposition, a, b,
                                             c, {.workers = 2});
    const std::int64_t macs = MacProbe::count();
    MacProbe::enable(false);
    EXPECT_EQ(macs, shape.macs());
  }
}

// ------------------------------------------------------ public gemm() API

TEST(GemmApi, AutoScheduleMatchesReference) {
  const core::GemmShape shape{150, 90, 400};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(2024);
  fill_random_int(a, rng);
  fill_random_int(b, rng);

  Matrix<double> expected(shape.m, shape.n);
  reference_gemm<double, double, double>(
      a, b, expected, default_cpu_block(gpu::Precision::kFp64));

  Matrix<double> c(shape.m, shape.n);
  const GemmReport report = gemm(a, b, c, {.workers = 2});
  EXPECT_TRUE(bitwise_equal(expected, c));
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_GT(report.tiles, 0);
  EXPECT_FALSE(report.schedule_name.empty());
}

TEST(GemmApi, ExplicitSchedulesAllAgree) {
  const core::GemmShape shape{100, 120, 140};
  Matrix<float> a(shape.m, shape.k);
  Matrix<float> b(shape.k, shape.n);
  util::Pcg32 rng(31415);
  fill_random_int(a, rng, -3, 3);
  fill_random_int(b, rng, -3, 3);

  Matrix<float> first(shape.m, shape.n);
  gemm(a, b, first, {.schedule = Schedule::kDataParallel, .workers = 2});

  for (const Schedule schedule :
       {Schedule::kFixedSplit, Schedule::kStreamK, Schedule::kHybridOneTile,
        Schedule::kHybridTwoTile, Schedule::kAuto}) {
    Matrix<float> c(shape.m, shape.n);
    const GemmReport report =
        gemm(a, b, c, {.schedule = schedule, .workers = 3});
    EXPECT_TRUE(bitwise_equal(first, c)) << report.schedule_name;
  }
}

TEST(GemmApi, HalfPrecisionEndToEnd) {
  const core::GemmShape shape{70, 60, 130};
  Matrix<util::Half> a(shape.m, shape.k);
  Matrix<util::Half> b(shape.k, shape.n);
  util::Pcg32 rng(161);
  fill_random_int(a, rng, -2, 2);
  fill_random_int(b, rng, -2, 2);

  Matrix<float> expected(shape.m, shape.n);
  naive_gemm<util::Half, float, float>(a, b, expected);

  Matrix<float> c(shape.m, shape.n);
  const GemmReport report =
      gemm(a, b, c, {.schedule = Schedule::kStreamK, .grid = 5, .workers = 2});
  EXPECT_TRUE(bitwise_equal(expected, c));
  EXPECT_EQ(report.grid, 5);
}

TEST(GemmApi, ReportCountsSpills) {
  const core::GemmShape shape{64, 64, 512};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(8);
  fill_random_int(a, rng);
  fill_random_int(b, rng);
  Matrix<double> c(shape.m, shape.n);
  const GemmReport report = gemm(
      a, b, c,
      {.schedule = Schedule::kStreamK, .block = {32, 32, 16}, .grid = 6,
       .workers = 2});
  // 4 tiles / 6 CTAs: several seams.
  EXPECT_GT(report.spills, 0);
  EXPECT_LE(report.spills, 5);
}

}  // namespace
}  // namespace streamk::cpu
