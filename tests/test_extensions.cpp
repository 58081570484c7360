// Tests for the future-work extensions: Morton tile ordering and the
// two-kernel Stream-K ensemble.

#include <set>

#include <gtest/gtest.h>

#include "core/stream_k.hpp"
#include "core/tile_order.hpp"
#include "core/validate.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "corpus/corpus.hpp"
#include "ensemble/library.hpp"
#include "test_support.hpp"

namespace streamk {
namespace {

// ------------------------------------------------------------ tile order

TEST(TileOrder, RowMajorRoundTrip) {
  const core::TileOrdering order(core::TileOrder::kRowMajor, 5, 7);
  for (std::int64_t i = 0; i < 35; ++i) {
    const auto [tm, tn] = order.coord(i);
    EXPECT_EQ(order.linear(tm, tn), i);
    EXPECT_EQ(tm, i / 7);
    EXPECT_EQ(tn, i % 7);
  }
}

TEST(TileOrder, MortonIsAPermutation) {
  for (const auto& [tm_count, tn_count] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {2, 2}, {4, 4}, {3, 5}, {7, 2}, {16, 16}, {9, 33}}) {
    const core::TileOrdering order(core::TileOrder::kMortonZ, tm_count,
                                   tn_count);
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    for (std::int64_t i = 0; i < tm_count * tn_count; ++i) {
      const auto coord = order.coord(i);
      EXPECT_TRUE(seen.insert(coord).second) << "duplicate coordinate";
      EXPECT_LT(coord.first, tm_count);
      EXPECT_LT(coord.second, tn_count);
      EXPECT_EQ(order.linear(coord.first, coord.second), i);
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(tm_count * tn_count));
  }
}

TEST(TileOrder, MortonPowerOfTwoQuads) {
  // On a power-of-two grid the first four Z-order tiles form the top-left
  // 2x2 quad.
  const core::TileOrdering order(core::TileOrder::kMortonZ, 4, 4);
  std::set<std::pair<std::int64_t, std::int64_t>> first4;
  for (std::int64_t i = 0; i < 4; ++i) first4.insert(order.coord(i));
  const std::set<std::pair<std::int64_t, std::int64_t>> expected{
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(first4, expected);
}

TEST(TileOrder, MortonImprovesPanelLocalityOnSquareGrids) {
  // On grids larger than the wave window, a Z-order window touches
  // O(sqrt(w)) + O(sqrt(w)) panels where row-major touches O(w / tiles_n)
  // rows but all tiles_n columns.  (A 16x16 grid ties at window 108: the
  // window nearly spans the grid either way.)
  for (const std::int64_t side : {32LL, 64LL, 96LL}) {
    const core::TileOrdering row(core::TileOrder::kRowMajor, side, side);
    const core::TileOrdering morton(core::TileOrder::kMortonZ, side, side);
    const std::int64_t c_row = core::panel_touch_cost(row, side, side, 108);
    const std::int64_t c_mor =
        core::panel_touch_cost(morton, side, side, 108);
    EXPECT_LT(c_mor, c_row) << "side=" << side;
  }
}

TEST(TileOrder, PanelTouchCostExactOnSmallCase) {
  // 2x2 grid, window 2, row-major: windows {(0,0),(0,1)} and {(1,0),(1,1)}
  // each touch 1 row + 2 cols = 3 -> total 6.
  const core::TileOrdering row(core::TileOrder::kRowMajor, 2, 2);
  EXPECT_EQ(core::panel_touch_cost(row, 2, 2, 2), 6);
  // Morton on 2x2 with window 2: {(0,0),(0,1)} then {(1,0),(1,1)} -> same.
  const core::TileOrdering morton(core::TileOrder::kMortonZ, 2, 2);
  EXPECT_EQ(core::panel_touch_cost(morton, 2, 2, 2), 6);
  // Window 4: one window touching 2 rows + 2 cols = 4.
  EXPECT_EQ(core::panel_touch_cost(row, 2, 2, 4), 4);
}

TEST(TileOrder, MortonMappingStillValidatesAndExecutes) {
  const core::GemmShape shape{96, 160, 96};
  const core::WorkMapping mapping(shape, {32, 32, 16},
                                  core::TileOrder::kMortonZ);
  for (const auto& named : testing::all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    EXPECT_NO_THROW(core::validate_decomposition(*named.decomposition));
  }

  cpu::Matrix<double> a(shape.m, shape.k);
  cpu::Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(5150);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, {32, 32, 16});

  const core::StreamKBasic sk(mapping, 7);
  cpu::Matrix<double> c(shape.m, shape.n);
  testing::execute_matrices<double, double, double>(sk, a, b, c,
                                                    {.workers = 3});
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(TileOrder, GemmApiMortonOption) {
  const core::GemmShape shape{100, 90, 110};
  cpu::Matrix<float> a(shape.m, shape.k);
  cpu::Matrix<float> b(shape.k, shape.n);
  util::Pcg32 rng(31);
  cpu::fill_random_int(a, rng, -3, 3);
  cpu::fill_random_int(b, rng, -3, 3);

  cpu::Matrix<float> row(shape.m, shape.n);
  cpu::Matrix<float> morton(shape.m, shape.n);
  cpu::gemm(a, b, row, {.workers = 2});
  cpu::gemm(a, b, morton,
            {.tile_order = core::TileOrder::kMortonZ, .workers = 2});
  EXPECT_TRUE(testing::bitwise_equal(row, morton));
}

// ------------------------------------------------------------------- duo

TEST(StreamKDuo, NeverWorseThanSingleKernel) {
  const gpu::GpuSpec a100 = gpu::GpuSpec::a100_locked();
  ensemble::StreamKLibrary solo(a100, gpu::Precision::kFp16F32);
  ensemble::StreamKDuoLibrary duo(a100, gpu::Precision::kFp16F32);

  const corpus::Corpus test_corpus = corpus::Corpus::paper(200);
  double worst = 10.0;
  for (const auto& shape : test_corpus.shapes()) {
    const double s = solo.run(shape).estimate.seconds;
    const double d = duo.run(shape).estimate.seconds;
    worst = std::min(worst, s / d);
  }
  // The duo's selection model is a prediction, so it can occasionally pick
  // the slightly slower kernel -- but never catastrophically.
  EXPECT_GT(worst, 0.8);
}

TEST(StreamKDuo, SmallKernelWinsSmallProblems) {
  const gpu::GpuSpec a100 = gpu::GpuSpec::a100_locked();
  ensemble::StreamKDuoLibrary duo(a100, gpu::Precision::kFp16F32);
  // A small, ragged, shallow problem: the large 128x128 tile wastes nearly
  // half its work as padding.
  const auto pick = duo.run({200, 200, 256});
  EXPECT_EQ(pick.config.block, duo.small_block());
  // A big compute-bound problem keeps the large kernel.
  const auto big = duo.run({4096, 4096, 4096});
  EXPECT_EQ(big.config.block, duo.large_block());
}

TEST(StreamKDuo, ImprovesWorstCaseVsOracle) {
  const gpu::GpuSpec a100 = gpu::GpuSpec::a100_locked();
  ensemble::StreamKLibrary solo(a100, gpu::Precision::kFp16F32);
  ensemble::StreamKDuoLibrary duo(a100, gpu::Precision::kFp16F32);
  ensemble::OracleLibrary oracle(a100, gpu::Precision::kFp16F32);

  const corpus::Corpus test_corpus = corpus::Corpus::paper(300);
  double solo_min = 10.0, duo_min = 10.0;
  for (const auto& shape : test_corpus.shapes()) {
    const double o = oracle.run(shape).estimate.seconds;
    solo_min = std::min(solo_min, o / solo.run(shape).estimate.seconds);
    duo_min = std::min(duo_min, o / duo.run(shape).estimate.seconds);
  }
  EXPECT_GT(duo_min, solo_min);
}

}  // namespace
}  // namespace streamk
