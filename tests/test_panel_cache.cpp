// Shared packed-panel cache tests (cpu/panel_cache.hpp).
//
// The load-bearing property is *bitwise* equivalence: serving a tile's
// packed panels from the shared arena instead of private scratch must not
// perturb a single output bit under any decomposition kind, precision,
// spill pressure, or contention-fallback mix -- the cache may only remove
// packing work, never change what the microkernel computes.  The suite
// also pins the satellite behaviours: arena pooling across back-to-back
// submits, the deterministic contention hook, the kill switch, the
// zero-fill-skip packers, and the windowed panel-cost model the plan's
// tile-window selection is built on.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule_plan.hpp"
#include "core/tile_order.hpp"
#include "cpu/gemm.hpp"
#include "cpu/packing.hpp"
#include "cpu/panel_cache.hpp"
#include "runtime/workspace_pool.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace streamk::cpu {
namespace {

/// Scoped restore of the process-wide panel-cache knobs the tests twist.
struct PanelCacheKnobReset {
  // Force the cache on for the test body so the suite behaves the same
  // under a STREAMK_PANEL_CACHE=0 environment; the process-wide setting
  // is restored on destruction.
  PanelCacheKnobReset() : saved_enabled_(panel_cache_enabled()) {
    set_panel_cache_enabled(true);
  }
  ~PanelCacheKnobReset() {
    set_panel_cache_enabled(saved_enabled_);
    set_panel_cache_contention_stride(0);
    PackProbe::enable(false);
    PackProbe::reset();
  }

 private:
  bool saved_enabled_;
};

/// The five caller-pinnable decomposition kinds, each with a knob that
/// makes it distinct from data-parallel on a multi-tile mapping.
std::vector<std::pair<const char*, GemmOptions>> schedule_matrix() {
  std::vector<std::pair<const char*, GemmOptions>> out;
  GemmOptions dp;
  dp.schedule = Schedule::kDataParallel;
  out.push_back({"dp", dp});
  GemmOptions split;
  split.schedule = Schedule::kFixedSplit;
  split.split = 3;
  out.push_back({"split3", split});
  GemmOptions sk;
  sk.schedule = Schedule::kStreamK;
  sk.grid = 7;
  out.push_back({"sk7", sk});
  GemmOptions hy1;
  hy1.schedule = Schedule::kHybridOneTile;
  out.push_back({"hybrid1", hy1});
  GemmOptions hy2;
  hy2.schedule = Schedule::kHybridTwoTile;
  out.push_back({"hybrid2", hy2});
  return out;
}

template <typename In, typename Out>
void expect_shared_bitwise_private(const core::GemmShape& shape) {
  Matrix<In> a(shape.m, shape.k);
  Matrix<In> b(shape.k, shape.n);
  util::Pcg32 rng(0x9e1l);
  fill_random(a, rng);
  fill_random(b, rng);
  for (auto [label, options] : schedule_matrix()) {
    SCOPED_TRACE(label);
    options.workers = 4;
    Matrix<Out> c_shared(shape.m, shape.n);
    Matrix<Out> c_private(shape.m, shape.n);
    options.panel_cache = PanelCacheMode::kOn;
    gemm(a, b, c_shared, options);
    options.panel_cache = PanelCacheMode::kOff;
    gemm(a, b, c_private, options);
    EXPECT_EQ(std::memcmp(c_shared.data().data(), c_private.data().data(),
                          c_shared.data().size() * sizeof(Out)),
              0);
  }
}

TEST(PanelCache, SharedIsBitwiseIdenticalToPrivateAcrossKindsAndDtypes) {
  // Ragged in every dimension so edge panels, zero-fill-skip, and the
  // cacheability predicate (misaligned Stream-K segment starts) all fire.
  const core::GemmShape shape{100, 92, 150};
  expect_shared_bitwise_private<double, double>(shape);
  expect_shared_bitwise_private<float, float>(shape);
  expect_shared_bitwise_private<util::Half, float>(shape);
}

TEST(PanelCache, OversubscribedSpillingStreamKStaysBitwiseIdentical) {
  // A grid far above the worker count forces partial-tile spills and the
  // fixup protocol to run *while* CTAs race for cache slots: the cache must
  // neither deadlock against the fixup waits nor change the summation tree
  // the fixup accumulates.
  const core::GemmShape shape{96, 96, 512};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0x57a11);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kStreamK;
  options.grid = 16;
  options.workers = 4;

  Matrix<double> c_shared(shape.m, shape.n);
  options.panel_cache = PanelCacheMode::kOn;
  const GemmReport report = gemm(a, b, c_shared, options);
  EXPECT_GT(report.spills, 0);

  Matrix<double> c_private(shape.m, shape.n);
  options.panel_cache = PanelCacheMode::kOff;
  gemm(a, b, c_private, options);
  EXPECT_EQ(std::memcmp(c_shared.data().data(), c_private.data().data(),
                        c_shared.data().size() * sizeof(double)),
            0);
}

TEST(PanelCache, ContentionHookForcesFallbackWithoutChangingResults) {
  PanelCacheKnobReset reset;
  const core::GemmShape shape{96, 96, 128};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0xfa11);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kDataParallel;
  options.workers = 4;
  options.panel_cache = PanelCacheMode::kOn;

  Matrix<double> c_private(shape.m, shape.n);
  options.panel_cache = PanelCacheMode::kOff;
  gemm(a, b, c_private, options);

  // Every second acquire pretends its slot was observed mid-PACKING, so
  // the run interleaves shared serves with forced private fallbacks.
  set_panel_cache_contention_stride(2);
  PackProbe::enable(true);
  options.panel_cache = PanelCacheMode::kOn;
  Matrix<double> c_contended(shape.m, shape.n);
  gemm(a, b, c_contended, options);
  EXPECT_GT(PackProbe::fallbacks(), 0);
  EXPECT_GT(PackProbe::private_packs(), 0);
  PackProbe::enable(false);
  set_panel_cache_contention_stride(0);

  EXPECT_EQ(std::memcmp(c_contended.data().data(), c_private.data().data(),
                        c_contended.data().size() * sizeof(double)),
            0);
}

TEST(PanelCache, KillSwitchDisablesSharingEvenWhenForcedOn) {
  PanelCacheKnobReset reset;
  const core::GemmShape shape{96, 96, 96};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0x0ff);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kDataParallel;
  options.workers = 2;
  options.panel_cache = PanelCacheMode::kOn;

  set_panel_cache_enabled(false);  // what STREAMK_PANEL_CACHE=0 seeds
  PackProbe::enable(true);
  Matrix<double> c(shape.m, shape.n);
  gemm(a, b, c, options);
  EXPECT_EQ(PackProbe::shared_packs(), 0);
  EXPECT_EQ(PackProbe::hits(), 0);
  EXPECT_GT(PackProbe::private_packs(), 0);
  PackProbe::enable(false);
  set_panel_cache_enabled(true);
}

TEST(PanelCache, SharingCutsPackedBytesOnMultiTileGrids) {
  PanelCacheKnobReset reset;
  const core::GemmShape shape{192, 192, 128};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0xb17e5);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kDataParallel;
  options.workers = 1;  // deterministic accounting: no racing packers

  options.panel_cache = PanelCacheMode::kOff;
  PackProbe::enable(true);
  Matrix<double> c(shape.m, shape.n);
  gemm(a, b, c, options);
  const std::int64_t private_bytes = PackProbe::total_bytes();

  PackProbe::reset();
  options.panel_cache = PanelCacheMode::kOn;
  gemm(a, b, c, options);
  const std::int64_t shared_bytes = PackProbe::total_bytes();
  EXPECT_GT(PackProbe::hits(), 0);
  PackProbe::enable(false);

  // 4x4 tiles: each panel packs once instead of once per tile in its grid
  // row/column, so total packed bytes drop by ~4x.
  EXPECT_LT(shared_bytes, private_bytes / 2);
}

TEST(PanelCache, ArenaIsRecycledAcrossBackToBackSubmits) {
  PanelCacheKnobReset reset;
  const core::GemmShape shape{96, 96, 96};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0xa7e4a);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kDataParallel;
  options.workers = 2;
  options.panel_cache = PanelCacheMode::kOn;

  Matrix<double> c(shape.m, shape.n);
  gemm(a, b, c, options);  // populate the pool with this shape's arena
  auto& pool = runtime::PanelCachePool<double>::instance();
  const std::size_t pooled = pool.pooled_count();
  EXPECT_GE(pooled, 1u);
  // Back-to-back submits of the same shape rebind the recycled arena:
  // the free list neither grows nor drains across a lease round trip.
  gemm(a, b, c, options);
  gemm(a, b, c, options);
  EXPECT_EQ(pool.pooled_count(), pooled);
}

TEST(PanelCache, BindRefusesArenasOverBudget) {
  PanelCacheConfig config;
  config.row_panels = 4;
  config.col_panels = 4;
  config.chunks = 2;
  config.chunk_depth = 16;
  const gpu::BlockShape block{48, 48, 16};

  PanelCache<double> cache;
  EXPECT_TRUE(cache.bind(block, config));
  EXPECT_TRUE(cache.bound());

  const std::int64_t budget = panel_cache_arena_budget();
  set_panel_cache_arena_budget(1024);  // smaller than any real arena
  EXPECT_FALSE(cache.bind(block, config));
  EXPECT_FALSE(cache.bound());
  set_panel_cache_arena_budget(budget);

  PanelCacheConfig degenerate;  // all-zero geometry
  EXPECT_FALSE(cache.bind(block, degenerate));
}

TEST(PanelCache, RebindPingPongKeepsServingAcrossGeometries) {
  // A pooled arena alternates between a large geometry and a small one
  // (grouped GEMM interleaved with its per-problem shapes).  Rebinding
  // must rearm the slots for the new geometry every time -- stale
  // published slots from the previous bind would serve another plan's
  // panels -- while the grow-only arena keeps the large storage.
  const gpu::BlockShape block{8, 8, 8};
  PanelCacheConfig large;
  large.row_panels = 16;
  large.col_panels = 16;
  large.chunks = 4;
  large.chunk_depth = 32;
  PanelCacheConfig small;
  small.row_panels = 2;
  small.col_panels = 2;
  small.chunks = 1;
  small.chunk_depth = 8;

  PanelCache<double> cache;
  int packs = 0;
  const auto pack = [&packs](double* dst) {
    ++packs;
    dst[0] = 7.0;
  };
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(cache.bind(block, large));
    const int before = packs;
    double* slot = cache.acquire_a(15, 3, 8, 32, pack);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(packs, before + 1);  // fresh bind: never a stale hit
    EXPECT_EQ(cache.acquire_a(15, 3, 8, 32, pack), slot);
    EXPECT_EQ(packs, before + 1);  // same bind: a hit

    ASSERT_TRUE(cache.bind(block, small));
    const int small_before = packs;
    ASSERT_NE(cache.acquire_b(1, 0, 8, 8, pack), nullptr);
    EXPECT_EQ(packs, small_before + 1);
  }
}

TEST(PanelCache, AcquirePublishesOnceAndServesHits) {
  PanelCacheKnobReset reset;
  PanelCacheConfig config;
  config.row_panels = 2;
  config.col_panels = 2;
  config.chunks = 1;
  config.chunk_depth = 8;
  const gpu::BlockShape block{8, 8, 8};
  PanelCache<double> cache;
  ASSERT_TRUE(cache.bind(block, config));

  int packs = 0;
  const auto pack = [&packs](double* dst) {
    ++packs;
    dst[0] = 42.0;
  };
  double* first = cache.acquire_a(0, 0, 8, 8, pack);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(packs, 1);
  EXPECT_EQ(first[0], 42.0);
  // Second acquire of the same slot: a hit, no repack, same storage.
  double* second = cache.acquire_a(0, 0, 8, 8, pack);
  EXPECT_EQ(second, first);
  EXPECT_EQ(packs, 1);
  // Distinct slots pack independently.
  ASSERT_NE(cache.acquire_b(1, 0, 8, 8, pack), nullptr);
  EXPECT_EQ(packs, 2);

  // The contention hook takes precedence over a ready slot: stride 1 makes
  // every acquire concede to private scratch, deterministically.
  set_panel_cache_contention_stride(1);
  EXPECT_EQ(cache.acquire_a(0, 0, 8, 8, pack), nullptr);
  set_panel_cache_contention_stride(0);
  EXPECT_EQ(cache.acquire_a(0, 0, 8, 8, pack), first);
}

// --- zero-fill-skip packers ------------------------------------------------

TEST(Packing, RaggedPanelsStillZeroTailLanesAfterTheSkip) {
  // The fast path skips fill work for full panels; the single ragged final
  // panel must still zero every tail lane (the microkernel reads them).
  constexpr std::int64_t kMr = MicroTile<double>::kMr;
  constexpr std::int64_t kNr = MicroTile<double>::kNr;
  const std::int64_t em = kMr + kMr - 1;  // one full + one ragged A panel
  const std::int64_t en = kNr + 3;        // one full + one ragged B panel
  const std::int64_t kc = 5;

  Matrix<double> a(em, kc);
  Matrix<double> b(kc, en);
  util::Pcg32 rng(0x2e40);
  fill_random(a, rng, 1.0, 2.0);  // strictly nonzero: stale bytes visible
  fill_random(b, rng, 1.0, 2.0);

  PanelVector<double> pa(static_cast<std::size_t>(2 * kMr * kc), -7.0);
  pack_a_matrix(a, 0, em, 0, kc, pa.data());
  for (std::int64_t k = 0; k < kc; ++k) {
    for (std::int64_t i = 0; i < 2 * kMr; ++i) {
      const double got = pa[static_cast<std::size_t>(
          (i / kMr) * kMr * kc + k * kMr + (i % kMr))];
      if (i < em) {
        EXPECT_EQ(got, a.at(i, k));
      } else {
        EXPECT_EQ(got, 0.0);  // tail lane: zeroed, not stale
      }
    }
  }

  PanelVector<double> pb(static_cast<std::size_t>(2 * kNr * kc), -7.0);
  pack_b_matrix(b, 0, kc, 0, en, pb.data());
  for (std::int64_t k = 0; k < kc; ++k) {
    for (std::int64_t j = 0; j < 2 * kNr; ++j) {
      const double got = pb[static_cast<std::size_t>(
          (j / kNr) * kNr * kc + k * kNr + (j % kNr))];
      if (j < en) {
        EXPECT_EQ(got, b.at(k, j));
      } else {
        EXPECT_EQ(got, 0.0);
      }
    }
  }
}

TEST(Packing, ZeroFillSkipKeepsUsefulMacCountsExact) {
  // MacProbe totals must stay exactly shape.macs() on a ragged GEMM with
  // the cache on and off: the skip changed where padding is written, not
  // what the kernels multiply, and cached panels carry the same padding.
  const core::GemmShape shape{65, 63, 150};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(0x3ac5);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kStreamK;
  options.grid = 5;
  options.workers = 2;
  for (const PanelCacheMode mode :
       {PanelCacheMode::kOn, PanelCacheMode::kOff}) {
    options.panel_cache = mode;
    Matrix<double> c(shape.m, shape.n);
    MacProbe::enable(true);
    gemm(a, b, c, options);
    const std::int64_t macs = MacProbe::count();
    MacProbe::enable(false);
    EXPECT_EQ(macs, shape.macs());
  }
}

// --- panel-touch cost model ----------------------------------------------

TEST(PanelCost, WindowOneEqualsTwiceTheTileCount) {
  util::Pcg32 rng(0xc057);
  for (int trial = 0; trial < 32; ++trial) {
    const auto tiles_m = static_cast<std::int64_t>(rng.uniform_below(24) + 1);
    auto tiles_n = static_cast<std::int64_t>(rng.uniform_below(24) + 1);
    if (tiles_n == tiles_m) ++tiles_n;  // non-square by construction
    for (const auto order :
         {core::TileOrder::kRowMajor, core::TileOrder::kMortonZ}) {
      // Singleton windows touch exactly one row + one column panel each.
      const core::TileOrdering ordering(order, tiles_m, tiles_n);
      EXPECT_EQ(core::panel_touch_cost(ordering, tiles_m, tiles_n, 1),
                2 * tiles_m * tiles_n);
    }
  }
}

TEST(PanelCost, CostIsMonotoneInWindow) {
  util::Pcg32 rng(0x3030);
  for (int trial = 0; trial < 16; ++trial) {
    const auto tiles_m = static_cast<std::int64_t>(rng.uniform_below(20) + 1);
    auto tiles_n = static_cast<std::int64_t>(rng.uniform_below(20) + 1);
    if (tiles_n == tiles_m) ++tiles_n;
    const std::int64_t tiles = tiles_m * tiles_n;
    for (const auto order :
         {core::TileOrder::kRowMajor, core::TileOrder::kMortonZ}) {
      const core::TileOrdering ordering(order, tiles_m, tiles_n);
      std::int64_t prev = 2 * tiles + 1;
      for (std::int64_t w = 1; w <= tiles; w *= 2) {
        const std::int64_t cost =
            core::panel_touch_cost(ordering, tiles_m, tiles_n, w);
        // Doubling the window coarsens the partition: a union of two
        // windows touches at most the sum of their distinct panels.
        EXPECT_LE(cost, prev);
        // And at least one row + one column panel per window survive.
        EXPECT_GE(cost, 2 * ((tiles + w - 1) / w));
        prev = cost;
      }
    }
  }
}

TEST(PanelCost, MortonBeatsRowMajorOnSquareGridsAtWaveWidth) {
  // A 16-tile window on a 16x16 grid: row-major sweeps a whole grid row
  // (1 row panel + 16 column panels), Morton covers a 4x4 block (4 + 4).
  const std::int64_t row_major = core::panel_touch_cost(
      core::TileOrdering(core::TileOrder::kRowMajor, 16, 16), 16, 16, 16);
  const std::int64_t morton = core::panel_touch_cost(
      core::TileOrdering(core::TileOrder::kMortonZ, 16, 16), 16, 16, 16);
  EXPECT_EQ(row_major, 16 * (1 + 16));
  EXPECT_EQ(morton, 16 * (4 + 4));
  EXPECT_LT(morton, row_major);
}

TEST(PanelCost, PlanSurfacesShareableGeometry) {
  // The compiled plan exposes the slot-grid geometry the pool binds from;
  // single-tile plans are unshareable.
  const core::GemmShape shape{192, 160, 224};
  const gpu::BlockShape block{48, 48, 16};
  const core::WorkMapping mapping(shape, block);
  const core::StreamKBasic sk(mapping, 4);
  const core::SchedulePlan plan = core::compile_plan(sk);
  const core::PanelCacheGeometry& geo = plan.panel_geometry();
  EXPECT_TRUE(geo.shareable);
  EXPECT_EQ(geo.row_panels, mapping.tiles_m());
  EXPECT_EQ(geo.col_panels, mapping.tiles_n());
  EXPECT_EQ(geo.panel_kc, plan.pack_geometry().panel_kc);
  EXPECT_GT(geo.chunks, 0);

  const core::WorkMapping single({32, 32, 64}, {48, 48, 16});
  const core::DataParallel dp(single);
  const core::SchedulePlan single_plan = core::compile_plan(dp);
  EXPECT_FALSE(single_plan.panel_geometry().shareable);
}

}  // namespace
}  // namespace streamk::cpu
