// SchedulePlan compilation: the flat IR must be an exact image of the
// legacy per-CTA cta_work() derivation -- segment streams, tile contributor
// sets, spill slots, and totals -- for every decomposition kind, and the
// PlanCache must return pointer-identical plans on hits.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "core/peers.hpp"
#include "core/schedule_plan.hpp"
#include "core/validate.hpp"
#include "cpu/executor.hpp"
#include "cpu/reference.hpp"
#include "model/memory_model.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace streamk::core {
namespace {

struct LegacyTileFixup {
  std::int64_t owner = -1;
  std::vector<std::int64_t> contributors;
};

/// The pre-plan derivation, written out independently: walk every CTA's
/// cta_work() stream and scan for owners and spilling peers.
struct LegacyView {
  std::vector<CtaWork> work;               // per CTA
  std::vector<LegacyTileFixup> fixups;     // per tile
  std::vector<std::int64_t> spill_slot;    // per CTA, -1 = none
  std::int64_t spills = 0;
  std::int64_t total_iters = 0;
  std::int64_t nonempty = 0;

  explicit LegacyView(const Decomposition& d) {
    const std::int64_t grid = d.grid_size();
    const std::int64_t tiles = d.mapping().tiles();
    fixups.resize(static_cast<std::size_t>(tiles));
    spill_slot.assign(static_cast<std::size_t>(grid), -1);
    std::int64_t next_slot = 0;
    for (std::int64_t cta = 0; cta < grid; ++cta) {
      work.push_back(d.cta_work(cta));
      const CtaWork& w = work.back();
      if (!w.empty()) ++nonempty;
      for (const TileSegment& seg : w.segments) {
        total_iters += seg.iters();
        auto& fx = fixups[static_cast<std::size_t>(seg.tile_idx)];
        if (seg.starts_tile()) {
          fx.owner = cta;
        } else {
          fx.contributors.push_back(cta);
          ++spills;
          if (spill_slot[static_cast<std::size_t>(cta)] == -1) {
            spill_slot[static_cast<std::size_t>(cta)] = next_slot++;
          }
        }
      }
    }
  }
};

void expect_plan_matches_legacy(const Decomposition& d,
                                const SchedulePlan& plan) {
  const LegacyView legacy(d);
  ASSERT_EQ(plan.grid(), d.grid_size());
  EXPECT_EQ(plan.kind(), d.kind());
  EXPECT_EQ(plan.name(), d.name());

  // Segment streams, CTA by CTA.
  std::int64_t total_segments = 0;
  for (std::int64_t cta = 0; cta < plan.grid(); ++cta) {
    const auto segments = plan.cta_segments(cta);
    const auto& expected = legacy.work[static_cast<std::size_t>(cta)].segments;
    ASSERT_EQ(segments.size(), expected.size()) << "cta " << cta;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      EXPECT_EQ(segments[i].tile_idx, expected[i].tile_idx);
      EXPECT_EQ(segments[i].iter_begin, expected[i].iter_begin);
      EXPECT_EQ(segments[i].iter_end, expected[i].iter_end);
      EXPECT_EQ(segments[i].last, expected[i].last);
    }
    EXPECT_EQ(plan.cta_empty(cta), expected.empty());
    EXPECT_EQ(plan.spill_slot(cta),
              legacy.spill_slot[static_cast<std::size_t>(cta)]);
    total_segments += static_cast<std::int64_t>(segments.size());
  }
  EXPECT_EQ(plan.total_segments(), total_segments);

  // Per-tile contributor index.
  std::int64_t split_tiles = 0;
  std::int64_t max_peers = 1;
  for (std::int64_t tile = 0; tile < plan.tiles(); ++tile) {
    const auto& fx = legacy.fixups[static_cast<std::size_t>(tile)];
    EXPECT_EQ(plan.tile_owner(tile), fx.owner) << "tile " << tile;
    const auto contributors = plan.tile_contributors(tile);
    ASSERT_EQ(contributors.size(), fx.contributors.size()) << "tile " << tile;
    for (std::size_t i = 0; i < contributors.size(); ++i) {
      EXPECT_EQ(contributors[i], fx.contributors[i]);
    }
    EXPECT_EQ(plan.tile_peer_count(tile),
              1 + static_cast<std::int64_t>(fx.contributors.size()));
    if (!fx.contributors.empty()) ++split_tiles;
    max_peers = std::max(max_peers, plan.tile_peer_count(tile));
  }

  // Totals.
  EXPECT_EQ(plan.total_iters(), legacy.total_iters);
  EXPECT_EQ(plan.total_iters(), d.mapping().total_iters());
  EXPECT_EQ(plan.total_spills(), legacy.spills);
  EXPECT_EQ(plan.split_tiles(), split_tiles);
  EXPECT_EQ(plan.max_peers(), max_peers);
  EXPECT_EQ(plan.nonempty_ctas(), legacy.nonempty);
  EXPECT_EQ(plan.spill_slot_count(), legacy.spills > 0
                                         ? *std::max_element(
                                               legacy.spill_slot.begin(),
                                               legacy.spill_slot.end()) +
                                               1
                                         : 0);

  // Agreement with the surviving FixupTable and count_spills interfaces.
  const FixupTable table(plan);
  EXPECT_EQ(table.split_tiles(), plan.split_tiles());
  EXPECT_EQ(table.max_peers(), plan.max_peers());
  EXPECT_EQ(table.total_partials(), plan.total_spills());
  EXPECT_EQ(model::count_spills(plan), plan.total_spills());
}

TEST(SchedulePlan, MatchesLegacyDerivationForAllVariants) {
  for (const auto& shape : testing::interesting_shapes()) {
    for (const auto& block :
         {gpu::BlockShape{32, 32, 16}, gpu::BlockShape{48, 16, 24}}) {
      const WorkMapping mapping(shape, block);
      for (const auto& named : testing::all_decompositions(mapping)) {
        SCOPED_TRACE(shape.to_string() + " " + block.to_string() + " " +
                     named.label);
        const SchedulePlan plan = compile_plan(*named.decomposition);
        expect_plan_matches_legacy(*named.decomposition, plan);
      }
    }
  }
}

TEST(SchedulePlan, MatchesLegacyDerivationForRandomizedSpecs) {
  util::Pcg32 rng(2026);
  constexpr DecompositionKind kKinds[] = {
      DecompositionKind::kDataParallel, DecompositionKind::kFixedSplit,
      DecompositionKind::kStreamKBasic, DecompositionKind::kHybridOneTile,
      DecompositionKind::kHybridTwoTile};

  for (int trial = 0; trial < 60; ++trial) {
    const GemmShape shape{rng.uniform_int(1, 300), rng.uniform_int(1, 300),
                          rng.uniform_int(1, 400)};
    const gpu::BlockShape block{8 * rng.uniform_int(1, 8),
                                8 * rng.uniform_int(1, 8),
                                4 * rng.uniform_int(1, 6)};
    const WorkMapping mapping(shape, block);

    DecompositionSpec spec;
    spec.kind = kKinds[trial % 5];
    spec.grid = rng.uniform_int(1, 24);
    spec.split = rng.uniform_int(1, 6);
    spec.sm_count = rng.uniform_int(1, 16);
    const auto decomposition = make_decomposition(spec, mapping);

    SCOPED_TRACE(shape.to_string() + " " + block.to_string() + " " +
                 decomposition->name());
    const SchedulePlan plan = compile_plan(*decomposition);
    expect_plan_matches_legacy(*decomposition, plan);
    EXPECT_EQ(validate_plan(plan).covered_iters, mapping.total_iters());
  }
}

TEST(SchedulePlan, PinsPeerSetsForKnownStreamKCase) {
  // The paper's Figure 1 geometry (384x384x128 at 128x128x4 blocking: nine
  // tiles of 32 iterations) on a four-CTA Stream-K grid.  Each CTA takes 72
  // iterations, so the seams fall mid-tile at tiles 2, 4, and 6.
  const WorkMapping mapping({384, 384, 128}, {128, 128, 4});
  const StreamKBasic sk(mapping, 4);
  const SchedulePlan plan = compile_plan(sk);

  ASSERT_EQ(plan.tiles(), 9);
  const std::int64_t expected_owner[9] = {0, 0, 0, 1, 1, 2, 2, 3, 3};
  for (std::int64_t tile = 0; tile < 9; ++tile) {
    EXPECT_EQ(plan.tile_owner(tile), expected_owner[tile]) << "tile " << tile;
  }
  const std::map<std::int64_t, std::int64_t> expected_contributor = {
      {2, 1}, {4, 2}, {6, 3}};
  for (std::int64_t tile = 0; tile < 9; ++tile) {
    const auto contributors = plan.tile_contributors(tile);
    const auto it = expected_contributor.find(tile);
    if (it == expected_contributor.end()) {
      EXPECT_TRUE(contributors.empty()) << "tile " << tile;
    } else {
      ASSERT_EQ(contributors.size(), 1u) << "tile " << tile;
      EXPECT_EQ(contributors[0], it->second);
    }
  }
  EXPECT_EQ(plan.split_tiles(), 3);
  EXPECT_EQ(plan.max_peers(), 2);
  EXPECT_EQ(plan.total_spills(), 3);
  EXPECT_EQ(plan.spill_slot_count(), 3);
  // Spilling CTAs 1, 2, 3 get dense slots in id order; CTA 0 never spills.
  EXPECT_EQ(plan.spill_slot(0), -1);
  EXPECT_EQ(plan.spill_slot(1), 0);
  EXPECT_EQ(plan.spill_slot(2), 1);
  EXPECT_EQ(plan.spill_slot(3), 2);
  EXPECT_EQ(plan.waves(4), 1);
  EXPECT_EQ(plan.waves(2), 2);
}

TEST(SchedulePlan, ExecutorConsumesPlanDirectly) {
  const GemmShape shape{96, 80, 144};
  const WorkMapping mapping(shape, {32, 32, 16});
  const StreamKBasic sk(mapping, 5);
  const SchedulePlan plan = compile_plan(sk);

  cpu::Matrix<double> a(shape.m, shape.k);
  cpu::Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(7);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, {32, 32, 16});

  cpu::Matrix<double> via_plan(shape.m, shape.n);
  testing::execute_matrices<double, double, double>(plan, a, b, via_plan,
                                                    {.workers = 3});
  EXPECT_TRUE(testing::bitwise_equal(expected, via_plan));

  // Re-running the same compiled plan must be repeatable (workspace state is
  // rebuilt per execution).
  cpu::Matrix<double> again(shape.m, shape.n);
  testing::execute_matrices<double, double, double>(plan, a, b, again,
                                                    {.workers = 1});
  EXPECT_TRUE(testing::bitwise_equal(expected, again));
}

TEST(PlanCache, HitsArePointerIdentical) {
  PlanCache cache;
  const GemmShape shape{192, 160, 224};
  const WorkMapping mapping(shape, {32, 32, 16});
  DecompositionSpec spec;
  spec.kind = DecompositionKind::kStreamKBasic;
  spec.grid = 7;

  const PlanKey key = make_plan_key(mapping, spec, /*device_sms=*/4);
  const auto first = cache.obtain(key, mapping, spec);
  const auto second = cache.obtain(key, mapping, spec);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.lookup(key).get(), first.get());

  // A different spec compiles a different plan under a different key.
  DecompositionSpec other = spec;
  other.grid = 9;
  const PlanKey other_key = make_plan_key(mapping, other, /*device_sms=*/4);
  ASSERT_FALSE(other_key == key);
  const auto third = cache.obtain(other_key, mapping, other);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(cache.size(), 2u);

  // An unresolved Stream-K grid (grid <= 0, sm_count set) normalizes to the
  // same key as the explicit spelling.
  DecompositionSpec defaulted;
  defaulted.kind = DecompositionKind::kStreamKBasic;
  defaulted.grid = 0;
  defaulted.sm_count = 7;
  DecompositionSpec explicit_spec = defaulted;
  explicit_spec.grid = 7;
  EXPECT_TRUE(make_plan_key(mapping, defaulted, 4) ==
              make_plan_key(mapping, explicit_spec, 4));

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PlanCache, ConcurrentObtainConvergesOnOnePlan) {
  PlanCache cache;
  const GemmShape shape{128, 128, 512};
  const WorkMapping mapping(shape, {32, 32, 16});
  DecompositionSpec spec;
  spec.kind = DecompositionKind::kHybridTwoTile;
  spec.sm_count = 6;
  const PlanKey key = make_plan_key(mapping, spec, /*device_sms=*/6);

  constexpr int kThreads = 8;
  std::vector<PlanCache::PlanPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                      cache.obtain(key, mapping, spec); });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_NE(results[0], nullptr);
  for (const auto& plan : results) {
    EXPECT_EQ(plan.get(), results[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<std::uint64_t>(kThreads));
}

TEST(PlanCache, EvictsOldestBeyondCapacity) {
  PlanCache cache(/*max_plans=*/2);
  DecompositionSpec spec;
  spec.kind = DecompositionKind::kStreamKBasic;
  spec.grid = 3;

  std::vector<PlanKey> keys;
  for (std::int64_t m : {64, 96, 128}) {
    const WorkMapping mapping({m, 64, 64}, {32, 32, 16});
    const PlanKey key = make_plan_key(mapping, spec);
    cache.obtain(key, mapping, spec);
    keys.push_back(key);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(keys[0]), nullptr);  // FIFO: oldest went first
  EXPECT_NE(cache.lookup(keys[1]), nullptr);
  EXPECT_NE(cache.lookup(keys[2]), nullptr);
}

/// Two CTAs both claim tile 0 in full -- structurally unrunnable.
class DuplicateOwnerDecomposition final : public Decomposition {
 public:
  explicit DuplicateOwnerDecomposition(WorkMapping mapping)
      : Decomposition(mapping) {}
  DecompositionKind kind() const override {
    return DecompositionKind::kStreamKBasic;
  }
  std::string name() const override { return "duplicate-owner"; }
  std::int64_t grid_size() const override { return 2; }
  CtaWork cta_work(std::int64_t cta) const override {
    const std::int64_t ipt = mapping_.iters_per_tile();
    CtaWork work;
    work.segments.push_back({0, 0, ipt, true});
    if (cta == 1) {
      for (std::int64_t t = 1; t < mapping_.tiles(); ++t) {
        work.segments.push_back({t, 0, ipt, true});
      }
    }
    return work;
  }
};

TEST(SchedulePlan, UnrunnableSchedulesFailFastAtExecution) {
  const WorkMapping mapping({64, 64, 64}, {32, 32, 16});
  const DuplicateOwnerDecomposition broken(mapping);
  const SchedulePlan plan = compile_plan(broken);  // lenient compile
  EXPECT_FALSE(plan.runnable());
  EXPECT_THROW(plan.check_runnable(), util::CheckError);
  EXPECT_THROW(validate_plan(plan), util::CheckError);

  cpu::Matrix<double> a(64, 64), b(64, 64), c(64, 64);
  EXPECT_THROW(
      (testing::execute_matrices<double, double, double>(plan, a, b, c, {})),
      util::CheckError);
}

TEST(ValidatePlan, AgreesWithDecompositionValidation) {
  const WorkMapping mapping({192, 160, 224}, {32, 32, 16});
  for (const auto& named : testing::all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    const SchedulePlan plan = compile_plan(*named.decomposition);
    const CoverageReport from_plan = validate_plan(plan);
    const CoverageReport from_decomposition =
        validate_decomposition(*named.decomposition);
    EXPECT_EQ(from_plan.grid, from_decomposition.grid);
    EXPECT_EQ(from_plan.nonempty_ctas, from_decomposition.nonempty_ctas);
    EXPECT_EQ(from_plan.total_segments, from_decomposition.total_segments);
    EXPECT_EQ(from_plan.covered_iters, from_decomposition.covered_iters);
    EXPECT_EQ(from_plan.min_cta_iters, from_decomposition.min_cta_iters);
    EXPECT_EQ(from_plan.max_cta_iters, from_decomposition.max_cta_iters);
  }
}

}  // namespace
}  // namespace streamk::core
