// Tuner subsystem tests: search-space feasibility and determinism, the
// measurement loop, the persistent TuningDb (round-trip, versioning,
// merge, concurrency), tuned runtime dispatch, background find mode, and
// the EmpiricalLibrary contender.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "ensemble/heuristics.hpp"
#include "ensemble/library.hpp"
#include "model/cost_model.hpp"
#include "test_support.hpp"
#include "tuner/dispatch.hpp"
#include "tuner/search_space.hpp"
#include "tuner/tuner.hpp"
#include "tuner/tuning_db.hpp"
#include "util/check.hpp"

namespace streamk::tuner {
namespace {

const core::GemmShape kShape{96, 96, 128};

std::string temp_db_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Scoped cleanup: dispatch tests mutate process-wide tuner state.
struct GlobalTunerReset {
  ~GlobalTunerReset() {
    set_find_mode(FindMode::kOff);
    global_tuning_db().clear();
  }
};

TuningRecord make_record(core::DecompositionKind kind, gpu::BlockShape block,
                         double seconds) {
  TuningRecord record;
  record.config.kind = kind;
  record.config.block = block;
  record.config.grid = kind == core::DecompositionKind::kStreamKBasic ? 2 : 0;
  record.config.split = kind == core::DecompositionKind::kFixedSplit ? 4 : 1;
  record.config.workers = 2;
  record.seconds = seconds;
  record.gflops = 1.0 / seconds;
  return record;
}

// --- search space ----------------------------------------------------------

TEST(SearchSpace, CandidatesAreFeasibleAndFromTheMenu) {
  for (const auto precision :
       {gpu::Precision::kFp64, gpu::Precision::kFp16F32}) {
    const gpu::GpuSpec device = gpu::GpuSpec::a100_locked();
    const auto menu = tuning_block_menu(precision);
    const auto ladder = ensemble::heuristic_split_ladder();
    for (const core::GemmShape& shape : streamk::testing::interesting_shapes()) {
      for (const Candidate& candidate :
           enumerate_candidates(shape, precision, device)) {
        const TunedConfig& config = candidate.config;
        EXPECT_NE(std::find(menu.begin(), menu.end(), config.block),
                  menu.end());
        EXPECT_GT(config.workers, 0u);
        const core::WorkMapping mapping(shape, config.block);
        const std::int64_t slots =
            device.sm_count * model::occupancy(config.block, precision);
        if (config.kind == core::DecompositionKind::kStreamKBasic) {
          EXPECT_GE(config.grid, 1);
          EXPECT_LE(config.grid, slots);
          EXPECT_LE(config.grid, mapping.total_iters());
        }
        if (config.kind == core::DecompositionKind::kFixedSplit) {
          EXPECT_NE(std::find(ladder.begin(), ladder.end(), config.split),
                    ladder.end());
          EXPECT_LE(config.split, mapping.iters_per_tile());
        }
        EXPECT_GT(candidate.predicted_seconds, 0.0);
      }
    }
  }
}

TEST(SearchSpace, DeterministicOrderAndBudget) {
  const gpu::GpuSpec device = cpu::host_proxy_spec(4);
  SearchSpaceOptions options;
  options.top_k = 7;
  const auto a = search_space(kShape, gpu::Precision::kFp64, device, options);
  const auto b = search_space(kShape, gpu::Precision::kFp64, device, options);
  ASSERT_EQ(a.size(), 7u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config, b[i].config);
    EXPECT_EQ(a[i].predicted_seconds, b[i].predicted_seconds);
  }
  // Ranked ascending by model prediction.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].predicted_seconds, a[i].predicted_seconds);
  }
  // top_k = 0 is exhaustive and contains the budgeted list as a subset.
  options.top_k = 0;
  const auto all =
      search_space(kShape, gpu::Precision::kFp64, device, options);
  EXPECT_GT(all.size(), a.size());
}

TEST(SearchSpace, ExhaustiveSpaceContainsTheHeuristicChoice) {
  // The tuned contender can only lose to the heuristic through measurement
  // noise, never by construction: the heuristic's pick is in the menu.
  const gpu::GpuSpec device = gpu::GpuSpec::a100_locked();
  for (const core::GemmShape& shape : streamk::testing::interesting_shapes()) {
    const ensemble::KernelConfig pick =
        ensemble::heuristic_select(shape, gpu::Precision::kFp64, device);
    SearchSpaceOptions options;
    options.top_k = 0;
    const auto all =
        enumerate_candidates(shape, gpu::Precision::kFp64, device, options);
    const bool found = std::any_of(
        all.begin(), all.end(), [&pick](const Candidate& candidate) {
          if (candidate.config.block != pick.block) return false;
          if (pick.split > 1) {
            return candidate.config.kind ==
                       core::DecompositionKind::kFixedSplit &&
                   candidate.config.split == pick.split;
          }
          return candidate.config.kind ==
                 core::DecompositionKind::kDataParallel;
        });
    EXPECT_TRUE(found) << shape.to_string();
  }
}

// --- TunedConfig / spec mapping -------------------------------------------

TEST(TunedConfig, ToSpecCarriesOnlyTheRelevantKnobs) {
  TunedConfig config;
  config.kind = core::DecompositionKind::kStreamKBasic;
  config.grid = 7;
  config.split = 4;  // stale split must not leak into a stream-k spec
  core::DecompositionSpec spec = to_spec(config, 16);
  EXPECT_EQ(spec.kind, core::DecompositionKind::kStreamKBasic);
  EXPECT_EQ(spec.grid, 7);
  EXPECT_EQ(spec.split, 1);
  EXPECT_EQ(spec.sm_count, 16);

  config.kind = core::DecompositionKind::kFixedSplit;
  spec = to_spec(config, 16);
  EXPECT_EQ(spec.split, 4);
  EXPECT_EQ(spec.grid, 0);
}

// --- TuningDb --------------------------------------------------------------

TEST(TuningDb, UpdateKeepsTheFasterRecord) {
  TuningDb db;
  const ShapeKey key{kShape, gpu::Precision::kFp64};
  EXPECT_TRUE(db.update(
      key, make_record(core::DecompositionKind::kDataParallel, {64, 64, 16},
                       0.5)));
  // Slower: rejected.
  EXPECT_FALSE(db.update(
      key, make_record(core::DecompositionKind::kStreamKBasic, {32, 32, 16},
                       0.9)));
  EXPECT_EQ(db.lookup(key)->config.kind,
            core::DecompositionKind::kDataParallel);
  // Faster: replaces.
  EXPECT_TRUE(db.update(
      key, make_record(core::DecompositionKind::kStreamKBasic, {32, 32, 16},
                       0.1)));
  EXPECT_EQ(db.lookup(key)->config.kind,
            core::DecompositionKind::kStreamKBasic);
  EXPECT_EQ(db.size(), 1u);
}

TEST(TuningDb, MergeConvergesToElementwiseBest) {
  TuningDb a;
  TuningDb b;
  const ShapeKey shared{kShape, gpu::Precision::kFp64};
  const ShapeKey only_b{{32, 32, 32}, gpu::Precision::kFp32};
  a.update(shared, make_record(core::DecompositionKind::kDataParallel,
                               {64, 64, 16}, 0.5));
  b.update(shared, make_record(core::DecompositionKind::kStreamKBasic,
                               {32, 32, 16}, 0.2));
  b.update(only_b, make_record(core::DecompositionKind::kFixedSplit,
                               {32, 32, 16}, 0.3));
  EXPECT_EQ(a.merge(b), 2u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.lookup(shared)->seconds, 0.2);
  // Merging back the slower direction changes nothing.
  EXPECT_EQ(b.merge(a), 0u);
}

TEST(TuningDb, SaveLoadRoundTripsIdenticalDispatch) {
  TuningDb db;
  db.update({kShape, gpu::Precision::kFp64},
            make_record(core::DecompositionKind::kStreamKBasic, {64, 64, 16},
                        0.25));
  db.update({{48, 320, 128}, gpu::Precision::kFp16F32},
            make_record(core::DecompositionKind::kFixedSplit, {128, 128, 32},
                        0.125));
  db.update({{7, 201, 95}, gpu::Precision::kFp32},
            make_record(core::DecompositionKind::kHybridTwoTile, {64, 64, 16},
                        0.0625));
  const std::string path = temp_db_path("roundtrip.csv");
  db.save(path);

  TuningDb reloaded;
  EXPECT_EQ(reloaded.load(path), 3u);
  // Identical dispatch across process restart: every record equal.
  EXPECT_EQ(reloaded.snapshot(), db.snapshot());
  std::remove(path.c_str());
}

TEST(TuningDb, MergeSaveContributesWithoutLosingDiskRecords) {
  const std::string path = temp_db_path("merge_save.csv");
  const ShapeKey mine{kShape, gpu::Precision::kFp64};
  const ShapeKey theirs{{32, 32, 32}, gpu::Precision::kFp32};

  // Another process's contribution is already on disk.
  {
    TuningDb other;
    other.update(theirs, make_record(core::DecompositionKind::kDataParallel,
                                     {64, 64, 16}, 0.5));
    other.save(path);
  }

  TuningDb db;
  db.update(mine, make_record(core::DecompositionKind::kStreamKBasic,
                              {64, 64, 16}, 0.25));
  EXPECT_EQ(db.merge_save(path), 1u);  // read their record under the lock
  EXPECT_EQ(db.size(), 2u);

  // The file now holds the union.
  TuningDb reloaded;
  EXPECT_EQ(reloaded.load(path), 2u);
  EXPECT_TRUE(reloaded.lookup(mine).has_value());
  EXPECT_TRUE(reloaded.lookup(theirs).has_value());

  // merge_save on a path with no file yet just saves.
  std::remove(path.c_str());
  EXPECT_EQ(db.merge_save(path), 0u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(TuningDb, LoadRejectsUnknownVersionsAndMalformedRows) {
  const std::string path = temp_db_path("bad_version.csv");
  {
    std::ofstream out(path);
    out << "# streamk-tuning-db v999\nm,n,k\n";
  }
  TuningDb db;
  EXPECT_THROW(db.load(path), util::CheckError);

  {
    std::ofstream out(path);
    out << "# streamk-tuning-db v4\n"
        << "m,n,k,precision,epilogue,group,kind,block_m,block_n,block_k,grid,"
           "split,workers,panel_cache,seconds,gflops\n"
        << "96,96,128,fp64,,0,warp-specialized,64,64,16,0,1,0,auto,0.5,10\n";
  }
  EXPECT_THROW(db.load(path), util::CheckError);
  EXPECT_THROW(db.load(temp_db_path("does_not_exist.csv")),
               util::CheckError);
  std::remove(path.c_str());
}

TEST(TuningDb, EpilogueClassesKeyIndependentlyAndRoundTrip) {
  TuningDb db;
  const ShapeKey unfused{kShape, gpu::Precision::kFp64};
  const ShapeKey fused{kShape, gpu::Precision::kFp64, "bias_col+relu"};
  db.update(unfused, make_record(core::DecompositionKind::kDataParallel,
                                 {64, 64, 16}, 0.5));
  db.update(fused, make_record(core::DecompositionKind::kStreamKBasic,
                               {64, 64, 16}, 0.25));
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.lookup(unfused)->config.kind,
            core::DecompositionKind::kDataParallel);
  EXPECT_EQ(db.lookup(fused)->config.kind,
            core::DecompositionKind::kStreamKBasic);

  // update() canonicalizes: a non-canonical class is stored under (and
  // reachable by) the canonical key dispatch computes.
  db.update({kShape, gpu::Precision::kFp32, "clamp(0.50:1.0)"},
            make_record(core::DecompositionKind::kFixedSplit, {64, 64, 16},
                        0.75));
  EXPECT_TRUE(
      db.lookup({kShape, gpu::Precision::kFp32, "clamp(0.5:1)"}).has_value());

  const std::string path = temp_db_path("epilogue_keys.csv");
  db.save(path);
  TuningDb reloaded;
  EXPECT_EQ(reloaded.load(path), 3u);
  EXPECT_EQ(reloaded.lookup(fused)->config.kind,
            core::DecompositionKind::kStreamKBasic);
  EXPECT_EQ(reloaded.lookup(unfused)->config.kind,
            core::DecompositionKind::kDataParallel);
  std::remove(path.c_str());
}

TEST(TuningDb, LoadRejectsLegacyV1ToV3Files) {
  // Only v4 is read; the older layouts' migration readers are gone.
  const std::string path = temp_db_path("legacy.csv");
  const std::vector<std::string> legacy = {
      "# streamk-tuning-db v1\n"
      "m,n,k,precision,kind,block_m,block_n,block_k,grid,split,workers,"
      "seconds,gflops\n"
      "96,96,128,fp64,stream-k,64,64,16,2,1,2,0.5,4.7\n",
      "# streamk-tuning-db v2\n"
      "m,n,k,precision,epilogue,kind,block_m,block_n,block_k,grid,split,"
      "workers,seconds,gflops\n"
      "96,96,128,fp64,bias_col+relu,stream-k,64,64,16,2,1,2,0.5,4.7\n",
      "# streamk-tuning-db v3\n"
      "m,n,k,precision,epilogue,kind,block_m,block_n,block_k,grid,split,"
      "workers,panel_cache,seconds,gflops\n"
      "96,96,128,fp64,,stream-k,64,64,16,2,1,2,on,0.5,4.7\n"};
  for (const std::string& contents : legacy) {
    SCOPED_TRACE(contents.substr(0, contents.find('\n')));
    {
      std::ofstream out(path);
      out << contents;
    }
    TuningDb db;
    EXPECT_THROW(db.load(path), util::CheckError);
    EXPECT_EQ(db.size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(TuningDb, PanelCacheVerdictsRoundTripThroughV4Files) {
  // Each verdict survives save + load, and dispatch maps it onto the knob:
  // no verdict (-1) keeps kAuto, 0 forces kOff, 1 forces kOn.
  TuningDb db;
  for (const int verdict : {-1, 0, 1}) {
    TuningRecord record = make_record(core::DecompositionKind::kDataParallel,
                                      {64, 64, 16}, 0.25);
    record.config.panel_cache = verdict;
    db.update({{64, 64, 64 + verdict + 1}, gpu::Precision::kFp32}, record);
  }
  const std::string path = temp_db_path("verdicts.csv");
  db.save(path);
  TuningDb reloaded;
  EXPECT_EQ(reloaded.load(path), 3u);
  EXPECT_EQ(reloaded.snapshot(), db.snapshot());
  const cpu::PanelCacheMode want[] = {cpu::PanelCacheMode::kAuto,
                                      cpu::PanelCacheMode::kOff,
                                      cpu::PanelCacheMode::kOn};
  for (const int verdict : {-1, 0, 1}) {
    const auto record =
        reloaded.lookup({{64, 64, 64 + verdict + 1}, gpu::Precision::kFp32});
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->config.panel_cache, verdict);
    EXPECT_EQ(tuned_options(record->config).panel_cache, want[verdict + 1]);
  }
  std::remove(path.c_str());
}

TEST(TuningDb, GroupDigestIsOrderInsensitiveAndNeverPlain) {
  const std::vector<core::GemmShape> forward{
      {1024, 1024, 1024}, {128, 128, 128}, {64, 48, 40}};
  const std::vector<core::GemmShape> shuffled{
      {128, 128, 128}, {64, 48, 40}, {1024, 1024, 1024}};
  EXPECT_EQ(group_digest(forward), group_digest(shuffled));
  EXPECT_NE(group_digest(forward), 0u);
  // A group of one is not a plain GEMM: same schedule space, different
  // mapping arithmetic, so the keys must stay distinct.
  const std::vector<core::GemmShape> single{{1024, 1024, 1024}};
  EXPECT_NE(group_digest(single), 0u);
  // Multiplicity matters: {s} vs {s, s} balance different tile spaces.
  const std::vector<core::GemmShape> doubled{{1024, 1024, 1024},
                                             {1024, 1024, 1024}};
  EXPECT_NE(group_digest(single), group_digest(doubled));

  EXPECT_EQ(group_key_shape(forward),
            (core::GemmShape{1024 + 128 + 64, 1024 + 128 + 48,
                             1024 + 128 + 40}));
}

TEST(TuningDb, GroupedKeysRoundTripThroughV4Files) {
  const std::vector<core::GemmShape> group{{1024, 1024, 1024},
                                           {128, 128, 128}};
  const ShapeKey grouped_key{group_key_shape(group), gpu::Precision::kFp32,
                             "", group_digest(group)};
  const ShapeKey plain_key{group_key_shape(group), gpu::Precision::kFp32};
  TuningDb db;
  EXPECT_TRUE(db.update(
      grouped_key,
      make_record(core::DecompositionKind::kStreamKBasic, {64, 64, 16}, 0.5)));
  EXPECT_TRUE(db.update(
      plain_key,
      make_record(core::DecompositionKind::kDataParallel, {64, 64, 16}, 0.7)));
  ASSERT_EQ(db.size(), 2u);  // same aggregate shape, distinct keys

  const std::string path = temp_db_path("grouped_keys.csv");
  db.save(path);
  TuningDb reloaded;
  EXPECT_EQ(reloaded.load(path), 2u);
  const auto grouped = reloaded.lookup(grouped_key);
  ASSERT_TRUE(grouped.has_value());
  EXPECT_EQ(grouped->config.kind, core::DecompositionKind::kStreamKBasic);
  const auto plain = reloaded.lookup(plain_key);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->config.kind, core::DecompositionKind::kDataParallel);
  std::remove(path.c_str());
}

TEST(TuningDb, RejectsRowsWithUnknownEpilogueClass) {
  const std::string path = temp_db_path("bad_epilogue.csv");
  {
    std::ofstream out(path);
    out << "# streamk-tuning-db v4\n"
        << "m,n,k,precision,epilogue,group,kind,block_m,block_n,block_k,grid,"
           "split,workers,panel_cache,seconds,gflops\n"
        << "96,96,128,fp64,warp_fuse,0,stream-k,64,64,16,2,1,2,auto,0.5,4.7\n";
  }
  TuningDb db;
  EXPECT_THROW(db.load(path), util::CheckError);
  std::remove(path.c_str());
}

TEST(Tuner, TuneShapeForAFusedClassMeasuresTheFusedPath) {
  TuneOptions options;
  options.space.top_k = 2;
  options.space.worker_counts = {2};
  options.repetitions = 1;
  options.epilogue_class = "bias_col+gelu+row_abs_max";
  const core::GemmShape shape{64, 48, 32};
  const TuneReport report =
      tune_shape(shape, gpu::Precision::kFp32, options);
  EXPECT_EQ(report.key.epilogue, options.epilogue_class);
  EXPECT_EQ(report.key.shape, shape);

  // A parseable-but-non-canonical class is canonicalized into the key, so
  // runtime dispatch (which keys on class_key of the caller's chain) can
  // actually hit the record.
  options.epilogue_class = "clamp(1.50:2.0)";
  const TuneReport canonical =
      tune_shape({32, 32, 16}, gpu::Precision::kFp32, options);
  EXPECT_EQ(canonical.key.epilogue, "clamp(1.5:2)");
  ASSERT_EQ(report.measured.size(), 2u);
  EXPECT_GT(report.best.seconds, 0.0);
  EXPECT_LT(report.best.seconds, 1e9);
}

TEST(Dispatch, EpilogueClassSeparatesTunedWinners) {
  GlobalTunerReset reset;
  const ShapeKey fused{kShape, gpu::Precision::kFp64, "bias_col+relu"};
  global_tuning_db().update(
      fused, make_record(core::DecompositionKind::kStreamKBasic,
                         {64, 64, 16}, 0.125));

  // The fused class hits; the unfused twin and other classes miss.
  EXPECT_TRUE(tuned_dispatch(kShape, gpu::Precision::kFp64, "bias_col+relu")
                  .has_value());
  EXPECT_FALSE(tuned_dispatch(kShape, gpu::Precision::kFp64).has_value());
  EXPECT_FALSE(
      tuned_dispatch(kShape, gpu::Precision::kFp64, "relu").has_value());

  // End to end: a fused kAuto GEMM adopts the fused winner.
  cpu::Matrix<double> a(kShape.m, kShape.k);
  cpu::Matrix<double> b(kShape.k, kShape.n);
  cpu::Matrix<double> c(kShape.m, kShape.n);
  std::vector<double> bias(static_cast<std::size_t>(kShape.n), 1.0);
  cpu::GemmOptions options;
  options.epilogue.ops = {epilogue::EpilogueOp::bias_col(),
                          epilogue::EpilogueOp::relu()};
  options.epilogue.bias_col = bias;
  const cpu::GemmReport fused_report = cpu::gemm(a, b, c, options);
  EXPECT_EQ(fused_report.spec.kind, core::DecompositionKind::kStreamKBasic);
  EXPECT_EQ(fused_report.grid, 2);
}

TEST(TuningDb, ConcurrentUpdatesLookupsAndMergesAreSafe) {
  TuningDb db;
  TuningDb other;
  other.update({{64, 64, 64}, gpu::Precision::kFp64},
               make_record(core::DecompositionKind::kDataParallel,
                           {64, 64, 16}, 0.5));
  const std::string path = temp_db_path("concurrent.csv");

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, &other, t] {
      for (int i = 0; i < 200; ++i) {
        const ShapeKey key{{64 + (i % 8), 64, 64}, gpu::Precision::kFp64};
        db.update(key,
                  make_record(core::DecompositionKind::kStreamKBasic,
                              {64, 64, 16}, 1.0 / (1 + i + t)));
        db.lookup(key);
        if (i % 50 == 0) db.merge(other);
      }
    });
  }
  // A concurrent saver: readers of the file always see a full snapshot.
  threads.emplace_back([&db, &path] {
    for (int i = 0; i < 20; ++i) db.save(path);
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(db.size(), 8u);
  TuningDb reloaded;
  reloaded.load(path);  // must parse: never a torn file
  std::remove(path.c_str());
}

// --- measurement loop ------------------------------------------------------

TEST(Tuner, TuneShapeReturnsTheMeasuredMinimum) {
  TuneOptions options;
  options.repetitions = 1;
  options.space.top_k = 5;
  options.space.worker_counts = {2};
  const TuneReport report =
      tune_shape({64, 64, 96}, gpu::Precision::kFp64, options);
  ASSERT_EQ(report.measured.size(), 5u);
  double min_seconds = report.measured.front().seconds;
  for (const MeasuredCandidate& m : report.measured) {
    min_seconds = std::min(min_seconds, m.seconds);
  }
  EXPECT_EQ(report.best.seconds, min_seconds);
  const bool best_was_measured = std::any_of(
      report.measured.begin(), report.measured.end(),
      [&report](const MeasuredCandidate& m) {
        return m.config == report.best.config &&
               m.seconds == report.best.seconds;
      });
  EXPECT_TRUE(best_was_measured);
}

TEST(Tuner, TuneCorpusSkipsKeysTheDbAlreadyHolds) {
  TuningDb db;
  TuneOptions options;
  options.repetitions = 1;
  options.space.top_k = 3;
  options.space.worker_counts = {1};
  const std::vector<core::GemmShape> shapes{{64, 64, 64}, {32, 32, 96}};
  EXPECT_EQ(tune_corpus(shapes, gpu::Precision::kFp32, db, options), 2u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(tune_corpus(shapes, gpu::Precision::kFp32, db, options), 0u);
}

// --- tuned runtime dispatch ------------------------------------------------

TEST(Dispatch, DbHitOverridesTheAutoSchedule) {
  GlobalTunerReset reset;
  const core::GemmShape shape{80, 72, 64};
  TuningRecord record =
      make_record(core::DecompositionKind::kFixedSplit, {32, 32, 16}, 0.5);
  record.config.split = 2;
  record.config.workers = 1;
  global_tuning_db().update({shape, gpu::Precision::kFp64}, record);

  cpu::Matrix<double> a(shape.m, shape.k);
  cpu::Matrix<double> b(shape.k, shape.n);
  cpu::Matrix<double> c(shape.m, shape.n);
  util::Pcg32 rng(77);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);

  const cpu::GemmReport report = cpu::gemm(a, b, c, {});
  EXPECT_EQ(report.spec.kind, core::DecompositionKind::kFixedSplit);
  EXPECT_EQ(report.spec.split, 2);

  // Tuned dispatch must stay numerically correct.
  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, expected);
  EXPECT_LT(streamk::testing::max_abs_diff(c, expected), 1e-9);
}

TEST(Dispatch, CallerPinsAlwaysWin) {
  GlobalTunerReset reset;
  const core::GemmShape shape{64, 64, 48};
  global_tuning_db().update(
      {shape, gpu::Precision::kFp64},
      make_record(core::DecompositionKind::kFixedSplit, {32, 32, 16}, 0.5));

  // Explicit schedule: the db hit must not rewrite it.
  cpu::GemmOptions pinned;
  pinned.schedule = cpu::Schedule::kDataParallel;
  EXPECT_EQ(cpu::apply_tuned_dispatch(shape, gpu::Precision::kFp64, pinned)
                .schedule,
            cpu::Schedule::kDataParallel);

  // Explicit block with kAuto: also left alone.
  cpu::GemmOptions blocked;
  blocked.block = {16, 32, 8};
  const cpu::GemmOptions out =
      cpu::apply_tuned_dispatch(shape, gpu::Precision::kFp64, blocked);
  EXPECT_EQ(out.schedule, cpu::Schedule::kAuto);
  EXPECT_EQ(out.block, (gpu::BlockShape{16, 32, 8}));

  // A miss passes through unchanged.
  const cpu::GemmOptions miss = cpu::apply_tuned_dispatch(
      {63, 65, 67}, gpu::Precision::kFp64, cpu::GemmOptions{});
  EXPECT_EQ(miss.schedule, cpu::Schedule::kAuto);
  EXPECT_FALSE(miss.block.valid());
}

TEST(Dispatch, BackgroundFindModeTunesMissedShapesOnce) {
  GlobalTunerReset reset;
  TuneOptions fast;
  fast.repetitions = 1;
  fast.space.top_k = 3;
  fast.space.worker_counts = {1};
  set_find_options(fast);
  set_find_mode(FindMode::kBackground);

  const core::GemmShape shape{72, 56, 80};
  const ShapeKey key{shape, gpu::Precision::kFp64};
  ASSERT_FALSE(global_tuning_db().lookup(key).has_value());

  cpu::Matrix<double> a(shape.m, shape.k);
  cpu::Matrix<double> b(shape.k, shape.n);
  cpu::Matrix<double> c(shape.m, shape.n);
  util::Pcg32 rng(5);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);

  // A burst of misses for one shape enqueues exactly one find job; the
  // calls themselves are served heuristically and correctly meanwhile.
  for (int i = 0; i < 4; ++i) cpu::gemm(a, b, c, {});
  wait_for_find_jobs();
  EXPECT_EQ(find_jobs_in_flight(), 0u);

  const auto tuned = global_tuning_db().lookup(key);
  ASSERT_TRUE(tuned.has_value());

  // Subsequent traffic dispatches the tuned config.
  const cpu::GemmReport report = cpu::gemm(a, b, c, {});
  EXPECT_EQ(report.spec.kind, tuned->config.kind);

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, expected);
  EXPECT_LT(streamk::testing::max_abs_diff(c, expected), 1e-9);
}

// --- EmpiricalLibrary ------------------------------------------------------

TEST(EmpiricalLibrary, FindsPersistsAndRedispatchesFromItsDb) {
  const ensemble::EmpiricalLibrary library(gpu::GpuSpec::a100_locked(),
                                           gpu::Precision::kFp64, 8);
  const core::GemmShape shape{4096, 4096, 256};
  const ensemble::GemmMeasurement first = library.run(shape);
  EXPECT_EQ(library.db().size(), 1u);
  const auto record =
      library.db().lookup({shape, gpu::Precision::kFp64});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->seconds, first.estimate.seconds);

  // The replay dispatches the stored config and reproduces the estimate.
  const ensemble::GemmMeasurement replay = library.run(shape);
  EXPECT_EQ(replay.estimate.seconds, first.estimate.seconds);
  EXPECT_EQ(replay.kernel_name, first.kernel_name);
  EXPECT_EQ(library.db().size(), 1u);
}

TEST(EmpiricalLibrary, ExhaustiveSearchIsNoWorseThanTheHeuristicContender) {
  const gpu::GpuSpec device = gpu::GpuSpec::a100_locked();
  const ensemble::EmpiricalLibrary empirical(device, gpu::Precision::kFp64,
                                             /*search_budget=*/0);
  const ensemble::HeuristicLibrary heuristic(device, gpu::Precision::kFp64);
  for (const core::GemmShape shape :
       {core::GemmShape{4096, 4096, 256}, core::GemmShape{512, 512, 4096},
        core::GemmShape{8192, 128, 1024}}) {
    EXPECT_LE(empirical.run(shape).estimate.seconds,
              heuristic.run(shape).estimate.seconds)
        << shape.to_string();
  }
}

}  // namespace
}  // namespace streamk::tuner
