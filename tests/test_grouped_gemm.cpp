// Grouped (ragged-batch) GEMM: one Stream-K schedule across mixed shapes.
//
// The load-bearing property is bitwise equivalence against a per-problem
// submission loop: small-integer inputs make every product and partial sum
// exactly representable, so the grouped schedule -- whose CTAs freely cross
// problem boundaries and spill partial tiles through the fixup protocol --
// must reproduce the per-problem results bit for bit, for every schedule
// kind, dtype, and epilogue chain.  Degenerate-shape contracts (k == 0,
// group of one, empty group) and the grouped tuning-db key are pinned here
// too.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conv/implicit_gemm.hpp"
#include "core/grouped.hpp"
#include "cpu/batched.hpp"
#include "cpu/blas.hpp"
#include "cpu/gemm.hpp"
#include "cpu/grouped.hpp"
#include "cpu/reference.hpp"
#include "runtime/gemm_runtime.hpp"
#include "test_support.hpp"
#include "tuner/dispatch.hpp"
#include "tuner/tuning_db.hpp"
#include "util/check.hpp"

namespace streamk {
namespace {

using cpu::GemmOptions;
using cpu::Matrix;
using cpu::Schedule;
using testing::bitwise_equal;

/// Mixed shapes: ragged against every block edge, a strong-scaling deep-k
/// problem, a single-tile crumb, and a multi-tile workhorse.
std::vector<core::GemmShape> ragged_shapes() {
  return {{64, 48, 40}, {33, 17, 9}, {128, 96, 64}, {5, 5, 5}, {96, 96, 96}};
}

/// The five schedule kinds, pinned (kAuto could legally resolve the
/// grouped proxy mapping and a per-problem mapping to different kinds).
struct NamedSchedule {
  const char* label;
  Schedule schedule;
  std::int64_t grid;
  std::int64_t split;
};

std::vector<NamedSchedule> all_schedules() {
  return {{"dp", Schedule::kDataParallel, 0, 1},
          {"split2", Schedule::kFixedSplit, 0, 2},
          {"sk5", Schedule::kStreamK, 5, 1},
          {"hy1", Schedule::kHybridOneTile, 0, 1},
          {"hy2", Schedule::kHybridTwoTile, 0, 1}};
}

template <typename In, typename Out>
struct GroupOperands {
  std::vector<Matrix<In>> as, bs;
  std::vector<Matrix<Out>> cs, expected;
};

/// Builds operands for `shapes` with exactly-representable integer data and
/// `expected` = the per-problem submission loop under the same pinned
/// options (data-parallel is as good as any: with integer data every
/// schedule is bitwise-identical, which test_cpu_gemm already pins).
template <typename In, typename Out>
GroupOperands<In, Out> make_group(const std::vector<core::GemmShape>& shapes,
                                  std::uint64_t seed,
                                  const GemmOptions& options) {
  GroupOperands<In, Out> g;
  util::Pcg32 rng(seed);
  for (const core::GemmShape& s : shapes) {
    g.as.emplace_back(s.m, s.k);
    g.bs.emplace_back(s.k, s.n);
    g.cs.emplace_back(s.m, s.n);
    cpu::fill_random_int(g.as.back(), rng, -2, 2);
    cpu::fill_random_int(g.bs.back(), rng, -2, 2);
    cpu::fill_random_int(g.cs.back(), rng, -2, 2);
    g.expected.emplace_back(g.cs.back());
  }
  GemmOptions loop = options;
  loop.schedule = Schedule::kDataParallel;
  loop.grid = 0;
  loop.split = 1;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    cpu::gemm(g.as[p], g.bs[p], g.expected[p], loop);
  }
  return g;
}

template <typename In, typename Out>
void expect_group_matches(const GroupOperands<In, Out>& g) {
  for (std::size_t p = 0; p < g.cs.size(); ++p) {
    EXPECT_TRUE(bitwise_equal(g.expected[p], g.cs[p])) << "problem " << p;
  }
}

TEST(GroupedGemm, AllSchedulesMatchPerProblemLoopBitwiseFp64) {
  for (const NamedSchedule& sched : all_schedules()) {
    SCOPED_TRACE(sched.label);
    GemmOptions options{.schedule = sched.schedule,
                        .block = {32, 32, 16},
                        .grid = sched.grid,
                        .split = sched.split,
                        .workers = 3,
                        .beta = 1.0};
    auto g = make_group<double, double>(ragged_shapes(), 17, options);
    cpu::grouped_gemm<double, double, double>(g.as, g.bs, g.cs, options);
    expect_group_matches(g);
  }
}

TEST(GroupedGemm, AllSchedulesMatchPerProblemLoopBitwiseFp32) {
  for (const NamedSchedule& sched : all_schedules()) {
    SCOPED_TRACE(sched.label);
    GemmOptions options{.schedule = sched.schedule,
                        .block = {32, 32, 16},
                        .grid = sched.grid,
                        .split = sched.split,
                        .workers = 4};
    auto g = make_group<float, float>(ragged_shapes(), 29, options);
    cpu::grouped_gemm<float, float, float>(g.as, g.bs, g.cs, options);
    expect_group_matches(g);
  }
}

TEST(GroupedGemm, AllSchedulesMatchPerProblemLoopBitwiseFp16F32) {
  for (const NamedSchedule& sched : all_schedules()) {
    SCOPED_TRACE(sched.label);
    GemmOptions options{.schedule = sched.schedule,
                        .block = {32, 32, 16},
                        .grid = sched.grid,
                        .split = sched.split,
                        .workers = 3};
    auto g = make_group<util::Half, float>(ragged_shapes(), 43, options);
    cpu::grouped_gemm<util::Half, float, float>(g.as, g.bs, g.cs, options);
    expect_group_matches(g);
  }
}

TEST(GroupedGemm, OversubscribedStreamKGridSpillsAcrossProblemsAndStaysExact) {
  // Grid far beyond the tile count: nearly every CTA's segment is a tile
  // fragment, so the fixup protocol carries partials across problem
  // boundaries constantly.
  GemmOptions options{.schedule = Schedule::kStreamK,
                      .block = {32, 32, 16},
                      .grid = 48,
                      .workers = 4};
  auto g = make_group<double, double>(ragged_shapes(), 59, options);
  const cpu::GemmReport report =
      cpu::grouped_gemm<double, double, double>(g.as, g.bs, g.cs, options);
  EXPECT_EQ(report.grid, 48);
  EXPECT_GT(report.grid, report.tiles);
  EXPECT_GT(report.spills, 0);
  expect_group_matches(g);
}

TEST(GroupedGemm, GroupOfOneMatchesPlainGemmBitwise) {
  const core::GemmShape shape{96, 80, 72};
  for (const NamedSchedule& sched : all_schedules()) {
    SCOPED_TRACE(sched.label);
    const GemmOptions options{.schedule = sched.schedule,
                              .block = {32, 32, 16},
                              .grid = sched.grid,
                              .split = sched.split,
                              .workers = 3};
    util::Pcg32 rng(71);
    Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
    cpu::fill_random_int(a, rng);
    cpu::fill_random_int(b, rng);
    Matrix<double> plain(shape.m, shape.n);
    cpu::fill_value(plain, -999.0);
    cpu::gemm(a, b, plain, options);

    std::vector<Matrix<double>> as, bs, cs;
    as.emplace_back(a);
    bs.emplace_back(b);
    cs.emplace_back(shape.m, shape.n);
    cpu::fill_value(cs.back(), -999.0);
    cpu::grouped_gemm<double, double, double>(as, bs, cs, options);
    EXPECT_TRUE(bitwise_equal(plain, cs[0]));
  }
}

TEST(GroupedGemm, PerProblemEpiloguesWithResidualMatchPerProblemLoop) {
  // Each problem binds its own bias vector and residual D (exactly the case
  // batched GEMM must reject); integer data keeps bias add, residual add,
  // and ReLU exact, so grouped-vs-loop stays a bitwise comparison.
  const std::vector<core::GemmShape> shapes = ragged_shapes();
  util::Pcg32 rng(97);
  std::vector<std::vector<double>> biases;
  std::vector<Matrix<double>> residuals;
  for (const core::GemmShape& s : shapes) {
    std::vector<double> bias(static_cast<std::size_t>(s.n));
    for (double& v : bias) {
      v = static_cast<double>(rng.uniform_int(-3, 3));
    }
    biases.push_back(std::move(bias));
    residuals.emplace_back(s.m, s.n);
    cpu::fill_random_int(residuals.back(), rng, -2, 2);
  }
  std::vector<epilogue::EpilogueSpec> specs;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    epilogue::EpilogueSpec spec;
    spec.ops = {epilogue::EpilogueOp::bias_col(),
                epilogue::EpilogueOp::residual(),
                epilogue::EpilogueOp::relu()};
    spec.bias_col = biases[p];
    spec.residual = epilogue::TensorRef::of(residuals[p].data().data(),
                                            shapes[p].m, shapes[p].n);
    specs.push_back(spec);
  }

  GroupOperands<double, double> g;
  util::Pcg32 data_rng(101);
  for (const core::GemmShape& s : shapes) {
    g.as.emplace_back(s.m, s.k);
    g.bs.emplace_back(s.k, s.n);
    g.cs.emplace_back(s.m, s.n);
    cpu::fill_random_int(g.as.back(), data_rng, -2, 2);
    cpu::fill_random_int(g.bs.back(), data_rng, -2, 2);
    cpu::fill_random_int(g.cs.back(), data_rng, -2, 2);
    g.expected.emplace_back(g.cs.back());
  }
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    GemmOptions loop{.schedule = Schedule::kDataParallel,
                     .block = {32, 32, 16},
                     .workers = 3,
                     .beta = 0.5};
    loop.epilogue = specs[p];
    cpu::gemm(g.as[p], g.bs[p], g.expected[p], loop);
  }

  // Stream-K with a grid that crosses problem boundaries: the fused
  // epilogue must still fire exactly once per output element.
  const GemmOptions options{.schedule = Schedule::kStreamK,
                            .block = {32, 32, 16},
                            .grid = 7,
                            .workers = 3,
                            .beta = 0.5};
  cpu::grouped_gemm<double, double, double>(g.as, g.bs, g.cs, options, specs);
  expect_group_matches(g);
}

TEST(GroupedGemm, SharedSpecResidualRejectedForMultiProblemGroups) {
  const std::vector<core::GemmShape> shapes{{32, 32, 32}, {16, 16, 16}};
  GemmOptions options{.block = {32, 32, 16}, .workers = 2};
  Matrix<double> d(32, 32);
  options.epilogue.ops = {epilogue::EpilogueOp::residual()};
  options.epilogue.residual =
      epilogue::TensorRef::of(d.data().data(), 32, 32);
  auto g = make_group<double, double>(shapes, 3, {.block = {32, 32, 16}});
  EXPECT_THROW((cpu::grouped_gemm<double, double, double>(g.as, g.bs, g.cs,
                                                          options)),
               util::CheckError);
}

TEST(GroupedGemm, EmptyGroupAndMismatchedSpansFailWithClearMessages) {
  std::vector<Matrix<double>> empty_a, empty_b;
  std::vector<Matrix<double>> empty_c;
  try {
    cpu::grouped_gemm<double, double, double>(empty_a, empty_b, empty_c);
    FAIL() << "empty group must throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("at least one problem"),
              std::string::npos);
  }

  std::vector<Matrix<double>> as, bs;
  std::vector<Matrix<double>> cs;
  as.emplace_back(8, 8);
  bs.emplace_back(8, 8);
  bs.emplace_back(8, 8);  // one extra B
  cs.emplace_back(8, 8);
  EXPECT_THROW((cpu::grouped_gemm<double, double, double>(as, bs, cs)),
               util::CheckError);
}

TEST(GroupedGemm, KZeroProblemIsAPureBetaEpilogueUpdate) {
  // k == 0 owns one zero-extent iteration per tile, so its store (beta
  // scale + epilogue) still fires under every schedule.
  const std::vector<core::GemmShape> shapes{{64, 48, 40}, {8, 6, 0}};
  // Bindings are problem-local: a shared spec's bias must cover the widest
  // problem's columns (48 here).
  std::vector<double> bias(48);
  for (std::size_t j = 0; j < bias.size(); ++j) {
    bias[j] = static_cast<double>(j) - 2.0;
  }
  for (const NamedSchedule& sched : all_schedules()) {
    SCOPED_TRACE(sched.label);
    GemmOptions options{.schedule = sched.schedule,
                        .block = {32, 32, 16},
                        .grid = sched.grid,
                        .split = sched.split,
                        .workers = 2,
                        .beta = 0.5};
    options.epilogue.ops = {epilogue::EpilogueOp::bias_col()};
    options.epilogue.bias_col = bias;
    auto g = make_group<double, double>(shapes, 11, options);
    cpu::grouped_gemm<double, double, double>(g.as, g.bs, g.cs, options);
    expect_group_matches(g);
  }
}

TEST(GroupedGemm, PlainGemmWithKZeroAppliesBetaAndEpilogue) {
  Matrix<double> a(8, 0), b(0, 6);
  Matrix<double> c(8, 6);
  util::Pcg32 rng(5);
  cpu::fill_random_int(c, rng, -3, 3);
  const Matrix<double> c0(c);
  std::vector<double> bias{1, -1, 2, -2, 3, -3};
  GemmOptions options{.block = {32, 32, 16}, .workers = 2, .beta = 0.5};
  options.epilogue.ops = {epilogue::EpilogueOp::bias_col()};
  options.epilogue.bias_col = bias;
  cpu::gemm(a, b, c, options);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(c.at(i, j), 0.5 * c0.at(i, j) + bias[static_cast<size_t>(j)]);
    }
  }
}

TEST(GroupedGemm, BatchOfOneAndGroupOfOneMatchPlainGemmBitwise) {
  const core::GemmShape shape{48, 40, 56};
  const GemmOptions options{.schedule = Schedule::kStreamK,
                            .block = {32, 32, 16},
                            .grid = 3,
                            .workers = 2};
  util::Pcg32 rng(23);
  Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  Matrix<double> plain(shape.m, shape.n);
  cpu::gemm(a, b, plain, options);

  std::vector<Matrix<double>> as, bs;
  as.emplace_back(a);
  bs.emplace_back(b);
  std::vector<Matrix<double>> batched_c, grouped_c;
  batched_c.emplace_back(shape.m, shape.n);
  grouped_c.emplace_back(shape.m, shape.n);
  cpu::batched_gemm<double, double, double>(as, bs, batched_c, options);
  cpu::grouped_gemm<double, double, double>(as, bs, grouped_c, options);
  EXPECT_TRUE(bitwise_equal(plain, batched_c[0]));
  EXPECT_TRUE(bitwise_equal(plain, grouped_c[0]));
}

cpu::GemmReport blas_nn(const Matrix<double>& a, const Matrix<double>& b,
                        Matrix<double>& c, const GemmOptions& o) {
  return cpu::dgemm(cpu::Trans::kNone, cpu::Trans::kNone, o.alpha, a, b,
                    o.beta, c, o);
}
cpu::GemmReport blas_nn(const Matrix<float>& a, const Matrix<float>& b,
                        Matrix<float>& c, const GemmOptions& o) {
  return cpu::sgemm(cpu::Trans::kNone, cpu::Trans::kNone, o.alpha, a, b,
                    o.beta, c, o);
}
cpu::GemmReport blas_nn(const Matrix<util::Half>& a,
                        const Matrix<util::Half>& b, Matrix<float>& c,
                        const GemmOptions& o) {
  return cpu::hgemm(cpu::Trans::kNone, cpu::Trans::kNone, o.alpha, a, b,
                    o.beta, c, o);
}

/// Real-valued data, so any change of summation order would show: the four
/// GEMM-family front ends run one executor and must agree bit for bit.
template <typename In, typename Acc, typename Out>
void expect_front_ends_agree(std::uint64_t seed) {
  const core::GemmShape shape{70, 45, 90};
  util::Pcg32 rng(seed);
  Matrix<In> a(shape.m, shape.k), b(shape.k, shape.n);
  Matrix<Out> c0(shape.m, shape.n);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);
  cpu::fill_random(c0, rng);
  const std::vector<Matrix<In>> as{a}, bs{b};
  for (const NamedSchedule& s : all_schedules()) {
    SCOPED_TRACE(s.label);
    const GemmOptions options{.schedule = s.schedule,
                              .block = {32, 32, 16},
                              .grid = s.grid,
                              .split = s.split,
                              .workers = 3,
                              .alpha = 1.5,
                              .beta = -0.5};
    Matrix<Out> plain = c0;
    cpu::gemm(a, b, plain, options);
    Matrix<Out> blas = c0;
    blas_nn(a, b, blas, options);
    std::vector<Matrix<Out>> grouped{c0}, batched{c0};
    cpu::grouped_gemm<In, Acc, Out>(as, bs, grouped, options);
    cpu::batched_gemm<In, Acc, Out>(as, bs, batched, options);
    EXPECT_TRUE(bitwise_equal(plain, blas));
    EXPECT_TRUE(bitwise_equal(plain, grouped[0]));
    EXPECT_TRUE(bitwise_equal(plain, batched[0]));
  }
}

TEST(FrontEnds, GemmBlasGroupAndBatchOfOneAgreeBitwise) {
  expect_front_ends_agree<double, double, double>(101);
  expect_front_ends_agree<float, float, float>(102);
  expect_front_ends_agree<util::Half, float, float>(103);
}

TEST(FrontEnds, OutputAliasingAnInputIsRejected) {
  // C overlapping A or B used to return normally with wrong results.
  util::Pcg32 rng(17);
  Matrix<double> x(40, 40), y(40, 40);
  cpu::fill_random(x, rng);
  cpu::fill_random(y, rng);
  const GemmOptions options{.workers = 1};
  EXPECT_THROW(cpu::gemm(x, y, x, options), util::CheckError);
  EXPECT_THROW(cpu::gemm(x, y, y, options), util::CheckError);
  EXPECT_THROW(cpu::dgemm(cpu::Trans::kTranspose, cpu::Trans::kNone, 1.0, x,
                          y, 0.0, x, options),
               util::CheckError);

  // Batched / grouped: C of problem 0 is A of problem 1.
  std::vector<Matrix<double>> mats{Matrix<double>(40, 40),
                                   Matrix<double>(40, 40),
                                   Matrix<double>(40, 40)};
  const std::vector<Matrix<double>> bs{y, y};
  const std::span<const Matrix<double>> as(mats.data(), 2);
  const std::span<Matrix<double>> cs(mats.data() + 1, 2);
  EXPECT_THROW((cpu::batched_gemm<double, double, double>(as, bs, cs,
                                                          options)),
               util::CheckError);
  EXPECT_THROW((cpu::grouped_gemm<double, double, double>(as, bs, cs,
                                                          options)),
               util::CheckError);
  // Inputs may share storage (here A == B per problem); only outputs must
  // stay apart from everything.
  std::vector<Matrix<double>> outs{Matrix<double>(40, 40),
                                   Matrix<double>(40, 40)};
  EXPECT_NO_THROW((cpu::batched_gemm<double, double, double>(as, as, outs,
                                                             options)));
  EXPECT_NO_THROW((cpu::grouped_gemm<double, double, double>(as, as, outs,
                                                             options)));

  // Convolution writing over its own input: a 3x3 pad-1 conv with C == K
  // has output extents equal to the input's.
  conv::ConvShape shape;
  shape.height = 12;
  shape.width = 12;
  shape.in_channels = 16;
  shape.out_channels = 16;
  shape.filter_h = 3;
  shape.filter_w = 3;
  shape.pad = 1;
  conv::Tensor4<double> image(1, 12, 12, 16), filter(16, 3, 3, 16);
  conv::fill_random(image, rng);
  conv::fill_random(filter, rng);
  EXPECT_THROW((conv::conv_forward<double, double, double>(shape, image,
                                                           filter, image,
                                                           options)),
               util::CheckError);
}

TEST(FrontEnds, ShortOperandSpansAreRejectedBeforeIndexing) {
  // A batch whose B or C span is shorter than its A span used to read
  // past the end (a segfault, not an error).
  const std::vector<Matrix<double>> one_a{Matrix<double>(8, 8)};
  const std::vector<Matrix<double>> no_b;
  std::vector<Matrix<double>> one_c{Matrix<double>(8, 8)};
  std::vector<Matrix<double>> no_c;
  const std::vector<Matrix<double>> one_b{Matrix<double>(8, 8)};
  EXPECT_THROW((cpu::batched_gemm<double, double, double>(one_a, no_b,
                                                          one_c)),
               util::CheckError);
  EXPECT_THROW((cpu::batched_gemm<double, double, double>(one_a, one_b,
                                                          no_c)),
               util::CheckError);
  EXPECT_THROW(runtime::submit_batched_gemm(std::span(one_a),
                                            std::span(no_b),
                                            std::span(one_c))
                   .get(),
               util::CheckError);
  EXPECT_THROW((cpu::grouped_gemm<double, double, double>(one_a, no_b,
                                                          one_c)),
               util::CheckError);
  EXPECT_THROW((cpu::grouped_gemm<double, double, double>(one_a, one_b,
                                                          no_c)),
               util::CheckError);
}

/// Clears the global tuning db on entry and exit so dispatch tests cannot
/// leak records into unrelated tests (the db is process-wide).
class GroupedDispatch : public ::testing::Test {
 protected:
  void SetUp() override { tuner::global_tuning_db().clear(); }
  void TearDown() override { tuner::global_tuning_db().clear(); }
};

TEST_F(GroupedDispatch, BatchedKeysOnGroupedDigestNotTheStackedShape) {
  const core::GemmShape shape{64, 48, 40};
  const std::int64_t batch = 3;
  const std::vector<core::GemmShape> rep(static_cast<std::size_t>(batch),
                                         shape);
  auto& db = tuner::global_tuning_db();

  // The old (buggy) key: the stacked plain-GEMM shape.  A record there must
  // never reach batched dispatch -- its mapping tiles differently.
  tuner::TuningRecord stacked_record;
  stacked_record.config.kind = core::DecompositionKind::kStreamKBasic;
  stacked_record.config.block = {16, 32, 8};
  stacked_record.config.grid = 7;
  stacked_record.seconds = 0.001;
  stacked_record.gflops = 1.0;
  db.update({{batch * shape.m, shape.n, shape.k}, gpu::Precision::kFp64},
            stacked_record);

  // The correct key: the grouped digest of `batch` copies of the shape.
  tuner::TuningRecord grouped_record;
  grouped_record.config.kind = core::DecompositionKind::kFixedSplit;
  grouped_record.config.block = {32, 32, 16};
  grouped_record.config.split = 2;
  grouped_record.seconds = 0.001;
  grouped_record.gflops = 1.0;
  db.update({tuner::group_key_shape(rep), gpu::Precision::kFp64, "",
             tuner::group_digest(rep)},
            grouped_record);

  auto g = make_group<double, double>(
      std::vector<core::GemmShape>(rep.begin(), rep.end()), 31,
      {.block = {32, 32, 16}, .workers = 2});
  const cpu::GemmReport report = cpu::batched_gemm<double, double, double>(
      g.as, g.bs, g.cs, {.workers = 2});
  EXPECT_EQ(report.spec.kind, core::DecompositionKind::kFixedSplit);
  EXPECT_EQ(report.spec.split, 2);
  expect_group_matches(g);
}

TEST_F(GroupedDispatch, InfeasibleTunedRecordFallsBackToCallerOptions) {
  const core::GemmShape shape{64, 48, 40};
  const std::vector<core::GemmShape> rep(3, shape);
  auto& db = tuner::global_tuning_db();

  // split = 1000 exceeds the per-tile iteration count for every block:
  // dispatch must detect the mismatch and run the caller's request.
  tuner::TuningRecord bad;
  bad.config.kind = core::DecompositionKind::kFixedSplit;
  bad.config.block = {32, 32, 16};
  bad.config.split = 1000;
  bad.seconds = 0.001;
  bad.gflops = 1.0;
  db.update({tuner::group_key_shape(rep), gpu::Precision::kFp64, "",
             tuner::group_digest(rep)},
            bad);

  auto g = make_group<double, double>(
      std::vector<core::GemmShape>(rep.begin(), rep.end()), 37,
      {.block = {32, 32, 16}, .workers = 2});
  const cpu::GemmReport batched_report =
      cpu::batched_gemm<double, double, double>(g.as, g.bs, g.cs,
                                                {.workers = 2});
  EXPECT_FALSE(batched_report.spec.kind ==
                   core::DecompositionKind::kFixedSplit &&
               batched_report.spec.split == 1000);
  expect_group_matches(g);
}

TEST_F(GroupedDispatch, GroupedGemmDispatchesUnderTheGroupedKey) {
  const std::vector<core::GemmShape> shapes = ragged_shapes();
  auto& db = tuner::global_tuning_db();
  tuner::TuningRecord record;
  record.config.kind = core::DecompositionKind::kStreamKBasic;
  record.config.block = {32, 32, 16};
  record.config.grid = 6;
  record.seconds = 0.001;
  record.gflops = 1.0;
  db.update({tuner::group_key_shape(shapes), gpu::Precision::kFp64, "",
             tuner::group_digest(shapes)},
            record);

  auto g = make_group<double, double>(shapes, 41,
                                      {.block = {32, 32, 16}, .workers = 2});
  const cpu::GemmReport report = cpu::grouped_gemm<double, double, double>(
      g.as, g.bs, g.cs, {.workers = 2});
  EXPECT_EQ(report.spec.kind, core::DecompositionKind::kStreamKBasic);
  EXPECT_EQ(report.grid, 6);
  expect_group_matches(g);
}

}  // namespace
}  // namespace streamk
