// Tests for the GEMM-like workload substrates: batched GEMM and
// implicit-GEMM convolution on the Stream-K decomposition machinery.

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "conv/implicit_gemm.hpp"
#include "core/grouped.hpp"
#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "core/validate.hpp"
#include "cpu/batched.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "test_support.hpp"

namespace streamk {
namespace {

// ------------------------------------------------------------ batched

TEST(Batched, MappingStacksEntriesAlongM) {
  const cpu::BatchedShape batched{3, {65, 40, 50}};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping = cpu::batched_mapping(batched, block);
  // 65 -> 3 tile rows per entry, 40 -> 2 tile columns.
  EXPECT_EQ(mapping.tiles_m(), 9);
  EXPECT_EQ(mapping.tiles_n(), 2);
  EXPECT_EQ(mapping.tiles(), 18);
  EXPECT_EQ(mapping.iters_per_tile(), 4);
}

/// The batch's uniform group: `batch` copies of the entry shape.
std::vector<core::GemmShape> uniform_group(const cpu::BatchedShape& batched) {
  return std::vector<core::GemmShape>(
      static_cast<std::size_t>(batched.batch), batched.shape);
}

/// The stacked decomposition's segment streams compiled over the batch's
/// uniform group (tile numbering coincides), so any stacked schedule --
/// including the ceil-uniform Stream-K partition no grouped spec names --
/// runs through the executor batched_gemm uses.
core::SchedulePlan uniform_group_plan(const cpu::BatchedShape& batched,
                                      const gpu::BlockShape& block,
                                      const core::Decomposition& stacked) {
  const core::GroupedMapping group(uniform_group(batched), block);
  core::DecompositionSpec spec;  // names the plan; the streams are injected
  spec.kind = stacked.kind();
  spec.grid = stacked.grid_size();
  spec.sm_count = stacked.grid_size();
  return core::SchedulePlan(
      group, spec, stacked.grid_size(),
      [&](std::int64_t cta) { return stacked.cta_work(cta); });
}

TEST(Batched, UniformGroupDecodesLikeTheStackedMapping) {
  const cpu::BatchedShape batched{4, {65, 70, 30}};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping = cpu::batched_mapping(batched, block);
  const core::DataParallel dp(mapping);
  const core::SchedulePlan plan = uniform_group_plan(batched, block, dp);
  const std::int64_t tiles_m = core::ceil_div(batched.shape.m, block.m);
  ASSERT_EQ(plan.tiles(), mapping.tiles());
  for (std::int64_t t = 0; t < mapping.tiles(); ++t) {
    const core::TileRef ref = plan.tile_ref(t);
    const core::TileCoord stacked = mapping.tile_coord(t);
    EXPECT_LT(ref.problem, static_cast<std::size_t>(batched.batch));
    EXPECT_EQ(static_cast<std::int64_t>(ref.problem) * tiles_m + ref.tm,
              stacked.tm);
    EXPECT_EQ(ref.tn, stacked.tn);
  }
}

TEST(Batched, UniformGroupCompilesTheStackedSegmentStreams) {
  // batched_gemm runs a uniform group; kAuto and the tuner still reason
  // over the stacked batched_mapping.  Both must compile the same segment
  // streams for every kind, or batching would change results.
  const gpu::BlockShape block{32, 32, 16};
  for (const cpu::BatchedShape batched :
       {cpu::BatchedShape{3, {65, 40, 50}}, cpu::BatchedShape{5, {32, 96, 7}},
        cpu::BatchedShape{2, {100, 33, 200}}}) {
    const core::WorkMapping stacked = cpu::batched_mapping(batched, block);
    const core::GroupedMapping group(uniform_group(batched), block);
    std::vector<core::DecompositionSpec> specs;
    specs.push_back({.kind = core::DecompositionKind::kDataParallel});
    for (const std::int64_t s : {2, 3}) {
      specs.push_back({.kind = core::DecompositionKind::kFixedSplit,
                       .split = s});
    }
    for (const std::int64_t g : {1, 3, 7}) {
      specs.push_back({.kind = core::DecompositionKind::kStreamKBasic,
                       .grid = g});
    }
    for (const std::int64_t p : {2, 4, 6}) {
      specs.push_back({.kind = core::DecompositionKind::kHybridOneTile,
                       .sm_count = p});
      specs.push_back({.kind = core::DecompositionKind::kHybridTwoTile,
                       .sm_count = p});
    }
    for (const core::DecompositionSpec& spec : specs) {
      const core::SchedulePlan want =
          core::compile_plan(*core::make_decomposition(spec, stacked));
      const core::SchedulePlan got(group, spec);
      SCOPED_TRACE(want.name());
      ASSERT_EQ(got.grid(), want.grid());
      for (std::int64_t cta = 0; cta < want.grid(); ++cta) {
        const auto w = want.cta_segments(cta);
        const auto g = got.cta_segments(cta);
        ASSERT_EQ(w.size(), g.size()) << "cta " << cta;
        for (std::size_t i = 0; i < w.size(); ++i) {
          EXPECT_EQ(w[i].tile_idx, g[i].tile_idx);
          EXPECT_EQ(w[i].iter_begin, g[i].iter_begin);
          EXPECT_EQ(w[i].iter_end, g[i].iter_end);
          EXPECT_EQ(w[i].last, g[i].last);
        }
      }
      EXPECT_EQ(got.pack_geometry().panel_kc, want.pack_geometry().panel_kc);
    }
  }
}

TEST(Batched, AllDecompositionsMatchPerEntryReference) {
  const cpu::BatchedShape batched{3, {50, 44, 60}};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping = cpu::batched_mapping(batched, block);

  std::vector<cpu::Matrix<double>> as, bs, expected;
  util::Pcg32 rng(99);
  for (std::int64_t e = 0; e < batched.batch; ++e) {
    as.emplace_back(batched.shape.m, batched.shape.k);
    bs.emplace_back(batched.shape.k, batched.shape.n);
    cpu::fill_random_int(as.back(), rng);
    cpu::fill_random_int(bs.back(), rng);
    expected.emplace_back(batched.shape.m, batched.shape.n);
    cpu::reference_gemm<double, double, double>(as[static_cast<std::size_t>(e)],
                                                bs[static_cast<std::size_t>(e)],
                                                expected.back(), block);
  }

  for (const auto& named : testing::all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    std::vector<cpu::Matrix<double>> cs;
    for (std::int64_t e = 0; e < batched.batch; ++e) {
      cs.emplace_back(batched.shape.m, batched.shape.n);
    }
    std::vector<cpu::GemmProblem<double, double>> problems;
    for (std::size_t e = 0; e < cs.size(); ++e) {
      problems.push_back({as[e], bs[e], cs[e]});
    }
    cpu::execute_plan<double, double, double>(
        uniform_group_plan(batched, block, *named.decomposition), problems,
        {.workers = 3});
    for (std::size_t e = 0; e < cs.size(); ++e) {
      EXPECT_TRUE(testing::bitwise_equal(expected[e], cs[e]))
          << "entry " << e;
    }
  }
}

TEST(Batched, StreamKCrossesEntryBoundaries) {
  // One grid smaller than the batch: a CTA must span entries.
  const cpu::BatchedShape batched{4, {32, 32, 64}};
  const gpu::BlockShape block{32, 32, 16};
  const core::GroupedMapping group(uniform_group(batched), block);
  ASSERT_EQ(group.tiles(), 4);
  // 16 iterations over 3 CTAs.
  const core::SchedulePlan plan(
      group, {.kind = core::DecompositionKind::kStreamKBasic, .grid = 3});
  EXPECT_NO_THROW(core::validate_plan(plan));
  bool crosses = false;
  for (std::int64_t cta = 0; cta < 3; ++cta) {
    std::size_t first_entry = batched.batch;
    for (const auto& seg : plan.cta_segments(cta)) {
      const std::size_t entry = plan.tile_ref(seg.tile_idx).problem;
      if (first_entry == static_cast<std::size_t>(batched.batch)) {
        first_entry = entry;
      }
      if (entry != first_entry) crosses = true;
    }
  }
  EXPECT_TRUE(crosses);
}

TEST(Batched, AutoResolvesOverTheStackedMapping) {
  // kAuto keeps planning over the stacked mapping although the batch runs
  // as a uniform group.
  const cpu::BatchedShape batched{6, {40, 72, 96}};
  std::vector<cpu::Matrix<double>> as, bs, cs;
  for (std::int64_t e = 0; e < batched.batch; ++e) {
    as.emplace_back(batched.shape.m, batched.shape.k);
    bs.emplace_back(batched.shape.k, batched.shape.n);
    cs.emplace_back(batched.shape.m, batched.shape.n);
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const cpu::GemmOptions options{.block = {32, 32, 16}, .workers = workers};
    const cpu::GemmReport report =
        cpu::batched_gemm<double, double, double>(as, bs, cs, options);
    const core::DecompositionSpec expected = cpu::resolve_schedule(
        options, cpu::batched_mapping(batched, options.block),
        gpu::Precision::kFp64, workers);
    EXPECT_EQ(report.spec.kind, expected.kind) << "workers " << workers;
    EXPECT_EQ(report.spec.grid, expected.grid);
    EXPECT_EQ(report.spec.split, expected.split);
    EXPECT_EQ(report.spec.sm_count, expected.sm_count);
  }
}

TEST(Batched, FrontEndAutoSchedule) {
  const cpu::BatchedShape batched{5, {40, 40, 80}};
  std::vector<cpu::Matrix<float>> as, bs, cs;
  std::vector<cpu::Matrix<float>> expected;
  util::Pcg32 rng(7);
  for (std::int64_t e = 0; e < batched.batch; ++e) {
    as.emplace_back(batched.shape.m, batched.shape.k);
    bs.emplace_back(batched.shape.k, batched.shape.n);
    cs.emplace_back(batched.shape.m, batched.shape.n);
    cpu::fill_random_int(as.back(), rng, -2, 2);
    cpu::fill_random_int(bs.back(), rng, -2, 2);
    expected.emplace_back(batched.shape.m, batched.shape.n);
    cpu::naive_gemm<float, float, float>(as.back(), bs.back(),
                                         expected.back());
  }
  const cpu::GemmReport report = cpu::batched_gemm<float, float, float>(
      as, bs, cs, {.block = {32, 32, 16}, .workers = 2});
  EXPECT_GT(report.grid, 0);
  for (std::size_t e = 0; e < cs.size(); ++e) {
    EXPECT_TRUE(testing::bitwise_equal(expected[e], cs[e])) << "entry " << e;
  }
}

// ---------------------------------------------------------------- conv

TEST(ConvShape, GeometryAndGemmEquivalence) {
  conv::ConvShape conv;
  conv.batch = 2;
  conv.height = 8;
  conv.width = 10;
  conv.in_channels = 3;
  conv.out_channels = 5;
  conv.filter_h = 3;
  conv.filter_w = 3;
  conv.stride = 2;
  conv.pad = 1;
  ASSERT_TRUE(conv.valid());
  EXPECT_EQ(conv.out_h(), 4);
  EXPECT_EQ(conv.out_w(), 5);
  const core::GemmShape g = conv.gemm_shape();
  EXPECT_EQ(g.m, 2 * 4 * 5);
  EXPECT_EQ(g.n, 5);
  EXPECT_EQ(g.k, 27);
}

TEST(ConvShape, IndexDecodersRoundTrip) {
  conv::ConvShape conv;
  conv.batch = 3;
  conv.height = 6;
  conv.width = 7;
  conv.in_channels = 4;
  conv.out_channels = 2;
  conv.filter_h = 2;
  conv.filter_w = 3;
  for (std::int64_t m = 0; m < conv.gemm_shape().m; ++m) {
    const conv::OutputPixel px = conv::output_pixel(conv, m);
    EXPECT_EQ((px.n * conv.out_h() + px.p) * conv.out_w() + px.q, m);
  }
  for (std::int64_t k = 0; k < conv.gemm_shape().k; ++k) {
    const conv::FilterOffset off = conv::filter_offset(conv, k);
    EXPECT_EQ((off.r * conv.filter_w + off.s) * conv.in_channels + off.c, k);
  }
}

conv::ConvShape test_conv() {
  conv::ConvShape conv;
  conv.batch = 2;
  conv.height = 9;
  conv.width = 11;
  conv.in_channels = 5;
  conv.out_channels = 7;
  conv.filter_h = 3;
  conv.filter_w = 3;
  conv.stride = 1;
  conv.pad = 1;
  return conv;
}

TEST(Conv, ImplicitGemmMatchesDirectAcrossDecompositions) {
  const conv::ConvShape conv = test_conv();
  conv::Tensor4<double> input(conv.batch, conv.height, conv.width,
                              conv.in_channels);
  conv::Tensor4<double> filter(conv.out_channels, conv.filter_h,
                               conv.filter_w, conv.in_channels);
  util::Pcg32 rng(17);
  conv::fill_random_int(input, rng);
  conv::fill_random_int(filter, rng);

  conv::Tensor4<double> expected(conv.batch, conv.out_h(), conv.out_w(),
                                 conv.out_channels);
  conv::direct_conv<double, double, double>(conv, input, filter, expected);

  const gpu::BlockShape block{16, 16, 8};
  const core::WorkMapping mapping(conv.gemm_shape(), block);
  for (const auto& named : testing::all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    conv::Tensor4<double> out(conv.batch, conv.out_h(), conv.out_w(),
                              conv.out_channels);
    const conv::ConvProblem<double, double> problem =
        conv::conv_problem(conv, input, filter, out);
    cpu::execute_plan<double, double, double, cpu::Im2colView<const double>>(
        core::compile_plan(*named.decomposition), {&problem, 1},
        {.workers = 3});
    bool equal = true;
    for (std::size_t i = 0; i < out.data().size(); ++i) {
      if (out.data()[i] != expected.data()[i]) equal = false;
    }
    EXPECT_TRUE(equal);
  }
}

/// The explicit (NPQ x RSC) im2col matrix of `input` and the (RSC x K)
/// matrix of `filter`: the operands convolution's implicit GEMM stands for.
template <typename T>
std::pair<cpu::Matrix<T>, cpu::Matrix<T>> materialize_im2col(
    const conv::ConvShape& conv, const conv::Tensor4<T>& input,
    const conv::Tensor4<T>& filter) {
  const core::GemmShape g = conv.gemm_shape();
  cpu::Matrix<T> a(g.m, g.k);
  cpu::Matrix<T> b(g.k, g.n);
  for (std::int64_t l = 0; l < g.k; ++l) {
    const conv::FilterOffset off = conv::filter_offset(conv, l);
    for (std::int64_t m = 0; m < g.m; ++m) {
      const conv::OutputPixel px = conv::output_pixel(conv, m);
      const std::int64_t h = px.p * conv.stride - conv.pad + off.r;
      const std::int64_t w = px.q * conv.stride - conv.pad + off.s;
      const bool inside =
          h >= 0 && h < conv.height && w >= 0 && w < conv.width;
      a.at(m, l) = inside ? input.at(px.n, h, w, off.c) : T{};
    }
    for (std::int64_t k = 0; k < g.n; ++k) {
      b.at(l, k) = filter.at(k, off.r, off.s, off.c);
    }
  }
  return {std::move(a), std::move(b)};
}

template <typename T>
void expect_conv_matches_gemm_bitwise() {
  // Real-valued data, so any difference in the summation tree shows: the
  // convolution must chunk its reduction exactly as the GEMM over the
  // materialized operands does, under every schedule, worker count and
  // panel-cache mode, with a fused bias + activation.
  using cpu::Schedule;
  for (const std::int64_t stride : {1LL, 2LL}) {
    for (const std::int64_t pad : {0LL, 1LL}) {
      conv::ConvShape conv;
      conv.batch = 2;
      conv.height = 9;
      conv.width = 11;
      conv.in_channels = 13;
      conv.out_channels = 20;
      conv.filter_h = 3;
      conv.filter_w = 3;
      conv.stride = stride;
      conv.pad = pad;
      conv::Tensor4<T> input(conv.batch, conv.height, conv.width,
                             conv.in_channels);
      conv::Tensor4<T> filter(conv.out_channels, conv.filter_h, conv.filter_w,
                              conv.in_channels);
      util::Pcg32 rng(stride * 10 + pad);
      conv::fill_random(input, rng);
      conv::fill_random(filter, rng);
      const auto [a, b] = materialize_im2col(conv, input, filter);
      std::vector<double> bias;
      for (std::int64_t k = 0; k < conv.out_channels; ++k) {
        bias.push_back(rng.uniform(-1.0, 1.0));
      }

      for (const Schedule schedule :
           {Schedule::kAuto, Schedule::kDataParallel, Schedule::kFixedSplit,
            Schedule::kStreamK, Schedule::kHybridOneTile,
            Schedule::kHybridTwoTile}) {
        for (const cpu::PanelCacheMode cache :
             {cpu::PanelCacheMode::kOn, cpu::PanelCacheMode::kOff}) {
          for (const std::size_t workers : {1u, 3u}) {
            cpu::GemmOptions options{.schedule = schedule,
                                     .block = {16, 16, 8},
                                     .workers = workers};
            options.split = 3;
            options.grid = 5;
            options.panel_cache = cache;
            options.epilogue.ops = {epilogue::EpilogueOp::bias_col(),
                                    epilogue::EpilogueOp::relu()};
            options.epilogue.bias_col = bias;
            SCOPED_TRACE("stride=" + std::to_string(stride) +
                         " pad=" + std::to_string(pad) + " schedule=" +
                         std::to_string(static_cast<int>(schedule)) +
                         " cache=" + std::to_string(static_cast<int>(cache)) +
                         " workers=" + std::to_string(workers));
            conv::Tensor4<T> out(conv.batch, conv.out_h(), conv.out_w(),
                                 conv.out_channels);
            conv::conv_forward<T, T, T>(conv, input, filter, out, options);
            cpu::Matrix<T> c(a.rows(), b.cols());
            cpu::gemm(a, b, c, options);
            ASSERT_EQ(out.data().size(), c.data().size());
            EXPECT_EQ(std::memcmp(out.data().data(), c.data().data(),
                                  c.data().size() * sizeof(T)),
                      0);
          }
        }
      }
    }
  }
}

TEST(Conv, MatchesGemmOnMaterializedIm2colBitwise) {
  expect_conv_matches_gemm_bitwise<double>();
  expect_conv_matches_gemm_bitwise<float>();
}

TEST(Conv, StridedAndPaddedVariants) {
  for (const std::int64_t stride : {1LL, 2LL}) {
    for (const std::int64_t pad : {0LL, 1LL, 2LL}) {
      conv::ConvShape conv = test_conv();
      conv.stride = stride;
      conv.pad = pad;
      if (!conv.valid()) continue;
      SCOPED_TRACE("stride=" + std::to_string(stride) +
                   " pad=" + std::to_string(pad));

      conv::Tensor4<float> input(conv.batch, conv.height, conv.width,
                                 conv.in_channels);
      conv::Tensor4<float> filter(conv.out_channels, conv.filter_h,
                                  conv.filter_w, conv.in_channels);
      util::Pcg32 rng(stride * 10 + pad);
      conv::fill_random_int(input, rng, -2, 2);
      conv::fill_random_int(filter, rng, -2, 2);

      conv::Tensor4<float> expected(conv.batch, conv.out_h(), conv.out_w(),
                                    conv.out_channels);
      conv::direct_conv<float, float, float>(conv, input, filter, expected);

      conv::Tensor4<float> out(conv.batch, conv.out_h(), conv.out_w(),
                               conv.out_channels);
      const cpu::GemmReport report =
          conv::conv_forward<float, float, float>(
              conv, input, filter, out,
              {.block = {16, 16, 8}, .workers = 2});
      EXPECT_GT(report.tiles, 0);
      for (std::size_t i = 0; i < out.data().size(); ++i) {
        ASSERT_EQ(out.data()[i], expected.data()[i]) << "flat index " << i;
      }
    }
  }
}

TEST(Conv, PointwiseConvolutionIsPlainGemm) {
  // 1x1 convolution: the implicit GEMM is exactly a GEMM on reshaped
  // tensors; verify against reference_gemm.
  conv::ConvShape conv;
  conv.batch = 1;
  conv.height = 6;
  conv.width = 6;
  conv.in_channels = 8;
  conv.out_channels = 9;
  conv.filter_h = 1;
  conv.filter_w = 1;

  conv::Tensor4<double> input(1, 6, 6, 8);
  conv::Tensor4<double> filter(9, 1, 1, 8);
  util::Pcg32 rng(3);
  conv::fill_random_int(input, rng);
  conv::fill_random_int(filter, rng);

  conv::Tensor4<double> out(1, 6, 6, 9);
  conv::conv_forward<double, double, double>(conv, input, filter, out,
                                             {.block = {16, 16, 8},
                                              .workers = 2});

  // Reshape: A = (36 x 8) pixels-by-channels, B = (8 x 9) filter^T.
  cpu::Matrix<double> a(36, 8);
  cpu::Matrix<double> b(8, 9);
  for (std::int64_t m = 0; m < 36; ++m) {
    for (std::int64_t c = 0; c < 8; ++c) {
      a.at(m, c) = input.data()[static_cast<std::size_t>(m * 8 + c)];
    }
  }
  for (std::int64_t c = 0; c < 8; ++c) {
    for (std::int64_t k = 0; k < 9; ++k) {
      b.at(c, k) = filter.at(k, 0, 0, c);
    }
  }
  cpu::Matrix<double> expected(36, 9);
  cpu::reference_gemm<double, double, double>(a, b, expected, {16, 16, 8});
  for (std::int64_t m = 0; m < 36; ++m) {
    for (std::int64_t k = 0; k < 9; ++k) {
      EXPECT_EQ(out.data()[static_cast<std::size_t>(m * 9 + k)],
                expected.at(m, k));
    }
  }
}

}  // namespace
}  // namespace streamk
