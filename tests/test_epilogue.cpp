// The fused epilogue subsystem (src/epilogue/) and its load-bearing
// invariant: a chain fires *exactly once per output element*, only after
// the owning CTA has reduced every peer's partials -- under all five
// schedule kinds, adversarial Stream-K splits, and oversubscribed worker
// counts.  Verification is MacProbe-style counting (EpilogueProbe tracks
// per-element application counts) plus comparison against an
// independently-applied reference; small-integer fills keep the GEMM sums
// exact so the comparisons are bitwise wherever the chain math is
// deterministic.
//
// Also covered: the class-key round trip the tuner's database key relies
// on, per-substrate binding rules (batched rejects residual, conv rejects
// row-indexed ops), the fused-vs-two-pass equivalence bench_epilogue
// times, and the per-plan compiled-epilogue memo on core::SchedulePlan.

#include <gtest/gtest.h>

#include <cmath>

#include "conv/implicit_gemm.hpp"
#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/batched.hpp"
#include "cpu/blas.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "epilogue/apply.hpp"
#include "runtime/gemm_runtime.hpp"
#include "test_support.hpp"

namespace streamk {
namespace {

using cpu::Matrix;
using epilogue::EpilogueOp;
using epilogue::EpiloguePlan;
using epilogue::EpilogueProbe;
using epilogue::EpilogueSpec;
using epilogue::TensorRef;
using testing::all_decompositions;
using testing::max_abs_diff;

/// Owning storage behind an EpilogueSpec for tests: bias vectors, residual
/// matrix, and reduction outputs, all sized for an m x n output.
template <typename Out>
struct Bindings {
  std::vector<double> bias_row;
  std::vector<double> bias_col;
  std::vector<double> row_abs_max;
  std::vector<double> row_sum;
  Matrix<Out> residual;

  Bindings(std::int64_t m, std::int64_t n, util::Pcg32& rng)
      : residual(m, n) {
    for (std::int64_t i = 0; i < m; ++i) {
      bias_row.push_back(static_cast<double>(rng.uniform_int(-3, 3)));
    }
    for (std::int64_t j = 0; j < n; ++j) {
      bias_col.push_back(static_cast<double>(rng.uniform_int(-3, 3)));
    }
    row_abs_max.assign(static_cast<std::size_t>(m), 0.0);
    row_sum.assign(static_cast<std::size_t>(m), 0.0);
    cpu::fill_random_int(residual, rng);
  }

  EpilogueSpec spec(std::vector<EpilogueOp> ops) {
    EpilogueSpec s;
    s.ops = std::move(ops);
    s.bias_row = bias_row;
    s.bias_col = bias_col;
    s.row_abs_max = row_abs_max;
    s.row_sum = row_sum;
    s.residual = TensorRef::of(residual.data().data(), residual.rows(),
                               residual.cols());
    return s;
  }

  void reset_reductions() {
    std::fill(row_abs_max.begin(), row_abs_max.end(), 0.0);
    std::fill(row_sum.begin(), row_sum.end(), 0.0);
  }
};

/// A randomized chain of 1-4 ops drawn from the full menu.  Reductions and
/// nonlinearities are deliberately frequent: they are the ops a
/// double-application or partial-accumulator application would corrupt.
std::vector<EpilogueOp> random_chain(util::Pcg32& rng) {
  const std::vector<EpilogueOp> menu = {
      EpilogueOp::bias_row(),    EpilogueOp::bias_col(),
      EpilogueOp::relu(),        EpilogueOp::gelu(),
      EpilogueOp::sigmoid(),     EpilogueOp::clamp(-2.0, 5.0),
      EpilogueOp::residual(),    EpilogueOp::row_abs_max(),
      EpilogueOp::row_sum()};
  const std::int64_t count = rng.uniform_int(1, 4);
  std::vector<EpilogueOp> ops;
  for (std::int64_t i = 0; i < count; ++i) {
    ops.push_back(
        menu[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(menu.size()) - 1))]);
  }
  return ops;
}

/// Serial reference: scale + chain applied to the naive product, through
/// the same scalar applier the fused path uses (semantics of individual
/// ops are pinned by the handwritten tests below).
template <typename Acc, typename Out>
Matrix<Out> reference_epilogue(const Matrix<Acc>& product,
                               const Matrix<Out>& c_in, double alpha,
                               double beta, const EpiloguePlan& plan,
                               const EpilogueSpec& spec) {
  Matrix<Out> out(c_in.rows(), c_in.cols());
  for (std::int64_t i = 0; i < c_in.rows(); ++i) {
    for (std::int64_t j = 0; j < c_in.cols(); ++j) out.at(i, j) = c_in.at(i, j);
  }
  for (std::int64_t i = 0; i < c_in.rows(); ++i) {
    epilogue::apply_row<Acc, Out>(plan, spec, alpha, beta, i, 0, c_in.cols(),
                                  c_in.cols(), product.row_ptr(i),
                                  out.row_ptr(i));
  }
  return out;
}

// --- the tentpole invariant ------------------------------------------------

TEST(EpilogueOncePerElement, Fp64AllKindsAdversarialSplits) {
  const core::GemmShape shape{97, 83, 57};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping(shape, block);

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(2026);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  Matrix<double> product(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, product);

  Matrix<double> c0(shape.m, shape.n);
  cpu::fill_random_int(c0, rng);

  Bindings<double> bindings(shape.m, shape.n, rng);
  util::Pcg32 chain_rng(7);

  for (const auto& named : all_decompositions(mapping)) {
    SCOPED_TRACE(named.label);
    const core::SchedulePlan plan = core::compile_plan(*named.decomposition);
    const EpilogueSpec spec = bindings.spec(random_chain(chain_rng));
    const auto eplan = plan.epilogue_plan(spec);

    // Reference reductions first (on fresh accumulators).
    bindings.reset_reductions();
    const Matrix<double> expected = reference_epilogue<double, double>(
        product, c0, 1.0, 1.0, *eplan, spec);
    std::vector<double> want_abs_max = bindings.row_abs_max;
    std::vector<double> want_sum = bindings.row_sum;

    bindings.reset_reductions();
    Matrix<double> c(shape.m, shape.n);
    for (std::int64_t i = 0; i < shape.m; ++i) {
      for (std::int64_t j = 0; j < shape.n; ++j) c.at(i, j) = c0.at(i, j);
    }

    cpu::ExecutorOptions options;
    options.workers = 4;
    options.beta = 1.0;
    options.epilogue = spec;
    EpilogueProbe::begin(shape.m * shape.n);
    testing::execute_matrices<double, double, double>(plan, a, b, c, options);
    EpilogueProbe::end();

    // Exactly once per element: no element skipped, none double-applied,
    // and -- because spill paths store raw accumulators -- no nonlinear op
    // ever saw a partial sum (the value comparison would catch it).
    EXPECT_TRUE(EpilogueProbe::all_exactly_once());
    EXPECT_EQ(EpilogueProbe::total(), shape.m * shape.n);
    EXPECT_LE(max_abs_diff(expected, c), 0.0);
    for (std::int64_t i = 0; i < shape.m; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      // max is order-insensitive (exact); the sum's tile-merge order is
      // not, so transcendental chains may differ in the last bits.
      EXPECT_EQ(want_abs_max[idx], bindings.row_abs_max[idx]);
      EXPECT_NEAR(want_sum[idx], bindings.row_sum[idx],
                  1e-9 * (1.0 + std::abs(want_sum[idx])));
    }
  }
}

TEST(EpilogueOncePerElement, Fp16SpillingStreamKOversubscribed) {
  const core::GemmShape shape{65, 63, 129};
  const gpu::BlockShape block{32, 32, 16};
  const core::WorkMapping mapping(shape, block);

  Matrix<util::Half> a(shape.m, shape.k);
  Matrix<util::Half> b(shape.k, shape.n);
  util::Pcg32 rng(11);
  cpu::fill_random_int(a, rng, -2, 2);
  cpu::fill_random_int(b, rng, -2, 2);

  Matrix<float> product(shape.m, shape.n);
  cpu::naive_gemm<util::Half, float, float>(a, b, product);

  Bindings<float> bindings(shape.m, shape.n, rng);
  const std::vector<EpilogueOp> chain = {
      EpilogueOp::bias_col(), EpilogueOp::gelu(), EpilogueOp::row_abs_max()};

  // Grids chosen to force heavy splitting: every CTA but the last spills
  // (grid much larger than tiles), plus the classic one-extra-CTA seam.
  for (const std::int64_t grid : {4LL, 7LL, 16LL, 24LL}) {
    SCOPED_TRACE("grid=" + std::to_string(grid));
    const core::StreamKBasic decomposition(mapping, grid);
    const core::SchedulePlan plan = core::compile_plan(decomposition);
    ASSERT_GT(plan.total_spills(), 0);

    const EpilogueSpec spec = bindings.spec(chain);
    const auto eplan = plan.epilogue_plan(spec);
    bindings.reset_reductions();
    Matrix<float> zero(shape.m, shape.n);
    const Matrix<float> expected = reference_epilogue<float, float>(
        product, zero, 1.0, 0.0, *eplan, spec);

    bindings.reset_reductions();
    Matrix<float> c(shape.m, shape.n);
    cpu::ExecutorOptions options;
    options.workers = 8;  // oversubscribes the spilling seams
    options.epilogue = spec;
    EpilogueProbe::begin(shape.m * shape.n);
    testing::execute_matrices<util::Half, float, float>(plan, a, b, c,
                                                        options);
    EpilogueProbe::end();

    EXPECT_TRUE(EpilogueProbe::all_exactly_once());
    // Integer-exact sums + identical scalar chain math: tolerance only
    // guards against float transcendental library differences.
    EXPECT_LE(max_abs_diff(expected, c), 1e-5);
  }
}

// --- individual op semantics (handwritten, independent of apply_row) -------

TEST(EpilogueOps, BiasActivationResidualAgainstHandwritten) {
  const core::GemmShape shape{33, 21, 17};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(5);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);
  Matrix<double> product(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, product);

  Bindings<double> bindings(shape.m, shape.n, rng);
  const double alpha = 0.5;

  Matrix<double> c(shape.m, shape.n);
  cpu::GemmOptions options;
  options.alpha = alpha;
  options.epilogue = bindings.spec({EpilogueOp::bias_row(),
                                    EpilogueOp::bias_col(),
                                    EpilogueOp::residual(),
                                    EpilogueOp::relu()});
  cpu::gemm(a, b, c, options);

  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      const double v = alpha * product.at(i, j) +
                       bindings.bias_row[static_cast<std::size_t>(i)] +
                       bindings.bias_col[static_cast<std::size_t>(j)] +
                       bindings.residual.at(i, j);
      const double want = v > 0.0 ? v : 0.0;
      EXPECT_NEAR(want, c.at(i, j), 1e-12) << i << "," << j;
    }
  }
}

TEST(EpilogueOps, ClampSigmoidGeluFormulas) {
  const core::GemmShape shape{16, 16, 8};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(17);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);
  Matrix<double> product(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, product);

  Matrix<double> c(shape.m, shape.n);
  cpu::GemmOptions options;
  options.epilogue.ops = {EpilogueOp::gelu(), EpilogueOp::sigmoid(),
                          EpilogueOp::clamp(0.45, 0.55)};
  cpu::gemm(a, b, c, options);

  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      const double x = product.at(i, j);
      const double g =
          0.5 * x *
          (1.0 + std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)));
      const double s = 1.0 / (1.0 + std::exp(-g));
      const double want = std::min(std::max(s, 0.45), 0.55);
      EXPECT_NEAR(want, c.at(i, j), 1e-12);
    }
  }
}

TEST(EpilogueOps, RowReductionsQuantCalibration) {
  const core::GemmShape shape{37, 29, 23};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(23);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  Matrix<double> product(shape.m, shape.n);
  cpu::naive_gemm<double, double, double>(a, b, product);

  Bindings<double> bindings(shape.m, shape.n, rng);
  Matrix<double> c(shape.m, shape.n);
  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;  // reductions across fixup
  options.grid = 5;
  options.epilogue =
      bindings.spec({EpilogueOp::row_abs_max(), EpilogueOp::row_sum()});
  cpu::gemm(a, b, c, options);

  for (std::int64_t i = 0; i < shape.m; ++i) {
    double want_max = 0.0;
    double want_sum = 0.0;
    for (std::int64_t j = 0; j < shape.n; ++j) {
      want_max = std::max(want_max, std::abs(product.at(i, j)));
      want_sum += product.at(i, j);
    }
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(want_max, bindings.row_abs_max[idx]);
    EXPECT_EQ(want_sum, bindings.row_sum[idx]);
  }
}

// --- substrates ------------------------------------------------------------

TEST(EpilogueSubstrates, DgemmTransposedFusedChain) {
  const core::GemmShape shape{45, 37, 29};
  Matrix<double> at(shape.k, shape.m);  // stored transposed
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(31);
  cpu::fill_random_int(at, rng);
  cpu::fill_random_int(b, rng);

  // Handwritten op(A).B product.
  Matrix<double> product(shape.m, shape.n);
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      double sum = 0.0;
      for (std::int64_t l = 0; l < shape.k; ++l) {
        sum += at.at(l, i) * b.at(l, j);
      }
      product.at(i, j) = sum;
    }
  }

  Bindings<double> bindings(shape.m, shape.n, rng);
  Matrix<double> c(shape.m, shape.n);
  cpu::fill_random_int(c, rng);
  Matrix<double> c0(shape.m, shape.n);
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) c0.at(i, j) = c.at(i, j);
  }

  cpu::GemmOptions options;
  options.epilogue = bindings.spec({EpilogueOp::bias_col(),
                                    EpilogueOp::relu()});
  cpu::dgemm(cpu::Trans::kTranspose, cpu::Trans::kNone, 2.0, at, b, 1.0, c,
             options);

  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      const double v = 2.0 * product.at(i, j) + c0.at(i, j) +
                       bindings.bias_col[static_cast<std::size_t>(j)];
      EXPECT_EQ(v > 0.0 ? v : 0.0, c.at(i, j));
    }
  }
}

TEST(EpilogueSubstrates, BatchedStackedRowBindings) {
  const std::int64_t batch = 3;
  const core::GemmShape shape{40, 24, 16};
  util::Pcg32 rng(41);
  std::vector<Matrix<double>> as, bs, cs;
  for (std::int64_t e = 0; e < batch; ++e) {
    as.emplace_back(shape.m, shape.k);
    bs.emplace_back(shape.k, shape.n);
    cs.emplace_back(shape.m, shape.n);
    cpu::fill_random_int(as.back(), rng);
    cpu::fill_random_int(bs.back(), rng);
  }

  // Stacked row-indexed bindings: row batch*m of the virtual problem.
  Bindings<double> bindings(batch * shape.m, shape.n, rng);
  cpu::GemmOptions options;
  options.epilogue = bindings.spec({EpilogueOp::bias_row(),
                                    EpilogueOp::row_sum()});
  options.epilogue.residual = {};  // not bound: unsupported for batched
  cpu::batched_gemm<double, double, double>(as, bs, cs, options);

  for (std::int64_t e = 0; e < batch; ++e) {
    Matrix<double> product(shape.m, shape.n);
    cpu::naive_gemm<double, double, double>(as[static_cast<std::size_t>(e)],
                                            bs[static_cast<std::size_t>(e)],
                                            product);
    for (std::int64_t i = 0; i < shape.m; ++i) {
      const auto stacked = static_cast<std::size_t>(e * shape.m + i);
      double want_sum = 0.0;
      for (std::int64_t j = 0; j < shape.n; ++j) {
        const double want = product.at(i, j) + bindings.bias_row[stacked];
        EXPECT_EQ(want, cs[static_cast<std::size_t>(e)].at(i, j));
        want_sum += want;
      }
      EXPECT_EQ(want_sum, bindings.row_sum[stacked]);
    }
  }
}

TEST(EpilogueSubstrates, ConvFusedBiasReluMatchesDirect) {
  conv::ConvShape shape;
  shape.batch = 2;
  shape.height = 9;
  shape.width = 9;
  shape.in_channels = 5;
  shape.out_channels = 12;
  shape.filter_h = 3;
  shape.filter_w = 3;
  shape.stride = 1;
  shape.pad = 1;

  conv::Tensor4<float> input(shape.batch, shape.height, shape.width,
                             shape.in_channels);
  conv::Tensor4<float> filter(shape.out_channels, shape.filter_h,
                              shape.filter_w, shape.in_channels);
  util::Pcg32 rng(53);
  conv::fill_random_int(input, rng);
  conv::fill_random_int(filter, rng);

  std::vector<double> bias;
  for (std::int64_t k = 0; k < shape.out_channels; ++k) {
    bias.push_back(static_cast<double>(rng.uniform_int(-2, 2)));
  }

  conv::Tensor4<float> expected(shape.batch, shape.out_h(), shape.out_w(),
                                shape.out_channels);
  conv::direct_conv<float, float, float>(shape, input, filter, expected);
  for (std::int64_t n = 0; n < shape.batch; ++n) {
    for (std::int64_t p = 0; p < shape.out_h(); ++p) {
      for (std::int64_t q = 0; q < shape.out_w(); ++q) {
        for (std::int64_t k = 0; k < shape.out_channels; ++k) {
          const float v =
              expected.at(n, p, q, k) +
              static_cast<float>(bias[static_cast<std::size_t>(k)]);
          expected.at(n, p, q, k) = v > 0.0f ? v : 0.0f;
        }
      }
    }
  }

  conv::Tensor4<float> output(shape.batch, shape.out_h(), shape.out_w(),
                              shape.out_channels);
  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;
  options.grid = 6;
  options.epilogue.ops = {EpilogueOp::bias_col(), EpilogueOp::relu()};
  options.epilogue.bias_col = bias;
  conv::conv_forward<float, float, float>(shape, input, filter, output,
                                          options);

  for (std::size_t i = 0; i < output.data().size(); ++i) {
    EXPECT_EQ(expected.data()[i], output.data()[i]);
  }
}

TEST(EpilogueSubstrates, AsyncSubmissionCarriesChain) {
  const core::GemmShape shape{48, 32, 24};
  Matrix<float> a(shape.m, shape.k);
  Matrix<float> b(shape.k, shape.n);
  Matrix<float> c(shape.m, shape.n);
  util::Pcg32 rng(61);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  cpu::GemmOptions options;
  options.epilogue.ops = {EpilogueOp::relu()};
  runtime::GemmHandle handle = runtime::submit_gemm(a, b, c, options);
  handle.get();

  Matrix<float> product(shape.m, shape.n);
  cpu::naive_gemm<float, float, float>(a, b, product);
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      EXPECT_EQ(std::max(product.at(i, j), 0.0f), c.at(i, j));
    }
  }
}

// --- rejection / validation ------------------------------------------------

TEST(EpilogueValidation, MissingBindingsThrow) {
  const core::GemmShape shape{32, 32, 16};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  Matrix<double> c(shape.m, shape.n);

  cpu::GemmOptions options;
  options.epilogue.ops = {EpilogueOp::bias_col()};  // no bias_col bound
  EXPECT_THROW(cpu::gemm(a, b, c, options), util::CheckError);

  options.epilogue.ops = {EpilogueOp::residual()};
  EXPECT_THROW(cpu::gemm(a, b, c, options), util::CheckError);

  // Residual element type must match the output matrix.
  std::vector<float> wrong(static_cast<std::size_t>(shape.m * shape.n));
  options.epilogue.residual =
      TensorRef::of(wrong.data(), shape.m, shape.n);
  EXPECT_THROW(cpu::gemm(a, b, c, options), util::CheckError);

  EXPECT_THROW(epilogue::EpiloguePlan({EpilogueOp::clamp(2.0, -2.0)}),
               util::CheckError);
}

TEST(EpilogueValidation, SubstrateRestrictions) {
  // Batched: residual rejected.
  const core::GemmShape shape{32, 32, 16};
  std::vector<Matrix<double>> as(1, Matrix<double>(shape.m, shape.k));
  std::vector<Matrix<double>> bs(1, Matrix<double>(shape.k, shape.n));
  std::vector<Matrix<double>> cs(1, Matrix<double>(shape.m, shape.n));
  Matrix<double> d(shape.m, shape.n);
  cpu::GemmOptions options;
  options.epilogue.ops = {EpilogueOp::residual()};
  options.epilogue.residual =
      TensorRef::of(d.data().data(), shape.m, shape.n);
  EXPECT_THROW(
      (cpu::batched_gemm<double, double, double>(as, bs, cs, options)),
      util::CheckError);

  // Conv: row-indexed ops rejected.
  conv::ConvShape conv;
  conv.batch = 1;
  conv.height = 6;
  conv.width = 6;
  conv.in_channels = 4;
  conv.out_channels = 8;
  conv.filter_h = 3;
  conv.filter_w = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv::Tensor4<double> input(1, 6, 6, 4);
  conv::Tensor4<double> filter(8, 3, 3, 4);
  conv::Tensor4<double> output(1, 6, 6, 8);
  cpu::GemmOptions conv_options;
  std::vector<double> bias_rows(static_cast<std::size_t>(36), 0.0);
  conv_options.epilogue.ops = {EpilogueOp::bias_row()};
  conv_options.epilogue.bias_row = bias_rows;
  EXPECT_THROW((conv::conv_forward<double, double, double>(
                   conv, input, filter, output, conv_options)),
               util::CheckError);
}

// --- class keys and the plan memo ------------------------------------------

TEST(EpilogueClassKey, RoundTripsAndCanonicalizes) {
  const std::vector<EpilogueOp> ops = {
      EpilogueOp::bias_col(), EpilogueOp::clamp(-1.5, 2.25),
      EpilogueOp::gelu(), EpilogueOp::row_abs_max()};
  const std::string key = epilogue::class_key(ops);
  EXPECT_EQ("bias_col+clamp(-1.5:2.25)+gelu+row_abs_max", key);
  EXPECT_EQ(ops, epilogue::parse_class_key(key));

  // Scalar immediates may carry to_chars exponents whose '+' must not be
  // mistaken for an op separator.
  const std::vector<EpilogueOp> extreme = {EpilogueOp::clamp(-1e30, 1e+30),
                                           EpilogueOp::relu()};
  const std::string extreme_key = epilogue::class_key(extreme);
  EXPECT_EQ("clamp(-1e+30:1e+30)+relu", extreme_key);
  EXPECT_EQ(extreme, epilogue::parse_class_key(extreme_key));

  EXPECT_EQ("", epilogue::class_key({}));
  EXPECT_TRUE(epilogue::parse_class_key("").empty());
  EXPECT_THROW(epilogue::parse_class_key("warp_shuffle"), util::CheckError);
  EXPECT_THROW(epilogue::parse_class_key("relu++gelu"), util::CheckError);
  EXPECT_THROW(epilogue::parse_class_key("relu+"), util::CheckError);
  // No commas ever: the key embeds in the tuning db's CSV rows.
  EXPECT_EQ(std::string::npos, key.find(','));
}

TEST(EpilogueClassKey, SchedulePlanMemoizesCompiledChains) {
  const core::WorkMapping mapping({64, 64, 32}, {32, 32, 16});
  const core::StreamKBasic decomposition(mapping, 3);
  const core::SchedulePlan plan = core::compile_plan(decomposition);

  EpilogueSpec spec;
  spec.ops = {EpilogueOp::relu(), EpilogueOp::row_sum()};
  std::vector<double> sums(64, 0.0);
  spec.row_sum = sums;
  const auto first = plan.epilogue_plan(spec);
  EpilogueSpec again;  // same structure, different bindings
  again.ops = spec.ops;
  const auto second = plan.epilogue_plan(again);
  EXPECT_EQ(first.get(), second.get());  // memo hit: pointer-identical
  EXPECT_EQ("relu+row_sum", first->class_key());

  EpilogueSpec empty;
  EXPECT_EQ(epilogue::identity_plan().get(),
            plan.epilogue_plan(empty).get());
}

// --- fused == two-pass ------------------------------------------------------

TEST(EpilogueTwoPass, FusedMatchesGemmPlusElementwiseSweep) {
  const core::GemmShape shape{77, 53, 41};
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  util::Pcg32 rng(71);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  Bindings<double> bindings(shape.m, shape.n, rng);
  const std::vector<EpilogueOp> chain = {EpilogueOp::bias_col(),
                                         EpilogueOp::gelu()};

  Matrix<double> fused(shape.m, shape.n);
  cpu::GemmOptions options;
  options.epilogue = bindings.spec(chain);
  cpu::gemm(a, b, fused, options);

  // Two-pass equivalent: unfused GEMM, then the chain as a second sweep.
  Matrix<double> two_pass(shape.m, shape.n);
  cpu::gemm(a, b, two_pass, {});
  EpilogueSpec sweep = bindings.spec(chain);
  epilogue::apply_elementwise(*epilogue::compile(sweep.ops), sweep, shape.m,
                              shape.n, two_pass.row_ptr(0), shape.n,
                              /*workers=*/3);

  EXPECT_TRUE(testing::bitwise_equal(fused, two_pass));
}

}  // namespace
}  // namespace streamk
