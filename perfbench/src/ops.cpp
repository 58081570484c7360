#include "ops.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>

#include "cpu/grouped.hpp"
#include "cpu/reference.hpp"
#include "epilogue/epilogue.hpp"
#include "runtime/gemm_runtime.hpp"

namespace perfbench {

namespace {

using sk::cpu::GemmOptions;
using sk::cpu::GemmReport;
using sk::cpu::Matrix;
using sk::cpu::Trans;
using sk::util::Half;

/// |got - reference| may reach kTolerance * (1 + k): inputs lie in [-1, 1),
/// so that admits accumulation-order rounding over k terms while any
/// corrupted element (off by O(1)) still fails.
double tolerance(sk::gpu::Precision precision, std::int64_t k) {
  const double per_term =
      precision == sk::gpu::Precision::kFp64 ? 1e-12 : 1e-5;
  return per_term * static_cast<double>(1 + k);
}

template <typename In>
Matrix<In> transposed(const Matrix<In>& m) {
  Matrix<In> t(m.cols(), m.rows());
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      *(t.row_ptr(c) + r) = *(m.row_ptr(r) + c);
    }
  }
  return t;
}

/// cpu::reference_gemm, run over row slices on every hardware thread when
/// the problem is large: the reference is serial, and checking the
/// large-gemm problems on one thread would take seconds per run.
template <typename In, typename Acc, typename Out>
Matrix<Out> reference(const Matrix<In>& a, const Matrix<In>& b) {
  const std::int64_t m = a.rows();
  const std::int64_t n = b.cols();
  const std::int64_t k = a.cols();
  const sk::gpu::BlockShape block{64, 256, 64};
  Matrix<Out> c(m, n);
  const auto threads = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  if (m * n * k < (std::int64_t{1} << 24) || m < 2 * threads) {
    sk::cpu::reference_gemm<In, Acc, Out>(a, b, c, block);
    return c;
  }
  const std::int64_t rows = (m + threads - 1) / threads;
  std::vector<std::jthread> workers;
  for (std::int64_t r0 = 0; r0 < m; r0 += rows) {
    workers.emplace_back([&, r0] {
      const std::int64_t em = std::min(rows, m - r0);
      Matrix<In> slice(em, k);
      std::copy_n(a.row_ptr(r0), em * k, slice.row_ptr(0));
      Matrix<Out> out(em, n);
      sk::cpu::reference_gemm<In, Acc, Out>(slice, b, out, block);
      std::copy_n(out.row_ptr(0), em * n, c.row_ptr(r0));
    });
  }
  workers.clear();  // joins
  return c;
}

Matrix<float> widened(const Matrix<Half>& m) {
  Matrix<float> out(m.rows(), m.cols());
  std::transform(m.data().begin(), m.data().end(), out.data().begin(),
                 [](Half h) { return static_cast<float>(h); });
  return out;
}

double gelu(double v) {
  return 0.5 * v *
         (1.0 + std::tanh(0.7978845608028654 * (v + 0.044715 * v * v * v)));
}

/// Whether `got` matches `expected` (after the optional bias_col+gelu)
/// within tolerance everywhere.  NaN compares as a mismatch.
template <typename Out>
bool matches(const Matrix<Out>& got, const Matrix<Out>& expected,
             std::span<const double> bias, double tol) {
  for (std::int64_t r = 0; r < got.rows(); ++r) {
    const Out* g = got.row_ptr(r);
    const Out* e = expected.row_ptr(r);
    for (std::int64_t c = 0; c < got.cols(); ++c) {
      double want = static_cast<double>(e[c]);
      if (!bias.empty()) want = gelu(want + bias[static_cast<std::size_t>(c)]);
      if (!(std::abs(static_cast<double>(g[c]) - want) <= tol)) return false;
    }
  }
  return true;
}

template <typename In>
struct Types;
template <>
struct Types<double> {
  using Acc = double;
  using Out = double;
};
template <>
struct Types<float> {
  using Acc = float;
  using Out = float;
};
template <>
struct Types<Half> {
  using Acc = float;
  using Out = float;
};

GemmReport blas(Trans ta, Trans tb, const Matrix<double>& a,
                const Matrix<double>& b, Matrix<double>& c,
                const GemmOptions& o) {
  return sk::cpu::dgemm(ta, tb, 1.0, a, b, 0.0, c, o);
}
GemmReport blas(Trans ta, Trans tb, const Matrix<float>& a,
                const Matrix<float>& b, Matrix<float>& c,
                const GemmOptions& o) {
  return sk::cpu::sgemm(ta, tb, 1.0, a, b, 0.0, c, o);
}
GemmReport blas(Trans ta, Trans tb, const Matrix<Half>& a,
                const Matrix<Half>& b, Matrix<float>& c,
                const GemmOptions& o) {
  return sk::cpu::hgemm(ta, tb, 1.0, a, b, 0.0, c, o);
}

template <typename In>
class GemmOp final : public Op {
  using Acc = typename Types<In>::Acc;
  using Out = typename Types<In>::Out;

 public:
  GemmOp(sk::core::GemmShape s, Trans ta, Trans tb, sk::util::Pcg32& rng)
      : ta_(ta),
        tb_(tb),
        a_(ta == Trans::kNone ? Matrix<In>(s.m, s.k) : Matrix<In>(s.k, s.m)),
        b_(tb == Trans::kNone ? Matrix<In>(s.k, s.n) : Matrix<In>(s.n, s.k)),
        c_(s.m, s.n) {
    sk::cpu::fill_random(a_, rng);
    sk::cpu::fill_random(b_, rng);
  }

  GemmReport run() override {
    GemmOptions options;
    options.workers = kWidth;
    if (front_end == FrontEnd::kGemm) {
      return sk::cpu::gemm(a_, b_, c_, options);
    }
    return blas(ta_, tb_, a_, b_, c_, options);
  }

  std::int64_t mismatches() const override {
    const Matrix<In> a = ta_ == Trans::kNone ? a_ : transposed(a_);
    const Matrix<In> b = tb_ == Trans::kNone ? b_ : transposed(b_);
    const Matrix<Out> expected = reference<In, Acc, Out>(a, b);
    return matches(c_, expected, {}, tolerance(precision, a.cols())) ? 0 : 1;
  }

  void corrupt() override { c_.data()[0] += Out{1}; }

 private:
  Trans ta_;
  Trans tb_;
  Matrix<In> a_;
  Matrix<In> b_;
  Matrix<Out> c_;
};

class ExpertOp final : public Op {
 public:
  ExpertOp(const SharedWeights& weights, const std::vector<std::int64_t>& ms,
           sk::util::Pcg32& rng)
      : weights_(weights) {
    const std::int64_t k = weights.experts.front().rows();
    const std::int64_t n = weights.experts.front().cols();
    for (const std::int64_t m : ms) {
      as_.emplace_back(m, k);
      sk::cpu::fill_random(as_.back(), rng);
      cs_.emplace_back(m, n);
    }
    options_.epilogue.ops = {sk::epilogue::EpilogueOp::bias_col(),
                             sk::epilogue::EpilogueOp::gelu()};
    options_.epilogue.bias_col = weights_.bias;
    options_.workers = kWidth;
  }

  GemmReport run() override {
    const std::span<const Matrix<Half>> as(as_);
    const auto bs =
        std::span<const Matrix<Half>>(weights_.experts).first(as_.size());
    const std::span<Matrix<float>> cs(cs_);
    if (front_end == FrontEnd::kGrouped) {
      return sk::cpu::grouped_gemm<Half, float, float>(as, bs, cs, options_);
    }
    return sk::runtime::submit_batched_gemm(as, bs, cs, options_).get();
  }

  std::int64_t mismatches() const override {
    // Widening fp16 to fp32 is exact, so the fp32 reference over widened
    // operands computes what reference_gemm<Half, float, float> does,
    // without converting every B element once per row of A.
    std::int64_t bad = 0;
    for (std::size_t p = 0; p < as_.size(); ++p) {
      const Matrix<float> expected = reference<float, float, float>(
          widened(as_[p]), widened(weights_.experts[p]));
      bad += matches(cs_[p], expected, weights_.bias,
                     tolerance(precision, as_[p].cols()))
                 ? 0
                 : 1;
    }
    return bad;
  }

  void corrupt() override { cs_.front().data()[0] += 1.0f; }

 private:
  const SharedWeights& weights_;
  std::vector<Matrix<Half>> as_;
  std::vector<Matrix<float>> cs_;
  GemmOptions options_;
};

const char* trans_tag(Trans t) { return t == Trans::kNone ? "N" : "T"; }

}  // namespace

std::unique_ptr<Op> make_gemm_op(sk::gpu::Precision precision,
                                 sk::core::GemmShape shape, Trans trans_a,
                                 Trans trans_b, sk::util::Pcg32& rng) {
  std::unique_ptr<Op> op;
  switch (precision) {
    case sk::gpu::Precision::kFp64:
      op = std::make_unique<GemmOp<double>>(shape, trans_a, trans_b, rng);
      break;
    case sk::gpu::Precision::kFp32:
      op = std::make_unique<GemmOp<float>>(shape, trans_a, trans_b, rng);
      break;
    case sk::gpu::Precision::kFp16F32:
      op = std::make_unique<GemmOp<Half>>(shape, trans_a, trans_b, rng);
      break;
  }
  const bool plain = trans_a == Trans::kNone && trans_b == Trans::kNone;
  op->precision = precision;
  op->front_end = plain ? FrontEnd::kGemm : FrontEnd::kBlas;
  op->shapes = {shape};
  op->flop = 2.0 * static_cast<double>(shape.m) *
             static_cast<double>(shape.n) * static_cast<double>(shape.k);
  std::ostringstream label;
  label << sk::gpu::name(precision) << ' ' << shape.m << 'x' << shape.n << 'x'
        << shape.k << ' '
        << (plain ? std::string("gemm")
                  : std::string("blas_") + trans_tag(trans_a) +
                        trans_tag(trans_b));
  op->label = label.str();
  return op;
}

std::unique_ptr<Op> make_expert_op(FrontEnd front_end,
                                   const SharedWeights& weights,
                                   const std::vector<std::int64_t>& ms,
                                   sk::util::Pcg32& rng) {
  auto op = std::make_unique<ExpertOp>(weights, ms, rng);
  const std::int64_t k = weights.experts.front().rows();
  const std::int64_t n = weights.experts.front().cols();
  op->precision = sk::gpu::Precision::kFp16F32;
  op->front_end = front_end;
  std::ostringstream label;
  label << sk::gpu::name(op->precision) << ' '
        << (front_end == FrontEnd::kGrouped ? "grouped" : "batched") << " m=";
  for (std::size_t p = 0; p < ms.size(); ++p) {
    op->shapes.push_back({ms[p], n, k});
    op->flop += 2.0 * static_cast<double>(ms[p] * n * k);
    label << (p ? "," : "") << ms[p];
  }
  label << " n=" << n << " k=" << k << " +bias_col+gelu";
  op->label = label.str();
  return op;
}

}  // namespace perfbench
