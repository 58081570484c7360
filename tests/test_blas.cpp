// Tests for the BLAS-style transpose layer: all four op(A)/op(B) layouts,
// across precisions, verified against a naive transposed reference.

#include <gtest/gtest.h>

#include "cpu/blas.hpp"
#include "cpu/reference.hpp"
#include "test_support.hpp"

namespace streamk::cpu {
namespace {

/// Naive C = alpha * op(A).op(B) + beta * C reference through the views.
template <typename In, typename Acc, typename Out>
void naive_view_gemm(const OperandView<const In>& a,
                     const OperandView<const In>& b, Matrix<Out>& c,
                     double alpha, double beta) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      Acc sum{};
      for (std::int64_t l = 0; l < a.cols(); ++l) {
        sum += static_cast<Acc>(a.at(i, l)) * static_cast<Acc>(b.at(l, j));
      }
      c.at(i, j) = static_cast<Out>(static_cast<Acc>(alpha) * sum +
                                    static_cast<Acc>(beta) *
                                        static_cast<Acc>(c.at(i, j)));
    }
  }
}

TEST(OperandView, TransposeSwapsExtentsAndIndices) {
  Matrix<double> m(3, 5);
  util::Pcg32 rng(1);
  fill_random(m, rng);
  const OperandView<const double> plain(m, Trans::kNone);
  const OperandView<const double> t(m, Trans::kTranspose);
  EXPECT_EQ(plain.rows(), 3);
  EXPECT_EQ(plain.cols(), 5);
  EXPECT_EQ(plain.col_stride(), 1);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.row_stride(), 1);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(plain.at(i, j), m.at(i, j));
      EXPECT_EQ(t.at(j, i), m.at(i, j));
    }
  }
}

TEST(Blas, DgemmAllFourLayouts) {
  const std::int64_t m = 70, n = 54, k = 62;
  util::Pcg32 rng(77);
  // Stored extents depend on the transpose flags.
  for (const Trans ta : {Trans::kNone, Trans::kTranspose}) {
    for (const Trans tb : {Trans::kNone, Trans::kTranspose}) {
      SCOPED_TRACE((ta == Trans::kNone ? "A:n" : "A:t") +
                   std::string(tb == Trans::kNone ? " B:n" : " B:t"));
      Matrix<double> a(ta == Trans::kNone ? m : k, ta == Trans::kNone ? k : m);
      Matrix<double> b(tb == Trans::kNone ? k : n, tb == Trans::kNone ? n : k);
      fill_random_int(a, rng);
      fill_random_int(b, rng);

      Matrix<double> expected(m, n);
      naive_view_gemm<double, double, double>({a, ta}, {b, tb}, expected,
                                              1.0, 0.0);
      Matrix<double> c(m, n);
      const GemmReport report =
          dgemm(ta, tb, 1.0, a, b, 0.0, c,
                {.block = {32, 32, 16}, .workers = 3});
      EXPECT_GT(report.grid, 0);
      EXPECT_TRUE(testing::bitwise_equal(expected, c));
    }
  }
}

TEST(Blas, SgemmTransposedWithAlphaBeta) {
  const std::int64_t m = 40, n = 48, k = 56;
  util::Pcg32 rng(13);
  Matrix<float> a(k, m);  // transposed storage
  Matrix<float> b(k, n);
  Matrix<float> c_init(m, n);
  fill_random_int(a, rng, -2, 2);
  fill_random_int(b, rng, -2, 2);
  fill_random_int(c_init, rng, -2, 2);

  Matrix<float> expected = c_init;
  naive_view_gemm<float, float, float>(
      {a, Trans::kTranspose}, {b, Trans::kNone}, expected, 3.0, -2.0);

  Matrix<float> c = c_init;
  sgemm(Trans::kTranspose, Trans::kNone, 3.0, a, b, -2.0, c,
        {.block = {16, 32, 8}, .workers = 2});
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(Blas, HgemmTransposeTranspose) {
  // The MAGMA example from the paper's Section 2: hgemm_tt.
  const std::int64_t m = 33, n = 37, k = 41;
  util::Pcg32 rng(21);
  Matrix<util::Half> a(k, m);
  Matrix<util::Half> b(n, k);
  fill_random_int(a, rng, -2, 2);
  fill_random_int(b, rng, -2, 2);

  Matrix<float> expected(m, n);
  naive_view_gemm<util::Half, float, float>(
      {a, Trans::kTranspose}, {b, Trans::kTranspose}, expected, 1.0, 0.0);

  Matrix<float> c(m, n);
  const GemmReport report =
      hgemm(Trans::kTranspose, Trans::kTranspose, 1.0, a, b, 0.0, c,
            {.schedule = Schedule::kStreamK, .block = {16, 16, 16},
             .grid = 5, .workers = 2});
  EXPECT_EQ(report.grid, 5);
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(Blas, MatchesUntransposedGemmPath) {
  // dgemm(kNone, kNone) must agree bitwise with the plain gemm() path when
  // given the same schedule and blocking.
  const core::GemmShape shape{90, 80, 100};
  util::Pcg32 rng(3);
  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  fill_random(a, rng);
  fill_random(b, rng);

  GemmOptions options;
  options.schedule = Schedule::kStreamK;
  options.block = {32, 32, 16};
  options.grid = 6;
  options.workers = 2;

  Matrix<double> via_gemm(shape.m, shape.n);
  gemm(a, b, via_gemm, options);
  Matrix<double> via_blas(shape.m, shape.n);
  dgemm(Trans::kNone, Trans::kNone, 1.0, a, b, 0.0, via_blas, options);
  EXPECT_TRUE(testing::bitwise_equal(via_gemm, via_blas));
}

TEST(Blas, RejectsNonConformingViews) {
  Matrix<double> a(10, 20);
  Matrix<double> b(30, 10);  // op(B) k = 30 != 20
  Matrix<double> c(10, 10);
  EXPECT_THROW(dgemm(Trans::kNone, Trans::kNone, 1.0, a, b, 0.0, c),
               util::CheckError);
}

}  // namespace
}  // namespace streamk::cpu
