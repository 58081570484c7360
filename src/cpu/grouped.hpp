#pragma once

// Grouped (ragged-batch) GEMM front end.
//
// Every problem brings its own (m, n, k), and one Stream-K schedule balances
// the *concatenated* iteration space of the whole group (core/grouped.hpp);
// cpu/batched.hpp is the uniform special case.  The problems run through
// the one GEMM-family executor (cpu::execute_plan) as a span of operand
// views.  A skewed group -- one large problem plus many small ones -- is
// exactly the quantization scenario the paper targets: scheduled per
// problem, the large GEMM's tail wave idles most of the machine; scheduled
// as one domain, its iterations spread across every CTA and the small
// problems fill the gaps.
//
// Epilogues: one spec may serve the whole group, or `problem_epilogues`
// supplies one spec per problem.  All specs must share one op-chain
// *structure* (epilogue::class_key); bindings vary per problem and are
// indexed problem-locally (row 0 = the problem's first output row).  The
// residual op (D matrix) therefore works with per-problem specs -- each
// problem binds its own output-shaped D -- but is rejected for a shared
// spec over more than one problem, where a single D cannot address every
// problem's output.

#include <span>

#include "cpu/gemm.hpp"
#include "cpu/matrix.hpp"
#include "epilogue/epilogue.hpp"

namespace streamk::cpu {

/// BLAS-like convenience: one schedule over the whole group, chosen by
/// GemmOptions (kAuto plans over the concatenated tile space; the tuning
/// database is consulted under the grouped shape-multiset key).
template <typename In, typename Acc, typename Out>
GemmReport grouped_gemm(
    std::span<const Matrix<In>> as, std::span<const Matrix<In>> bs,
    std::span<Matrix<Out>> cs, const GemmOptions& options = {},
    std::span<const epilogue::EpilogueSpec> problem_epilogues = {});

extern template GemmReport grouped_gemm<double, double, double>(
    std::span<const Matrix<double>>, std::span<const Matrix<double>>,
    std::span<Matrix<double>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);
extern template GemmReport grouped_gemm<float, float, float>(
    std::span<const Matrix<float>>, std::span<const Matrix<float>>,
    std::span<Matrix<float>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);
extern template GemmReport grouped_gemm<util::Half, float, float>(
    std::span<const Matrix<util::Half>>, std::span<const Matrix<util::Half>>,
    std::span<Matrix<float>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);

}  // namespace streamk::cpu
