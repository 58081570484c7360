#pragma once

// BLAS-style GEMM entry points with operand transposes.
//
// Vendor GEMM APIs expose the transpose cross product (the paper's Section 2
// mentions MAGMA's hgemm_tt() and cuBLAS's per-layout kernel specializations
// -- part of why tile-centric ensembles balloon).  Here a single set of
// decomposition machinery serves all four layouts: operands are
// cpu::OperandView strided views, so a transposed A or B costs a different
// pack walk, never a different kernel or executor.
//
//     C = alpha * op(A) . op(B) + beta * C,   op in {identity, transpose}
//
// Matrices are row-major; op(A) must be m x k and op(B) k x n.

#include "cpu/gemm.hpp"
#include "cpu/matrix.hpp"

namespace streamk::cpu {

/// FP64 GEMM with transposes (row-major dgemm analogue).
GemmReport dgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<double>& a, const Matrix<double>& b,
                 double beta, Matrix<double>& c,
                 const GemmOptions& options = {});

/// FP32 GEMM with transposes.
GemmReport sgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<float>& a, const Matrix<float>& b, double beta,
                 Matrix<float>& c, const GemmOptions& options = {});

/// Mixed-precision FP16->32 GEMM with transposes (hgemm analogue).
GemmReport hgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<util::Half>& a, const Matrix<util::Half>& b,
                 double beta, Matrix<float>& c,
                 const GemmOptions& options = {});

}  // namespace streamk::cpu
