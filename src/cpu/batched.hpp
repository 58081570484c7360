#pragma once

// Batched GEMM on the Stream-K decomposition machinery.
//
// Deep-learning workloads (the paper's motivating domain) run *batches* of
// identical GEMMs -- attention heads, per-sample projections.  Launching
// each batch entry as its own kernel multiplies the quantization problem:
// every small GEMM leaves its own partial wave.  Work-centric decomposition
// dissolves the batch boundary the same way it dissolves tile boundaries:
// the aggregate MAC-loop iteration space of all batch entries is one linear
// domain, and any decomposition (data-parallel, Stream-K, hybrid) schedules
// it as a whole -- precisely the paper's "other GEMM-like workloads"
// generalization (Section 7).
//
// A batch of B GEMMs of shape (m, n, k) runs as a *uniform group*
// (core::GroupedMapping of B identical shapes) through the one GEMM-family
// executor.  Its tile numbering -- problem-major, row-major within a
// problem -- equals the stacked single-GEMM view batched_mapping() builds
// (B * tiles_m(m) tile rows of the same iteration depth), so both compile
// the same segment streams.  The stacked view remains what the kAuto
// planner reasons over and what simulation uses.  Row-indexed epilogue
// bindings (bias_row, row reductions) are indexed by the stacked row
// entry * m + i, so one spec covers the whole batch; the residual op is
// rejected (one D matrix cannot address every entry).

#include <span>

#include "core/decomposition.hpp"
#include "cpu/gemm.hpp"
#include "cpu/matrix.hpp"

namespace streamk::cpu {

/// Geometry of a uniform batch of GEMMs.
struct BatchedShape {
  std::int64_t batch = 0;
  core::GemmShape shape;

  constexpr bool valid() const { return batch >= 1 && shape.valid(); }
  constexpr double flops() const {
    return static_cast<double>(batch) * shape.flops();
  }
};

/// The virtual single-GEMM work mapping whose tile space stacks all batch
/// entries along m (what kAuto plans over, and what simulation uses).
core::WorkMapping batched_mapping(const BatchedShape& batched,
                                  gpu::BlockShape block);

/// BLAS-like front end: cs[i] = alpha * as[i].bs[i] + beta * cs[i] for
/// every entry i, one schedule over the whole batch chosen by GemmOptions
/// (kAuto plans over batched_mapping).
template <typename In, typename Acc, typename Out>
GemmReport batched_gemm(std::span<const Matrix<In>> as,
                        std::span<const Matrix<In>> bs,
                        std::span<Matrix<Out>> cs,
                        const GemmOptions& options = {});

extern template GemmReport batched_gemm<double, double, double>(
    std::span<const Matrix<double>>, std::span<const Matrix<double>>,
    std::span<Matrix<double>>, const GemmOptions&);
extern template GemmReport batched_gemm<float, float, float>(
    std::span<const Matrix<float>>, std::span<const Matrix<float>>,
    std::span<Matrix<float>>, const GemmOptions&);
extern template GemmReport batched_gemm<util::Half, float, float>(
    std::span<const Matrix<util::Half>>, std::span<const Matrix<util::Half>>,
    std::span<Matrix<float>>, const GemmOptions&);

}  // namespace streamk::cpu
