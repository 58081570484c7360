#pragma once

// Public BLAS-like GEMM entry points (CPU execution).
//
// C = alpha * A.B + beta * C, decomposed per the caller's schedule choice or
// the analytical planner (Section 5.1) -- the library interface the paper
// emphasizes is unchanged by Stream-K: decomposition internals are invisible
// to callers beyond the performance characteristics.
//
// Supported precisions mirror the paper's evaluation:
//   gemm(Matrix<double>,  ...) -> FP64
//   gemm(Matrix<float>,   ...) -> FP32 (testing convenience)
//   gemm(Matrix<Half>,    ..., Matrix<float>) -> FP16->32 mixed precision

#include <cstdint>
#include <string>
#include <type_traits>

#include "core/decomposition.hpp"
#include "cpu/executor.hpp"
#include "cpu/matrix.hpp"
#include "epilogue/epilogue.hpp"
#include "gpu/block_shape.hpp"
#include "gpu/gpu_spec.hpp"

namespace streamk::cpu {

enum class Schedule {
  kAuto,          ///< analytical planner picks (Section 5.1)
  kDataParallel,  ///< Algorithm 2
  kFixedSplit,    ///< Algorithm 4 (set GemmOptions::split)
  kStreamK,       ///< Algorithm 5 (set GemmOptions::grid, 0 = worker count)
  kHybridOneTile, ///< Section 5.2, "DP + one-tile SK"
  kHybridTwoTile, ///< Section 5.2, "two-tile SK + DP"
};

struct GemmOptions {
  Schedule schedule = Schedule::kAuto;
  /// Blocking factors; {0,0,0} selects a CPU-cache-friendly default.
  gpu::BlockShape block{0, 0, 0};
  /// Output-tile traversal order (kMortonZ enables the cache-aware
  /// Z-order access pattern of the paper's future-work section).
  core::TileOrder tile_order = core::TileOrder::kRowMajor;
  std::int64_t grid = 0;   ///< Stream-K grid size (0 = worker count)
  std::int64_t split = 2;  ///< fixed-split factor
  std::size_t workers = 0; ///< 0 = hardware concurrency
  double alpha = 1.0;
  double beta = 0.0;
  /// Shared packed-panel cache policy (cpu/panel_cache.hpp): kAuto lets the
  /// plan (and the tuner, when the db has a measured verdict for the shape)
  /// decide; kOn/kOff force it.  STREAMK_PANEL_CACHE=0 overrides everything.
  PanelCacheMode panel_cache = PanelCacheMode::kAuto;
  /// Fused epilogue chain (bias, activation, residual add, per-row
  /// reductions), applied exactly once per output element at tile-store /
  /// post-fixup time instead of a second pass over C.  Structure plus
  /// non-owning bindings; bindings follow operand lifetime rules (they
  /// must outlive the call, including async submissions).  See
  /// epilogue/epilogue.hpp.
  epilogue::EpilogueSpec epilogue;
};

struct GemmReport {
  core::DecompositionSpec spec;
  std::string schedule_name;
  std::int64_t grid = 0;
  std::int64_t tiles = 0;
  std::int64_t spills = 0;
  double seconds = 0.0;
  double gflops = 0.0;  ///< useful GFLOP/s achieved
};

/// Resolves a GemmOptions schedule request into a concrete decomposition
/// spec for `workers` CPU workers (kAuto runs the Section 5.1 planner over
/// `mapping`; each front end chooses the mapping the planner sees).
core::DecompositionSpec resolve_schedule(const GemmOptions& options,
                                         const core::WorkMapping& mapping,
                                         gpu::Precision precision,
                                         std::size_t workers);

/// Tuned-dispatch consultation shared by every GEMM front end: when the
/// caller requested Schedule::kAuto without forcing a blocking factor and
/// the tuning database holds a measured winner for `shape`, the returned
/// options pin that winner's schedule, block, grid/split, and (unless the
/// caller set one) worker count; the plan then comes pointer-identical from
/// runtime::plan_cache().  On a miss the options pass through unchanged --
/// and in tuner::FindMode::kBackground the miss schedules a background
/// tuning job for the shape (see tuner/dispatch.hpp), unless
/// `allow_background_find` is false: front ends whose key approximates
/// their real mapping (batched on the stacked shape, conv on the
/// implicit-GEMM shape) consult the db but never auto-tune the key, since
/// the find job would measure a plain GEMM instead.  The database key also
/// carries the epilogue *class* (options.epilogue's canonical op-chain
/// fingerprint), so a winner measured unfused is never served to a fused
/// call or vice versa.  Caller-chosen tile_order, alpha, beta, and the
/// epilogue chain itself are always preserved.  `group_digest` is the
/// grouped-GEMM shape-multiset digest (tuner::group_digest; 0 for plain
/// GEMMs): grouped/batched front ends pass it with `shape` set to the
/// aggregate tuner::group_key_shape, so their records never collide with
/// the plain GEMM of the same aggregate shape.
GemmOptions apply_tuned_dispatch(const core::GemmShape& shape,
                                 gpu::Precision precision, GemmOptions options,
                                 bool allow_background_find = true,
                                 std::uint64_t group_digest = 0);

/// Whether `options` (typically apply_tuned_dispatch output) denotes a
/// schedule that can legally run a mapping whose iterations-per-tile derive
/// from `k`: a fixed-split factor must not exceed the iteration count and a
/// pinned block must be valid.  Front ends that key the db on an aggregate
/// of their real mapping (batched, grouped) validate the tuned config
/// against the *actual* per-problem k before applying it, falling back to
/// the caller's options on a mismatch instead of failing the GEMM.
bool tuned_dispatch_feasible(const GemmOptions& options,
                             gpu::Precision precision, std::int64_t k);

GemmReport gemm(const Matrix<double>& a, const Matrix<double>& b,
                Matrix<double>& c, const GemmOptions& options = {});
GemmReport gemm(const Matrix<float>& a, const Matrix<float>& b,
                Matrix<float>& c, const GemmOptions& options = {});
GemmReport gemm(const Matrix<util::Half>& a, const Matrix<util::Half>& b,
                Matrix<float>& c, const GemmOptions& options = {});

/// The precision a front end runs for input element type `In`.
template <typename In>
constexpr gpu::Precision precision_of() {
  if constexpr (std::is_same_v<In, double>) return gpu::Precision::kFp64;
  if constexpr (std::is_same_v<In, float>) return gpu::Precision::kFp32;
  return gpu::Precision::kFp16F32;
}

/// Default CPU blocking factors for a precision (sized so one tile's
/// working set stays cache resident).
gpu::BlockShape default_cpu_block(gpu::Precision precision);

/// A GpuSpec stand-in describing the host CPU with `workers` cores, so the
/// analytical planner's thresholds (tiles vs. concurrency slots) apply to
/// the worker pool.  Peak numbers are placeholders -- the planner and the
/// tuner's search-space pruning only use relative model terms.
gpu::GpuSpec host_proxy_spec(std::size_t workers);

}  // namespace streamk::cpu
