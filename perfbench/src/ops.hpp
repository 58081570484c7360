#pragma once

// The timed operations of a workload.  Each Op owns its operands (or
// borrows weights a workload shares across calls), issues one call through
// a public library entry point, and checks the output of its last call
// against cpu::reference_gemm outside the timed region.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/gemm_shape.hpp"
#include "cpu/blas.hpp"
#include "cpu/gemm.hpp"
#include "cpu/matrix.hpp"
#include "gpu/precision.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sk = streamk;

// Every call of every workload runs on this many workers
// (GemmOptions::workers).  Width is part of a workload's definition and was
// chosen by measured run-to-run spread, not by guess.  On a 4-vCPU virtual
// machine whose host also runs other tenants, a call that spans several
// vCPUs waits for the slowest of them, and the hypervisor steals more time
// the more vCPUs are busy.  Interleaved 25-30 s runs on such a host, spread
// as IQR / median over four runs per width:
//   large-gemm gflops       1 worker 0.020   2 workers 0.110   4 workers 0.223
//   corpus-sweep p10        1 worker 0.042   2 workers 0.111
//   decode-step gflops      1 worker 16.0-17.0 GFLOP/s, 2 workers 23-34
// Wider calls did not repeat within any bound a regression gate could use.
inline constexpr std::size_t kWidth = 1;

/// Which entry point an Op calls.
enum class FrontEnd {
  kGemm,            ///< cpu::gemm
  kBlas,            ///< cpu::{d,s,h}gemm with transposed operand views
  kGrouped,         ///< cpu::grouped_gemm over ragged problems
  kBatchedSubmit,   ///< runtime::submit_batched_gemm, then get()
};

class Op {
 public:
  virtual ~Op() = default;

  /// One library call (the timed unit).  Exceptions propagate.
  virtual sk::cpu::GemmReport run() = 0;
  /// Problems whose output of the last run() differs from the reference
  /// beyond the dtype's tolerance.
  virtual std::int64_t mismatches() const = 0;
  /// Perturbs one output element (self-test of the check above).
  virtual void corrupt() = 0;

  /// kFp16F32 is fp16 inputs accumulated and stored in fp32.
  sk::gpu::Precision precision = sk::gpu::Precision::kFp32;
  FrontEnd front_end = FrontEnd::kGemm;
  /// The problems of the call as the planner sees them (m x n x k).
  std::vector<sk::core::GemmShape> shapes;
  /// Useful flops, sum of 2mnk over shapes.
  double flop = 0.0;
  /// Short human-readable id ("fp32 1536x1536x1536 gemm").
  std::string label;
};

using OpList = std::vector<std::unique_ptr<Op>>;

/// A single GEMM through cpu::gemm (trans_a == trans_b == kNone) or the
/// BLAS view entry points (the stored operands are then the transposes).
std::unique_ptr<Op> make_gemm_op(sk::gpu::Precision precision,
                                 sk::core::GemmShape shape,
                                 sk::cpu::Trans trans_a,
                                 sk::cpu::Trans trans_b, sk::util::Pcg32& rng);

/// fp16 weights shared by the calls of a workload (one k x n matrix per
/// expert) plus the column bias of the fused epilogue.
struct SharedWeights {
  std::vector<sk::cpu::Matrix<sk::util::Half>> experts;
  std::vector<double> bias;  ///< length n
};

/// A ragged group, problem p = (ms[p] x k) . experts[p], fused
/// bias_col+gelu; kGrouped uses cpu::grouped_gemm, kBatchedSubmit
/// requires equal ms and uses runtime::submit_batched_gemm.
std::unique_ptr<Op> make_expert_op(FrontEnd front_end,
                                   const SharedWeights& weights,
                                   const std::vector<std::int64_t>& ms,
                                   sk::util::Pcg32& rng);

}  // namespace perfbench
