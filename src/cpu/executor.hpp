#pragma once

// Decomposed GEMM execution on CPU threads.
//
// Worker threads play the role of SMs: each claims CTA ids dynamically and
// runs the CTA's segment stream -- MacLoop per segment, then the fixup
// protocol (spill+signal, or wait+reduce+store) exactly as the simulator
// models it.  Both consume the same compiled core::SchedulePlan, so
// functional behaviour and simulated schedules cannot drift apart.
//
// Deadlock freedom with any worker count W >= 1: flag waits always target
// CTAs with *higher* ids (Stream-K owners wait on later-range CTAs;
// fixed-split owners on their split peers y > 0; hybrids on their Stream-K
// region neighbours), and workers claim ids in *descending* order.  Hence
// every producer a blocked CTA awaits was claimed earlier, i.e. is finished
// or in flight on another worker; with W == 1 the claim order degenerates to
// the reverse-index serial schedule in which every signal precedes its wait.
// Waits block on C++20 atomic waiting, so an oversubscribed worker is
// descheduled rather than starving its producer.

#include <cstddef>
#include <span>
#include <type_traits>

#include "core/decomposition.hpp"
#include "cpu/matrix.hpp"
#include "epilogue/epilogue.hpp"

namespace streamk::core {
class SchedulePlan;
}  // namespace streamk::core

namespace streamk::cpu {

/// Shared packed-panel cache policy (cpu/panel_cache.hpp).  kAuto shares
/// whenever the plan says sharing can pay (two or more tiles) and the
/// STREAMK_PANEL_CACHE kill switch is armed; kOn/kOff force the decision
/// per call (the kill switch still overrides kOn, so STREAMK_PANEL_CACHE=0
/// restores private packing process-wide).
enum class PanelCacheMode {
  kAuto,
  kOn,
  kOff,
};

struct ExecutorOptions {
  /// Worker threads (0 = one per hardware thread).
  std::size_t workers = 0;
  double alpha = 1.0;
  double beta = 0.0;
  /// Shared packed-panel cache policy for this call.
  PanelCacheMode panel_cache = PanelCacheMode::kAuto;
  /// Fused output-transform chain, applied exactly once per output element
  /// by the tile owner's store (solo tiles at tile-store time, split tiles
  /// at the post-fixup reconciliation point) -- see epilogue/epilogue.hpp.
  /// The alpha/beta scale above is stage zero of the same code path.
  epilogue::EpilogueSpec epilogue;
};

/// One GEMM of an execution: C = alpha * op(A) . op(B) + beta * C over
/// views (A m x k, B k x n, C m x n with unit column stride).  A is a
/// strided OperandView by default; convolution's A is the Im2colView of its
/// NHWC input (conv::conv_problem).  `epilogue_row0` offsets this problem's
/// rows in the row-indexed epilogue bindings (bias_row, row reductions): a
/// batch shares one spec over its stacked rows, entry i starting at row
/// i * m.
template <typename In, typename Out, typename AView = OperandView<const In>>
struct GemmProblem {
  AView a;
  OperandView<const In> b;
  OperandView<Out> c;
  std::int64_t epilogue_row0 = 0;
};

/// Executes a compiled plan over `problems`: one problem for a plan
/// compiled from a WorkMapping, one per group member (in group order) for a
/// plan compiled from a GroupedMapping.  Plain GEMM, BLAS views, batched and
/// grouped GEMM and convolution all run here.  `problem_epilogues` is empty
/// (options.epilogue serves every problem) or one spec per problem; all
/// specs must share one op-chain class.  Rejects operands that do not
/// conform to the plan, a C that overlaps any A, B or other C of the call,
/// and a shared residual spec over several problems (one D matrix cannot
/// address them all).  Reusing one plan across calls amortizes schedule
/// compilation entirely.  `AView` is named, never deduced, so a vector of
/// problems converts to the span.
template <typename In, typename Acc, typename Out,
          typename AView = OperandView<const In>>
void execute_plan(
    const core::SchedulePlan& plan,
    std::span<const GemmProblem<In, Out, std::type_identity_t<AView>>>
        problems,
    const ExecutorOptions& options = {},
    std::span<const epilogue::EpilogueSpec> problem_epilogues = {});

extern template void execute_plan<double, double, double>(
    const core::SchedulePlan&, std::span<const GemmProblem<double, double>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
extern template void execute_plan<float, float, float>(
    const core::SchedulePlan&, std::span<const GemmProblem<float, float>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
extern template void execute_plan<util::Half, float, float>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<util::Half, float>>, const ExecutorOptions&,
    std::span<const epilogue::EpilogueSpec>);
extern template void execute_plan<double, double, double,
                                  Im2colView<const double>>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<double, double, Im2colView<const double>>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
extern template void execute_plan<float, float, float,
                                  Im2colView<const float>>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<float, float, Im2colView<const float>>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);

}  // namespace streamk::cpu
