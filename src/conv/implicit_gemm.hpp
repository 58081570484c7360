#pragma once

// Implicit-GEMM forward convolution over any work decomposition.
//
// The A operand of the equivalent GEMM is never materialized: the MacLoop
// gathers input patches (with zero padding) directly from the NHWC
// activation tensor while B-fragments come from the KRSC filter bank viewed
// as a (RSC x K) matrix.  Everything above the fragment loaders -- tile
// segments, spills, flags, fixup reduction -- is byte-for-byte the GEMM
// machinery, demonstrating the paper's Section 7 claim that Stream-K
// generalizes to GEMM-like workloads with the same quantization problems.
//
// direct_conv() is the independently-written reference the implicit-GEMM
// path is verified against.

#include "conv/conv_shape.hpp"
#include "conv/tensor.hpp"
#include "core/decomposition.hpp"
#include "cpu/gemm.hpp"

namespace streamk::core {
class SchedulePlan;
}  // namespace streamk::core

namespace streamk::conv {

/// Reference: direct 7-loop convolution (NHWC in, KRSC filter, NHWC out).
template <typename In, typename Acc, typename Out>
void direct_conv(const ConvShape& conv, const Tensor4<In>& input,
                 const Tensor4<In>& filter, Tensor4<Out>& output);

/// Executes a compiled plan (built over the conv's implicit-GEMM mapping)
/// against real tensors.
template <typename In, typename Acc, typename Out>
void execute_conv_plan(const core::SchedulePlan& plan, const ConvShape& conv,
                       const Tensor4<In>& input, const Tensor4<In>& filter,
                       Tensor4<Out>& output,
                       const cpu::ExecutorOptions& options = {});

/// Front end: schedule selected per cpu::GemmOptions (kAuto plans over the
/// implicit-GEMM tile space).
template <typename In, typename Acc, typename Out>
cpu::GemmReport conv_forward(const ConvShape& conv, const Tensor4<In>& input,
                             const Tensor4<In>& filter, Tensor4<Out>& output,
                             const cpu::GemmOptions& options = {});

extern template void direct_conv<double, double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&);
extern template void direct_conv<float, float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&);

extern template void execute_conv_plan<double, double, double>(
    const core::SchedulePlan&, const ConvShape&, const Tensor4<double>&,
    const Tensor4<double>&, Tensor4<double>&, const cpu::ExecutorOptions&);
extern template void execute_conv_plan<float, float, float>(
    const core::SchedulePlan&, const ConvShape&, const Tensor4<float>&,
    const Tensor4<float>&, Tensor4<float>&, const cpu::ExecutorOptions&);

extern template cpu::GemmReport conv_forward<double, double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&, const cpu::GemmOptions&);
extern template cpu::GemmReport conv_forward<float, float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&, const cpu::GemmOptions&);

}  // namespace streamk::conv
