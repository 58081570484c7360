#pragma once

// Implicit-GEMM forward convolution over any work decomposition.
//
// Convolution is one more GEMM problem: its A operand is the Im2colView of
// the NHWC activation tensor (never materialized -- pack_a gathers input
// patches, with zero padding, straight into microkernel panels), B is the
// KRSC filter bank viewed as a (RSC x K) matrix, and C is the NHWC output
// viewed as a row-major (NPQ x K) matrix.  conv_problem() builds that
// problem and cpu::execute_plan runs it, so tile segments, spills, flags,
// fixup reduction, the panel cache and the epilogue are the GEMM machinery
// itself -- the paper's Section 7 claim that Stream-K generalizes to
// GEMM-like workloads with the same quantization problems.
//
// direct_conv() is the independently-written reference the implicit-GEMM
// path is verified against.

#include "conv/conv_shape.hpp"
#include "conv/tensor.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"

namespace streamk::conv {

/// Reference: direct 7-loop convolution (NHWC in, KRSC filter, NHWC out).
template <typename In, typename Acc, typename Out>
void direct_conv(const ConvShape& conv, const Tensor4<In>& input,
                 const Tensor4<In>& filter, Tensor4<Out>& output);

/// Convolution's implicit-GEMM problem: A is the input's im2col view.
template <typename In, typename Out>
using ConvProblem = cpu::GemmProblem<In, Out, cpu::Im2colView<const In>>;

/// The implicit-GEMM problem of `conv` over real tensors, after checking
/// their extents; run it with cpu::execute_plan on a plan compiled over
/// conv.gemm_shape().  The front end builds its problem here.
template <typename In, typename Out>
ConvProblem<In, Out> conv_problem(const ConvShape& conv,
                                  const Tensor4<In>& input,
                                  const Tensor4<In>& filter,
                                  Tensor4<Out>& output);

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

extern template ConvProblem<double, double> conv_problem<double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&);
extern template ConvProblem<float, float> conv_problem<float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&);

extern template cpu::GemmReport conv_forward<double, double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&, const cpu::GemmOptions&);
extern template cpu::GemmReport conv_forward<float, float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&, const cpu::GemmOptions&);

}  // namespace streamk::conv
