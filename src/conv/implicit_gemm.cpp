#include "conv/implicit_gemm.hpp"

#include "core/schedule_plan.hpp"
#include "runtime/gemm_runtime.hpp"

namespace streamk::conv {

template <typename In, typename Acc, typename Out>
void direct_conv(const ConvShape& conv, const Tensor4<In>& input,
                 const Tensor4<In>& filter, Tensor4<Out>& output) {
  util::check(conv.valid(), "invalid convolution shape");
  for (std::int64_t n = 0; n < conv.batch; ++n) {
    for (std::int64_t p = 0; p < conv.out_h(); ++p) {
      for (std::int64_t q = 0; q < conv.out_w(); ++q) {
        for (std::int64_t k = 0; k < conv.out_channels; ++k) {
          Acc sum{};
          for (std::int64_t r = 0; r < conv.filter_h; ++r) {
            const std::int64_t h = p * conv.stride - conv.pad + r;
            if (h < 0 || h >= conv.height) continue;
            for (std::int64_t s = 0; s < conv.filter_w; ++s) {
              const std::int64_t w = q * conv.stride - conv.pad + s;
              if (w < 0 || w >= conv.width) continue;
              for (std::int64_t c = 0; c < conv.in_channels; ++c) {
                sum += static_cast<Acc>(input.at(n, h, w, c)) *
                       static_cast<Acc>(filter.at(k, r, s, c));
              }
            }
          }
          output.at(n, p, q, k) = static_cast<Out>(sum);
        }
      }
    }
  }
}

template <typename In, typename Out>
ConvProblem<In, Out> conv_problem(const ConvShape& conv,
                                  const Tensor4<In>& input,
                                  const Tensor4<In>& filter,
                                  Tensor4<Out>& output) {
  util::check(conv.valid(), "invalid convolution shape");
  util::check(input.dim0() == conv.batch && input.dim1() == conv.height &&
                  input.dim2() == conv.width &&
                  input.dim3() == conv.in_channels,
              "input tensor extents mismatch");
  util::check(filter.dim0() == conv.out_channels &&
                  filter.dim1() == conv.filter_h &&
                  filter.dim2() == conv.filter_w &&
                  filter.dim3() == conv.in_channels,
              "filter tensor extents mismatch");
  util::check(output.dim0() == conv.batch && output.dim1() == conv.out_h() &&
                  output.dim2() == conv.out_w() &&
                  output.dim3() == conv.out_channels,
              "output tensor extents mismatch");
  const core::GemmShape shape = conv.gemm_shape();
  // KRSC is K rows of RSC taps, so the (RSC x K) B operand is its
  // transpose; NHWC output rows are the (n, p, q) output pixels in GEMM row
  // order, so C is the row-major (NPQ x K) matrix.
  return {cpu::Im2colView<const In>(input.data().data(), conv),
          cpu::OperandView<const In>(filter.data().data(), shape.k, shape.n,
                                     1, shape.k),
          cpu::OperandView<Out>(output.data().data(), shape.m, shape.n,
                                shape.n, 1)};
}

namespace {

template <typename In, typename Acc, typename Out>
cpu::GemmReport conv_forward_job(const ConvShape& conv,
                                 const Tensor4<In>& input,
                                 const Tensor4<In>& filter,
                                 Tensor4<Out>& output,
                                 const cpu::GemmOptions& options) {
  const ConvProblem<In, Out> problem =
      conv_problem(conv, input, filter, output);
  // Tuning-db key: the implicit-GEMM shape the convolution lowers to.
  // Lookup only: a background find job would measure a dense GEMM of this
  // shape, not the gather-heavy convolution it stands in for.
  const core::GemmShape shape = conv.gemm_shape();
  return runtime::run_front_end(
      options, cpu::precision_of<In>(), shape, /*group_digest=*/0,
      /*allow_background_find=*/false, shape.k, conv.flops(),
      [&](const gpu::BlockShape& block, const cpu::GemmOptions&) {
        return core::WorkMapping(shape, block);
      },
      runtime::single_plan,
      [&](const core::SchedulePlan& plan, const cpu::ExecutorOptions& exec) {
        // Fused bias + activation, MIOpen-style: bias_col is the per-
        // output-channel bias (the implicit GEMM's n axis is out_channels)
        // and any pointwise op may follow.  Row-indexed ops and the
        // residual add are rejected -- the implicit A operand's rows are
        // output pixels, which no caller-held matrix addresses.
        const epilogue::EpiloguePlanPtr eplan =
            plan.epilogue_plan(exec.epilogue);
        util::check(!eplan->has_row_indexed() && !eplan->needs_residual(),
                    "convolution supports only per-channel bias (bias_col) "
                    "and pointwise epilogue ops");
        cpu::execute_plan<In, Acc, Out, cpu::Im2colView<const In>>(
            plan, {&problem, 1}, exec);
      });
}

}  // namespace

// Sync front end: one pool job per convolution (submit-then-get; see
// runtime/gemm_runtime.hpp for the work-stealing guarantee).
template <typename In, typename Acc, typename Out>
cpu::GemmReport conv_forward(const ConvShape& conv, const Tensor4<In>& input,
                             const Tensor4<In>& filter, Tensor4<Out>& output,
                             const cpu::GemmOptions& options) {
  return runtime::submit_conv_forward(conv, input, filter, output, options)
      .get();
}

template void direct_conv<double, double, double>(const ConvShape&,
                                                  const Tensor4<double>&,
                                                  const Tensor4<double>&,
                                                  Tensor4<double>&);
template void direct_conv<float, float, float>(const ConvShape&,
                                               const Tensor4<float>&,
                                               const Tensor4<float>&,
                                               Tensor4<float>&);

template ConvProblem<double, double> conv_problem<double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&);
template ConvProblem<float, float> conv_problem<float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&);

template cpu::GemmReport conv_forward<double, double, double>(
    const ConvShape&, const Tensor4<double>&, const Tensor4<double>&,
    Tensor4<double>&, const cpu::GemmOptions&);
template cpu::GemmReport conv_forward<float, float, float>(
    const ConvShape&, const Tensor4<float>&, const Tensor4<float>&,
    Tensor4<float>&, const cpu::GemmOptions&);

}  // namespace streamk::conv

namespace streamk::runtime {

GemmHandle submit_conv_forward(const conv::ConvShape& conv,
                               const conv::Tensor4<double>& input,
                               const conv::Tensor4<double>& filter,
                               conv::Tensor4<double>& output,
                               const cpu::GemmOptions& options) {
  return submit_job(conv::conv_forward_job<double, double, double>,
                    std::cref(conv), std::cref(input), std::cref(filter),
                    std::ref(output), options);
}

GemmHandle submit_conv_forward(const conv::ConvShape& conv,
                               const conv::Tensor4<float>& input,
                               const conv::Tensor4<float>& filter,
                               conv::Tensor4<float>& output,
                               const cpu::GemmOptions& options) {
  return submit_job(conv::conv_forward_job<float, float, float>,
                    std::cref(conv), std::cref(input), std::cref(filter),
                    std::ref(output), options);
}

}  // namespace streamk::runtime
