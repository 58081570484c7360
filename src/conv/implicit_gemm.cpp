#include "conv/implicit_gemm.hpp"

#include <algorithm>
#include <vector>

#include "core/schedule_plan.hpp"
#include "cpu/decomposed_runner.hpp"
#include "cpu/mac_loop.hpp"
#include "epilogue/apply.hpp"
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

namespace {

/// Stages the implicit A-fragment's valid em x ek region: rows are output
/// pixels, columns are (r, s, c) reduction offsets; out-of-image taps are
/// zero (padding).  The padding rows/columns of the block are left alone --
/// the subsequent pack reads only the valid region.
template <typename In, typename Acc>
void gather_input_fragment(const ConvShape& conv, const Tensor4<In>& input,
                           std::int64_t mm, std::int64_t em, std::int64_t kk,
                           std::int64_t ek, const gpu::BlockShape& blk,
                           std::vector<Acc>& frag) {
  for (std::int64_t i = 0; i < em; ++i) {
    Acc* dst = frag.data() + static_cast<std::size_t>(i * blk.k);
    const OutputPixel px = output_pixel(conv, mm + i);
    for (std::int64_t l = 0; l < ek; ++l) {
      const FilterOffset off = filter_offset(conv, kk + l);
      const std::int64_t h = px.p * conv.stride - conv.pad + off.r;
      const std::int64_t w = px.q * conv.stride - conv.pad + off.s;
      if (h < 0 || h >= conv.height || w < 0 || w >= conv.width) {
        dst[l] = Acc{};
      } else {
        dst[l] = static_cast<Acc>(
            input.inner_ptr(px.n, h, w)[off.c]);
      }
    }
  }
}

/// Stages the B-fragment's valid ek x en region from the KRSC filter bank
/// viewed as (RSC x K).
template <typename In, typename Acc>
void gather_filter_fragment(const ConvShape& conv, const Tensor4<In>& filter,
                            std::int64_t nn, std::int64_t en, std::int64_t kk,
                            std::int64_t ek, const gpu::BlockShape& blk,
                            std::vector<Acc>& frag) {
  for (std::int64_t l = 0; l < ek; ++l) {
    Acc* dst = frag.data() + static_cast<std::size_t>(l * blk.n);
    const FilterOffset off = filter_offset(conv, kk + l);
    for (std::int64_t j = 0; j < en; ++j) {
      dst[j] = static_cast<Acc>(filter.at(nn + j, off.r, off.s, off.c));
    }
  }
}

}  // namespace

template <typename In, typename Acc, typename Out>
void execute_conv_plan(const core::SchedulePlan& plan, const ConvShape& conv,
                       const Tensor4<In>& input, const Tensor4<In>& filter,
                       Tensor4<Out>& output,
                       const cpu::ExecutorOptions& options) {
  util::check(conv.valid(), "invalid convolution shape");
  const core::WorkMapping& mapping = plan.mapping();
  util::check(mapping.shape() == conv.gemm_shape(),
              "decomposition does not match the conv's implicit GEMM");
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

  const gpu::BlockShape& blk = mapping.block();

  // Fused bias + activation, MIOpen-style: bias_col is the per-output-
  // channel bias (the implicit GEMM's n axis is out_channels) and any
  // pointwise op may follow.  Row-indexed ops and the residual add are
  // rejected -- the implicit A operand's rows are gathered output pixels,
  // which no user-held matrix addresses row-major.
  const epilogue::EpiloguePlanPtr eplan = plan.epilogue_plan(options.epilogue);
  util::check(!eplan->has_row_indexed() && !eplan->needs_residual(),
              "convolution supports only per-channel bias (bias_col) and "
              "pointwise epilogue ops");
  epilogue::check_bindings(*eplan, options.epilogue, mapping.shape().m,
                           mapping.shape().n,
                           epilogue::tensor_type_of<Out>());

  // Panel-cache grid for the implicit operands: chunks are single MAC-loop
  // iterations (the gather works per iteration, so chunk_depth is BLK_K).
  // A cache hit here skips both the pack *and* the per-element gather --
  // the most expensive staging of any substrate.
  core::PanelCacheGeometry conv_geo = plan.panel_geometry();
  cpu::PanelCacheConfig cache_config;
  cache_config.row_panels = conv_geo.row_panels;
  cache_config.col_panels = conv_geo.col_panels;
  cache_config.chunks = mapping.iters_per_tile();
  cache_config.chunk_depth = blk.k;

  cpu::run_decomposed<Acc>(
      plan, blk.tile_elements(),
      [&](const core::TileSegment& seg, std::span<Acc> accum,
          cpu::MacScratch<Acc>& scratch, cpu::PanelCache<Acc>* cache) {
        const core::TileCoord coord = mapping.tile_coord(seg.tile_idx);
        const std::int64_t mm = coord.tm * blk.m;
        const std::int64_t nn = coord.tn * blk.n;
        const std::int64_t em = mapping.tile_extent_m(coord.tm);
        const std::int64_t en = mapping.tile_extent_n(coord.tn);

        // The implicit operands need per-element address math, so each
        // iteration is gathered into row-major staging first (the expensive
        // pass) and then repacked into microkernel panels -- both passes
        // touch only the valid em x ek / ek x en region.  The iteration
        // grid is absolute in k, so every iteration aligns with the shared
        // arena's chunk grid; a published panel spares later tiles the
        // gather and the pack alike.
        scratch.ensure_frags(blk);
        for (std::int64_t iter = seg.iter_begin; iter < seg.iter_end; ++iter) {
          const std::int64_t kk = iter * blk.k;
          const std::int64_t ek = mapping.iter_extent_k(iter);
          const Acc* pa = nullptr;
          const Acc* pb = nullptr;
          const bool cacheable =
              cache != nullptr && cache->chunk_depth() == blk.k;
          const auto pack_input = [&](Acc* dst) {
            gather_input_fragment<In, Acc>(conv, input, mm, em, kk, ek, blk,
                                           scratch.frag_a);
            cpu::pack_a_panels<Acc>(
                em, ek,
                [&](std::int64_t i, std::int64_t l) {
                  return scratch
                      .frag_a[static_cast<std::size_t>(i * blk.k + l)];
                },
                dst);
          };
          const auto pack_filter = [&](Acc* dst) {
            gather_filter_fragment<In, Acc>(conv, filter, nn, en, kk, ek, blk,
                                            scratch.frag_b);
            cpu::pack_b_panels<Acc>(
                ek, en,
                [&](std::int64_t l, std::int64_t j) {
                  return scratch
                      .frag_b[static_cast<std::size_t>(l * blk.n + j)];
                },
                dst);
          };
          if (cacheable) {
            pa = cache->acquire_a(coord.tm, iter, em, ek, pack_input);
            pb = cache->acquire_b(coord.tn, iter, en, ek, pack_filter);
          }
          if (pa == nullptr) {
            pack_input(scratch.packs.a.data());
            cpu::PackProbe::add_private(
                cpu::round_up(em, cpu::MicroTile<Acc>::kMr) * ek *
                static_cast<std::int64_t>(sizeof(Acc)));
            pa = scratch.packs.a.data();
          }
          if (pb == nullptr) {
            pack_filter(scratch.packs.b.data());
            cpu::PackProbe::add_private(
                cpu::round_up(en, cpu::MicroTile<Acc>::kNr) * ek *
                static_cast<std::int64_t>(sizeof(Acc)));
            pb = scratch.packs.b.data();
          }
          cpu::run_packed_mac(pa, pb, em, en, ek, accum.data(), blk.n);
        }
      },
      [&](std::int64_t tile_idx, std::span<const Acc> accum) {
        // Epilogue: scale + fused chain, scattered to NHWC output pixels
        // (each pixel's channel run is contiguous, so a tile row maps to
        // one apply_row call).
        const core::TileCoord coord = mapping.tile_coord(tile_idx);
        const std::int64_t mm = coord.tm * blk.m;
        const std::int64_t nn = coord.tn * blk.n;
        const std::int64_t em = mapping.tile_extent_m(coord.tm);
        const std::int64_t en = mapping.tile_extent_n(coord.tn);
        for (std::int64_t i = 0; i < em; ++i) {
          const OutputPixel px = output_pixel(conv, mm + i);
          const Acc* acc_row =
              accum.data() + static_cast<std::size_t>(i * blk.n);
          Out* out_row = &output.at(px.n, px.p, px.q, nn);
          epilogue::apply_row<Acc, Out>(*eplan, options.epilogue,
                                        options.alpha, options.beta, mm + i,
                                        nn, en, mapping.shape().n, acc_row,
                                        out_row);
        }
      },
      options, &cache_config);
}

namespace {

template <typename In, typename Acc, typename Out>
cpu::GemmReport conv_forward_job(const ConvShape& conv,
                                 const Tensor4<In>& input,
                                 const Tensor4<In>& filter,
                                 Tensor4<Out>& output,
                                 const cpu::GemmOptions& options) {
  util::check(conv.valid(), "invalid convolution shape");
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
        execute_conv_plan<In, Acc, Out>(plan, conv, input, filter, output,
                                        exec);
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

template void execute_conv_plan<double, double, double>(
    const core::SchedulePlan&, const ConvShape&, const Tensor4<double>&,
    const Tensor4<double>&, Tensor4<double>&, const cpu::ExecutorOptions&);
template void execute_conv_plan<float, float, float>(
    const core::SchedulePlan&, const ConvShape&, const Tensor4<float>&,
    const Tensor4<float>&, Tensor4<float>&, const cpu::ExecutorOptions&);

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
