#pragma once

// CTA-wide MacLoop (Algorithm 3 of the paper), CPU edition.
//
// Performs a range of MAC-loop iterations for one output tile.  The
// operands are packed once per k-chunk into register-blocked panels
// (cpu/packing.hpp) at accumulator precision, then consumed by the MR x NR
// microkernel (cpu/microkernel.hpp) -- the CPU analogue of the
// shared-memory staging plus warp-tile MMA of CUTLASS kernels.  Ragged tile
// edges are resolved at pack time and by dedicated edge kernels, so a
// partial tile performs only em * en-proportional work instead of the full
// block volume.

#include <span>
#include <type_traits>

#include "core/schedule_plan.hpp"
#include "cpu/matrix.hpp"
#include "cpu/packing.hpp"
#include "cpu/panel_cache.hpp"

namespace streamk::cpu {

/// Scratch buffers for one CTA's operand staging, sized for a block shape
/// and packed-chunk depth; reused across segments to avoid per-segment
/// allocation, and resizable so runtime::local_cta_buffers can recycle them
/// across submissions (resize to an already-held shape allocates nothing).
template <typename Acc>
struct MacScratch {
  PackBuffers<Acc> packs;  ///< microkernel panels, panel_kc deep

  MacScratch() = default;
  explicit MacScratch(const gpu::BlockShape& block) { resize(block); }
  MacScratch(const gpu::BlockShape& block, std::int64_t panel_kc) {
    resize(block, panel_kc);
  }

  /// Sizes the packing buffers for `block` with chunks of `panel_kc`
  /// accumulator elements along k (defaults to one MAC-loop iteration's
  /// depth).
  void resize(const gpu::BlockShape& block, std::int64_t panel_kc = 0) {
    panel_kc_ = panel_kc > 0 ? panel_kc : block.k;
    packs.resize(block, std::max(panel_kc_, block.k));
  }

  /// The k depth one packed chunk holds (>= BLK_K).
  std::int64_t panel_kc() const { return panel_kc_; }

 private:
  std::int64_t panel_kc_ = 0;
};

/// Accumulates segment `seg` of tile `tile` (resolved by
/// plan.tile_ref(seg.tile_idx)) of the GEMM op(A) . op(B) given by the views
/// `a` (m x k) and `b` (k x n) into `accum` (BLK_M x BLK_N, row-major).  The
/// caller zero-initializes `accum` before the first segment of a tile; only
/// the valid em x en corner is written, so the padding region of an edge
/// tile stays zero.  Every front end (plain, BLAS views, batched, grouped,
/// convolution) runs through this one routine; `AView` (named, never
/// deduced) is the A operand's kind -- a strided OperandView, or
/// convolution's Im2colView -- and pack_a / pack_b pick the packer from the
/// views.  With a non-null `cache`, chunk panels aligned to the shared arena's grid are packed once
/// per GEMM instead of once per tile (see cpu/panel_cache.hpp), keyed by
/// plan.panel_keys(tile); a null cache packs privately.
template <typename In, typename Acc, typename AView = OperandView<const In>>
void mac_segment(const core::SchedulePlan& plan, const core::TileRef& tile,
                 const std::type_identity_t<AView>& a,
                 const OperandView<const In>& b,
                 const core::TileSegment& seg, std::span<Acc> accum,
                 MacScratch<Acc>& scratch, PanelCache<Acc>* cache = nullptr);

extern template void mac_segment<double, double>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const double>&, const OperandView<const double>&,
    const core::TileSegment&, std::span<double>, MacScratch<double>&,
    PanelCache<double>*);
extern template void mac_segment<float, float>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const float>&, const OperandView<const float>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);
extern template void mac_segment<util::Half, float>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const util::Half>&, const OperandView<const util::Half>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);
extern template void mac_segment<double, double, Im2colView<const double>>(
    const core::SchedulePlan&, const core::TileRef&,
    const Im2colView<const double>&, const OperandView<const double>&,
    const core::TileSegment&, std::span<double>, MacScratch<double>&,
    PanelCache<double>*);
extern template void mac_segment<float, float, Im2colView<const float>>(
    const core::SchedulePlan&, const core::TileRef&,
    const Im2colView<const float>&, const OperandView<const float>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);

}  // namespace streamk::cpu
