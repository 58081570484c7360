#include "cpu/mac_loop.hpp"

#include <algorithm>

#include "cpu/microkernel.hpp"

namespace streamk::cpu {

template <typename In, typename Acc, typename AView>
void mac_segment(const core::SchedulePlan& plan, const core::TileRef& tile,
                 const std::type_identity_t<AView>& a,
                 const OperandView<const In>& b,
                 const core::TileSegment& seg, std::span<Acc> accum,
                 MacScratch<Acc>& scratch, PanelCache<Acc>* cache) {
  const gpu::BlockShape& blk = plan.block();
  util::check(accum.size() ==
                  static_cast<std::size_t>(blk.tile_elements()),
              "accumulator span size mismatch");
  util::check(scratch.panel_kc() >= blk.k, "pack scratch not sized");

  // Extents come from the operands themselves, so a problem's ragged edge
  // (and a group's per-problem shape) needs no mapping lookup.
  const std::int64_t mm = tile.tm * blk.m;
  const std::int64_t nn = tile.tn * blk.n;
  const std::int64_t em = std::min(blk.m, a.rows() - mm);
  const std::int64_t en = std::min(blk.n, b.cols() - nn);

  // A segment's iterations are contiguous in k, so the whole segment is one
  // k range; pack and multiply it panel_kc elements at a time.  Chunks that
  // line up with the shared arena's absolute-k grid come from the cache;
  // the rest (and everything when cache == nullptr) pack privately.  A
  // k == 0 problem yields an empty range while the segment still drives
  // the beta/epilogue store.
  const std::int64_t k_total = a.cols();
  const std::int64_t k_begin = seg.iter_begin * blk.k;
  const std::int64_t k_end = std::min(seg.iter_end * blk.k, k_total);
  const auto [row_key, col_key] = plan.panel_keys(tile);
  run_cached_chunks<Acc>(
      cache, row_key, col_key, em, en, k_begin, k_end, k_total,
      scratch.panel_kc(),
      [&](std::int64_t k0, std::int64_t kc, Acc* dst) {
        pack_a<In, Acc>(a, mm, em, k0, kc, dst);
      },
      [&](std::int64_t k0, std::int64_t kc, Acc* dst) {
        pack_b<In, Acc>(b, k0, kc, nn, en, dst);
      },
      scratch.packs, accum.data(), blk.n);
}

template void mac_segment<double, double>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const double>&, const OperandView<const double>&,
    const core::TileSegment&, std::span<double>, MacScratch<double>&,
    PanelCache<double>*);
template void mac_segment<float, float>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const float>&, const OperandView<const float>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);
template void mac_segment<util::Half, float>(
    const core::SchedulePlan&, const core::TileRef&,
    const OperandView<const util::Half>&, const OperandView<const util::Half>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);
template void mac_segment<double, double, Im2colView<const double>>(
    const core::SchedulePlan&, const core::TileRef&,
    const Im2colView<const double>&, const OperandView<const double>&,
    const core::TileSegment&, std::span<double>, MacScratch<double>&,
    PanelCache<double>*);
template void mac_segment<float, float, Im2colView<const float>>(
    const core::SchedulePlan&, const core::TileRef&,
    const Im2colView<const float>&, const OperandView<const float>&,
    const core::TileSegment&, std::span<float>, MacScratch<float>&,
    PanelCache<float>*);

}  // namespace streamk::cpu
