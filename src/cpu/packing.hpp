#pragma once

// Packed panel staging for the register-blocked MAC microkernel.
//
// Instead of staging one BLK_M x BLK_K / BLK_K x BLK_N fragment per
// MAC-loop iteration and walking it with a scalar triple loop (the seed's
// path), a segment's operands are packed once per k-chunk into the layout
// the microkernel streams:
//
//   A: ceil(em / MR) panels of MR rows, k-major within a panel --
//      element (i, k) of panel p lives at  a[p*MR*kc + k*MR + (i - p*MR)];
//   B: ceil(en / NR) panels of NR columns --
//      element (k, j) of panel q lives at  b[q*NR*kc + k*NR + (j - q*NR)].
//
// Ragged edges are handled at pack time: only the valid em x kc / kc x en
// region is read from the source, and the unused tail lanes of a partial
// panel are zero-filled so every kernel reads initialized memory.  Panel
// buffers are cache-line aligned (the microkernel still uses unaligned
// loads, so alignment is a prefetch-friendliness property, not a
// correctness one) and sized from the plan's PackedPanelGeometry, so
// steady-state traffic over one plan shape repacks into already-held
// storage and allocates nothing.
//
// The panel packers are templated on a source accessor (In -> Acc
// conversion happens during the pack, which is where the Half -> float
// widening of the fp16 path lives); pack_a / pack_b pick between that
// accessor walk and the contiguous-row fast path from the operand's strides,
// and packing.cpp instantiates both for the three supported precisions.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cpu/matrix.hpp"
#include "cpu/microkernel.hpp"
#include "gpu/block_shape.hpp"

namespace streamk::cpu {

/// Minimal aligned allocator so packed panels start on a cache line.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind: allocator_traits cannot infer it across the non-type
  /// alignment parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

template <typename Acc>
using PanelVector = std::vector<Acc, AlignedAllocator<Acc>>;

/// Round `x` up to a multiple of `unit`.
constexpr std::int64_t round_up(std::int64_t x, std::int64_t unit) {
  return (x + unit - 1) / unit * unit;
}

/// Reusable packed-panel storage for one CTA, sized for (block, panel_kc).
/// resize() to an already-held geometry allocates nothing, which is what
/// lets runtime::local_cta_buffers recycle these across submissions.
template <typename Acc>
struct PackBuffers {
  PanelVector<Acc> a;  ///< ceil(BLK_M / MR) * MR x panel_kc, panel-major
  PanelVector<Acc> b;  ///< panel_kc x ceil(BLK_N / NR) * NR, panel-major

  void resize(const gpu::BlockShape& block, std::int64_t panel_kc) {
    a.resize(static_cast<std::size_t>(
        round_up(block.m, MicroTile<Acc>::kMr) * panel_kc));
    b.resize(static_cast<std::size_t>(
        round_up(block.n, MicroTile<Acc>::kNr) * panel_kc));
  }
};

/// Packs the em x kc A sub-block into MR-row panels.  `src(i, k)` returns
/// element (i, k) of the sub-block at accumulator precision.  Zero fill is
/// confined to the single ragged final panel (when em % MR != 0): full
/// panels run a tail-free inner loop, so a full-extent tile writes no
/// padding at all.
template <typename Acc, typename SrcFn>
void pack_a_panels(std::int64_t em, std::int64_t kc, SrcFn&& src, Acc* dst) {
  constexpr std::int64_t kMr = MicroTile<Acc>::kMr;
  const std::int64_t full_panels = em / kMr;
  for (std::int64_t p = 0; p < full_panels; ++p) {
    Acc* panel = dst + p * kMr * kc;
    for (std::int64_t k = 0; k < kc; ++k) {
      Acc* col = panel + k * kMr;
      for (std::int64_t i = 0; i < kMr; ++i) col[i] = src(p * kMr + i, k);
    }
  }
  const std::int64_t mr = em - full_panels * kMr;
  if (mr == 0) return;
  Acc* panel = dst + full_panels * kMr * kc;
  for (std::int64_t k = 0; k < kc; ++k) {
    Acc* col = panel + k * kMr;
    for (std::int64_t i = 0; i < mr; ++i) col[i] = src(full_panels * kMr + i, k);
    for (std::int64_t i = mr; i < kMr; ++i) col[i] = Acc{};
  }
}

/// Packs the kc x en B sub-block into NR-column panels; `src(k, j)` returns
/// element (k, j) at accumulator precision.  As with pack_a_panels, only a
/// ragged final panel zero-fills its tail lanes.
template <typename Acc, typename SrcFn>
void pack_b_panels(std::int64_t kc, std::int64_t en, SrcFn&& src, Acc* dst) {
  constexpr std::int64_t kNr = MicroTile<Acc>::kNr;
  const std::int64_t full_panels = en / kNr;
  for (std::int64_t q = 0; q < full_panels; ++q) {
    Acc* panel = dst + q * kNr * kc;
    for (std::int64_t k = 0; k < kc; ++k) {
      Acc* row = panel + k * kNr;
      for (std::int64_t j = 0; j < kNr; ++j) row[j] = src(k, q * kNr + j);
    }
  }
  const std::int64_t nr = en - full_panels * kNr;
  if (nr == 0) return;
  Acc* panel = dst + full_panels * kNr * kc;
  for (std::int64_t k = 0; k < kc; ++k) {
    Acc* row = panel + k * kNr;
    for (std::int64_t j = 0; j < nr; ++j) row[j] = src(k, full_panels * kNr + j);
    for (std::int64_t j = nr; j < kNr; ++j) row[j] = Acc{};
  }
}

/// Packs rows [row0, row0 + em) columns [col0, col0 + kc) of `a` into
/// MR-row panels.  The packer follows the operand, not the front end that
/// called: a converting view (Half -> float) with unit column stride takes
/// the contiguous-row path -- unit-stride F16C conversion -- and everything
/// else (same-type elements, transposed operands) the accessor walk, which
/// measured faster for them.  Both write identical bytes.
template <typename In, typename Acc>
void pack_a(const OperandView<const In>& a, std::int64_t row0,
            std::int64_t em, std::int64_t col0, std::int64_t kc, Acc* dst);

/// Packs rows [row0, row0 + em) columns [col0, col0 + kc) of the implicit
/// im2col matrix into MR-row panels, gathering straight from the NHWC
/// input: each row decodes its output pixel once and walks the taps
/// (r, s, c) incrementally, copying runs of contiguous channels and writing
/// padding taps as zero.
template <typename In, typename Acc>
void pack_a(const Im2colView<const In>& a, std::int64_t row0, std::int64_t em,
            std::int64_t col0, std::int64_t kc, Acc* dst);

/// Packs rows [row0, row0 + kc) columns [col0, col0 + en) of `b` into
/// NR-column panels: the contiguous-row path (a unit-stride sweep, F16C for
/// Half) when the view's column stride is 1, the accessor walk otherwise.
template <typename In, typename Acc>
void pack_b(const OperandView<const In>& b, std::int64_t row0,
            std::int64_t kc, std::int64_t col0, std::int64_t en, Acc* dst);

/// Row-major Matrix conveniences over pack_a / pack_b.
template <typename In, typename Acc>
void pack_a_matrix(const Matrix<In>& a, std::int64_t row0, std::int64_t em,
                   std::int64_t col0, std::int64_t kc, Acc* dst) {
  pack_a<In, Acc>(OperandView<const In>(a), row0, em, col0, kc, dst);
}
template <typename In, typename Acc>
void pack_b_matrix(const Matrix<In>& b, std::int64_t row0, std::int64_t kc,
                   std::int64_t col0, std::int64_t en, Acc* dst) {
  pack_b<In, Acc>(OperandView<const In>(b), row0, kc, col0, en, dst);
}

extern template void pack_a<double, double>(const OperandView<const double>&,
                                            std::int64_t, std::int64_t,
                                            std::int64_t, std::int64_t,
                                            double*);
extern template void pack_a<float, float>(const OperandView<const float>&,
                                          std::int64_t, std::int64_t,
                                          std::int64_t, std::int64_t, float*);
extern template void pack_a<util::Half, float>(
    const OperandView<const util::Half>&, std::int64_t, std::int64_t,
    std::int64_t, std::int64_t, float*);

extern template void pack_a<double, double>(const Im2colView<const double>&,
                                            std::int64_t, std::int64_t,
                                            std::int64_t, std::int64_t,
                                            double*);
extern template void pack_a<float, float>(const Im2colView<const float>&,
                                          std::int64_t, std::int64_t,
                                          std::int64_t, std::int64_t, float*);

extern template void pack_b<double, double>(const OperandView<const double>&,
                                            std::int64_t, std::int64_t,
                                            std::int64_t, std::int64_t,
                                            double*);
extern template void pack_b<float, float>(const OperandView<const float>&,
                                          std::int64_t, std::int64_t,
                                          std::int64_t, std::int64_t, float*);
extern template void pack_b<util::Half, float>(
    const OperandView<const util::Half>&, std::int64_t, std::int64_t,
    std::int64_t, std::int64_t, float*);

}  // namespace streamk::cpu
