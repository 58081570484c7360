#include "cpu/packing.hpp"

#include <algorithm>
#include <type_traits>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace streamk::cpu {

namespace {

/// Converts `count` contiguous source elements to Acc.  The Half -> float
/// case carries an F16C fast path (vcvtph2ps, 8 lanes per instruction):
/// Half stores IEEE binary16 bits, which is exactly the hardware format,
/// and the scalar decode's branchy bit manipulation is expensive enough to
/// dominate fp16 packing otherwise.
template <typename In, typename Acc>
inline void convert_row(const In* src, std::int64_t count, Acc* dst) {
  for (std::int64_t j = 0; j < count; ++j) dst[j] = static_cast<Acc>(src[j]);
}

#if defined(__F16C__)
inline void convert_row(const util::Half* src, std::int64_t count,
                        float* dst) {
  static_assert(sizeof(util::Half) == 2, "Half must be raw binary16 bits");
  std::int64_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
    _mm256_storeu_ps(dst + j, _mm256_cvtph_ps(bits));
  }
  for (; j < count; ++j) dst[j] = static_cast<float>(src[j]);
}
#endif

/// Contiguous-row A pack: `src` points at element (0, 0) of the em x kc
/// sub-block, rows are `ld` elements apart, elements within a row adjacent.
template <typename In, typename Acc>
void pack_a_rows(const In* src, std::int64_t ld, std::int64_t em,
                 std::int64_t kc, Acc* dst) {
  constexpr std::int64_t kMr = MicroTile<Acc>::kMr;
  const std::int64_t panels = (em + kMr - 1) / kMr;
  // Each source row is contiguous along k: convert a stretch of the row at
  // unit stride (vectorizable, F16C for Half), then scatter it into the
  // panel's k-major layout.  Only the final panel of an MR-ragged em needs
  // its tail lanes zeroed; full-extent tiles never execute fill code.
  for (std::int64_t p = 0; p < panels; ++p) {
    Acc* panel = dst + p * kMr * kc;
    const std::int64_t mr = std::min(kMr, em - p * kMr);
    Acc row[128];
    for (std::int64_t i = 0; i < mr; ++i) {
      const In* src_row = src + (p * kMr + i) * ld;
      for (std::int64_t k0 = 0; k0 < kc; k0 += 128) {
        const std::int64_t chunk = std::min<std::int64_t>(128, kc - k0);
        convert_row(src_row + k0, chunk, row);
        for (std::int64_t k = 0; k < chunk; ++k) {
          panel[(k0 + k) * kMr + i] = row[k];
        }
      }
    }
    if (mr == kMr) continue;  // full panel: no tail to zero
    for (std::int64_t i = mr; i < kMr; ++i) {
      for (std::int64_t k = 0; k < kc; ++k) panel[k * kMr + i] = Acc{};
    }
  }
}

/// Contiguous-row B pack: `src` points at element (0, 0) of the kc x en
/// sub-block, rows `ld` elements apart.
template <typename In, typename Acc>
void pack_b_rows(const In* src, std::int64_t ld, std::int64_t kc,
                 std::int64_t en, Acc* dst) {
  constexpr std::int64_t kNr = MicroTile<Acc>::kNr;
  const std::int64_t full_panels = en / kNr;
  // B packs row-by-row within a panel (source rows are contiguous), so the
  // copy is a unit-stride sweep (F16C-converted for Half) rather than the
  // generic accessor walk.  Full panels run a tail-free inner loop; the
  // per-k zero fill exists only in the single ragged final panel (if any),
  // so a full-extent tile's pack writes no padding at all.
  for (std::int64_t q = 0; q < full_panels; ++q) {
    Acc* panel = dst + q * kNr * kc;
    for (std::int64_t k = 0; k < kc; ++k) {
      convert_row(src + k * ld + q * kNr, kNr, panel + k * kNr);
    }
  }
  const std::int64_t nr = en - full_panels * kNr;
  if (nr == 0) return;
  Acc* panel = dst + full_panels * kNr * kc;
  for (std::int64_t k = 0; k < kc; ++k) {
    Acc* row = panel + k * kNr;
    convert_row(src + k * ld + full_panels * kNr, nr, row);
    for (std::int64_t j = nr; j < kNr; ++j) row[j] = Acc{};
  }
}

}  // namespace

template <typename In, typename Acc>
void pack_a(const OperandView<const In>& a, std::int64_t row0,
            std::int64_t em, std::int64_t col0, std::int64_t kc, Acc* dst) {
  // The contiguous-row packer pays only when it converts (Half rows widen
  // 8 lanes at a time).  Without a conversion the accessor walk is faster
  // inside a running GEMM: taking the row packer for same-type A made
  // cpu::gemm 5-16% slower (fp64) and 6-10% slower (fp32) on m x 40..52 x k
  // shapes, 1 worker, 4-vCPU x86-64 AVX2 host.
  if constexpr (!std::is_same_v<In, Acc>) {
    if (a.col_stride() == 1) {
      pack_a_rows(a.ptr(row0, col0), a.row_stride(), em, kc, dst);
      return;
    }
  }
  pack_a_panels<Acc>(
      em, kc,
      [&](std::int64_t i, std::int64_t k) {
        return static_cast<Acc>(a.at(row0 + i, col0 + k));
      },
      dst);
}

template <typename In, typename Acc>
void pack_a(const Im2colView<const In>& a, std::int64_t row0, std::int64_t em,
            std::int64_t col0, std::int64_t kc, Acc* dst) {
  constexpr std::int64_t kMr = MicroTile<Acc>::kMr;
  const conv::ConvShape& conv = a.conv();
  const std::int64_t channels = conv.in_channels;
  const std::int64_t pixel_elems = conv.width * channels;
  const std::int64_t image_elems = conv.height * pixel_elems;
  const std::int64_t out_h = conv.out_h();
  const std::int64_t out_w = conv.out_w();
  // Every row walks the same taps: decode the first one once per pack.
  const std::int64_t c0 = col0 % channels;
  const std::int64_t s0 = col0 / channels % conv.filter_w;
  const std::int64_t r0 = col0 / channels / conv.filter_w;
  // Output pixel of row0; later rows step (n, p, q) without dividing.
  std::int64_t q = row0 % out_w;
  std::int64_t p = row0 / out_w % out_h;
  std::int64_t n = row0 / out_w / out_h;
  for (std::int64_t i = 0; i < em; ++i) {
    Acc* lane = dst + i / kMr * kMr * kc + i % kMr;
    const In* image = a.data() + n * image_elems;
    const std::int64_t h0 = p * conv.stride - conv.pad;
    const std::int64_t w0 = q * conv.stride - conv.pad;
    std::int64_t r = r0;
    std::int64_t s = s0;
    std::int64_t c = c0;
    for (std::int64_t k = 0; k < kc;) {
      // One tap's run of channels is contiguous in NHWC (or all padding).
      const std::int64_t run = std::min(channels - c, kc - k);
      const std::int64_t h = h0 + r;
      const std::int64_t w = w0 + s;
      if (h >= 0 && h < conv.height && w >= 0 && w < conv.width) {
        const In* src = image + h * pixel_elems + w * channels + c;
        for (std::int64_t j = 0; j < run; ++j) {
          lane[(k + j) * kMr] = static_cast<Acc>(src[j]);
        }
      } else {
        for (std::int64_t j = 0; j < run; ++j) lane[(k + j) * kMr] = Acc{};
      }
      k += run;
      c = 0;
      if (++s == conv.filter_w) {
        s = 0;
        ++r;
      }
    }
    if (++q == out_w) {
      q = 0;
      if (++p == out_h) {
        p = 0;
        ++n;
      }
    }
  }
  // Only the final panel of an MR-ragged em has tail lanes to zero.
  const std::int64_t mr = em % kMr;
  if (mr == 0) return;
  Acc* panel = dst + em / kMr * kMr * kc;
  for (std::int64_t k = 0; k < kc; ++k) {
    for (std::int64_t i = mr; i < kMr; ++i) panel[k * kMr + i] = Acc{};
  }
}

template <typename In, typename Acc>
void pack_b(const OperandView<const In>& b, std::int64_t row0,
            std::int64_t kc, std::int64_t col0, std::int64_t en, Acc* dst) {
  if (b.col_stride() == 1) {
    pack_b_rows(b.ptr(row0, col0), b.row_stride(), kc, en, dst);
    return;
  }
  pack_b_panels<Acc>(
      kc, en,
      [&](std::int64_t k, std::int64_t j) {
        return static_cast<Acc>(b.at(row0 + k, col0 + j));
      },
      dst);
}

template void pack_a<double, double>(const OperandView<const double>&,
                                     std::int64_t, std::int64_t, std::int64_t,
                                     std::int64_t, double*);
template void pack_a<float, float>(const OperandView<const float>&,
                                   std::int64_t, std::int64_t, std::int64_t,
                                   std::int64_t, float*);
template void pack_a<util::Half, float>(const OperandView<const util::Half>&,
                                        std::int64_t, std::int64_t,
                                        std::int64_t, std::int64_t, float*);

template void pack_a<double, double>(const Im2colView<const double>&,
                                     std::int64_t, std::int64_t, std::int64_t,
                                     std::int64_t, double*);
template void pack_a<float, float>(const Im2colView<const float>&,
                                   std::int64_t, std::int64_t, std::int64_t,
                                   std::int64_t, float*);

template void pack_b<double, double>(const OperandView<const double>&,
                                     std::int64_t, std::int64_t, std::int64_t,
                                     std::int64_t, double*);
template void pack_b<float, float>(const OperandView<const float>&,
                                   std::int64_t, std::int64_t, std::int64_t,
                                   std::int64_t, float*);
template void pack_b<util::Half, float>(const OperandView<const util::Half>&,
                                        std::int64_t, std::int64_t,
                                        std::int64_t, std::int64_t, float*);

}  // namespace streamk::cpu
