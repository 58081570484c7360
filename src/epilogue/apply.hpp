#pragma once

// The one output-scaling + epilogue code path.
//
// Every execution substrate's store functor (plain GEMM, transposed BLAS
// views, batched GEMM, implicit-GEMM convolution) terminates here: apply a
// compiled EpiloguePlan to the accumulator tile in-register -- alpha/beta
// scale first (the scaling loop that used to be hand-rolled per substrate),
// then the chain ops in order -- and store the result.  Because these
// appliers run only from the tile owner's store (solo tiles at tile end,
// split tiles after fixup reduction), each output element passes through
// the chain exactly once; see epilogue/epilogue.hpp for the invariant.
//
// Per-row reductions accumulate locally across the row and merge into the
// caller's output vector with one atomic CAS-loop update per (tile, row) --
// a row of C spans every tile column, so tiles merging into the same row
// element may race.  Reduction results are exact for integer-valued data
// and last-bit order-dependent otherwise (documented on EpilogueSpec).
//
// apply_elementwise() is the *two-pass* formulation of the same chain (a
// second sweep over an already-scaled C), kept for A/B benching
// (bench/bench_epilogue.cpp) and as the reference the property tests
// compare the fused path against.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "epilogue/epilogue.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/threading.hpp"

namespace streamk::epilogue {

namespace detail {

/// Lock-free read-modify-write helpers for the reduction outputs.  CAS
/// loops instead of std::atomic<double>::fetch_add so no libatomic or
/// hardware FP-atomic support is assumed.
inline void atomic_max(double* target, double value) {
  std::atomic_ref<double> ref(*target);
  double current = ref.load(std::memory_order_relaxed);
  while (current < value &&
         !ref.compare_exchange_weak(current, value,
                                    std::memory_order_relaxed)) {
  }
}

inline void atomic_add(double* target, double value) {
  if (value == 0.0) return;
  std::atomic_ref<double> ref(*target);
  double current = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(current, current + value,
                                    std::memory_order_relaxed)) {
  }
}

/// Elements staged per chunk: one cache-line-friendly stack buffer that an
/// op's loop sweeps before the next op runs.  Staging per *op* rather than
/// per *element* is what makes the chain cheap -- each op below is a
/// branch-free loop over the chunk the compiler vectorizes, instead of an
/// op-switch inside the element loop (~6x slower measured).
constexpr std::int64_t kRowChunk = 256;

/// tanh_chunk's input clamp: from +-kTanhClamp on it returns exactly +-1.
inline constexpr float kTanhClamp = 7.90531110763549805f;

/// In-place fp32 tanh over a chunk of n <= kRowChunk elements.
///
/// A clamped odd rational, tanh(y) ~ y*P(y^2)/Q(y^2) with P of degree 6 and
/// Q of degree 3 in y^2 (the 13/6 minimax form of Eigen's ptanh_float),
/// written as plain loops the compiler vectorizes on every ISA.  The clamp
/// is its own loop: fused into the rational's loop, GCC (under the default
/// -ftrapping-math) threads the clamp's select into branches and the loop
/// no longer vectorizes on targets without AVX-512 masked ops.
///
/// Accuracy contract (asserted by the EpilogueMath tests): within 8 ulp of
/// std::tanh over [-10, 10] and on tiny and subnormal inputs (4.6 measured
/// with FMA contraction, 5.5 without); tanh(+-0) = +-0; exactly +-1 from
/// +-kTanhClamp on, +-Inf included; NaN stays NaN.
inline void tanh_chunk(float* t, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    t[j] = std::min(std::max(t[j], -kTanhClamp), kTanhClamp);  // keeps NaN
  }
  for (std::int64_t j = 0; j < n; ++j) {
    const float y = t[j];
    const float y2 = y * y;
    float p = -2.76076847742355e-16f;
    p = p * y2 + 2.00018790482477e-13f;
    p = p * y2 + -8.60467152213735e-11f;
    p = p * y2 + 5.12229709037114e-08f;
    p = p * y2 + 1.48572235717979e-05f;
    p = p * y2 + 6.37261928875436e-04f;
    p = p * y2 + 4.89352455891786e-03f;
    float q = 1.19825839466702e-06f;
    q = q * y2 + 1.18534705686654e-04f;
    q = q * y2 + 2.26843463243900e-03f;
    q = q * y2 + 4.89352518554385e-03f;
    // y * (p / q), not (y * p) / q: p / q is near 1 for small y, so
    // subnormal y keep their precision.
    const float r = y * (p / q);
    // At the clamp r is within 2.7e-7 of +-1; return +-1 exactly.  Both
    // arms read r (which has y's sign), so the division cannot be sunk
    // into a branch -- that too would stop the loop vectorizing.
    t[j] = std::abs(y) >= kTanhClamp ? std::copysign(1.0f, r) : r;
  }
}

/// In-place tanh-approximation GELU (the form fused into transformer
/// kernels) over a chunk of n <= kRowChunk elements:
/// v = 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))).  fp32 takes the
/// tanh from tanh_chunk; other accumulators stay on std::tanh, so fp64
/// results are the libm formula's bits.
template <typename Acc>
inline void gelu_chunk(Acc* v, std::int64_t n) {
  const Acc kSqrt2OverPi = static_cast<Acc>(0.7978845608028654);
  const Acc kCubic = static_cast<Acc>(0.044715);
  const Acc kHalf = static_cast<Acc>(0.5);
  const Acc kOne = static_cast<Acc>(1);
  if constexpr (std::is_same_v<Acc, float>) {
    float t[kRowChunk];
    for (std::int64_t j = 0; j < n; ++j) {
      t[j] = kSqrt2OverPi * (v[j] + kCubic * v[j] * v[j] * v[j]);
    }
    tanh_chunk(t, n);
    for (std::int64_t j = 0; j < n; ++j) v[j] = kHalf * v[j] * (kOne + t[j]);
  } else {
    for (std::int64_t j = 0; j < n; ++j) {
      v[j] = kHalf * v[j] *
             (kOne +
              std::tanh(kSqrt2OverPi * (v[j] + kCubic * v[j] * v[j] * v[j])));
    }
  }
}

/// In-place logistic sigmoid over a chunk of n <= kRowChunk elements.
/// fp32 evaluates it on the tanh kernel as 0.5 + 0.5 tanh(0.5 v), so there
/// is one transcendental to maintain; other accumulators stay on the libm
/// formula 1 / (1 + exp(-v)).
template <typename Acc>
inline void sigmoid_chunk(Acc* v, std::int64_t n) {
  if constexpr (std::is_same_v<Acc, float>) {
    for (std::int64_t j = 0; j < n; ++j) v[j] *= 0.5f;
    tanh_chunk(v, n);
    for (std::int64_t j = 0; j < n; ++j) v[j] = 0.5f + 0.5f * v[j];
  } else {
    for (std::int64_t j = 0; j < n; ++j) {
      v[j] = static_cast<Acc>(1) / (static_cast<Acc>(1) + std::exp(-v[j]));
    }
  }
}

/// Applies a pointwise op (relu, gelu, sigmoid or clamp) in place to a
/// chunk of n <= kRowChunk elements; other kinds leave it unchanged.  The
/// one op-to-kernel mapping, shared by the bias+activation fast path and
/// the generic chain interpreter.
template <typename Acc>
inline void pointwise_chunk(const EpilogueOp& op, Acc* v, std::int64_t n) {
  switch (op.kind) {
    case OpKind::kReLU:
      for (std::int64_t j = 0; j < n; ++j) v[j] = v[j] > Acc{} ? v[j] : Acc{};
      break;
    case OpKind::kGELU:
      gelu_chunk(v, n);
      break;
    case OpKind::kSigmoid:
      sigmoid_chunk(v, n);
      break;
    case OpKind::kClamp: {
      const Acc lo = static_cast<Acc>(op.lo);
      const Acc hi = static_cast<Acc>(op.hi);
      for (std::int64_t j = 0; j < n; ++j) {
        v[j] = v[j] < lo ? lo : (v[j] > hi ? hi : v[j]);
      }
      break;
    }
    default:
      break;
  }
}

/// One-row bias+activation: c[j] = act(a*acc[j] [+ b*c[j]] [+ bias[j]]),
/// act optional.  Per kRowChunk chunk, one of four branch-hoisted
/// straight-line loops scales into a staging buffer (converting the double
/// bias to Acc there), then `act` sweeps the buffer in place.  When Out is
/// Acc the buffer is the output itself (each element is read before it is
/// written, so acc may alias c); otherwise it is a stack buffer and one
/// more loop converts and stores it.
template <typename Acc, typename Out>
inline void bias_act_row(Acc a, Acc b, bool read_c, const double* bias,
                         const EpilogueOp* act, const Acc* acc, Out* c,
                         std::int64_t en) {
  for (std::int64_t j0 = 0; j0 < en; j0 += kRowChunk) {
    const std::int64_t cn = std::min(kRowChunk, en - j0);
    const Acc* acc_chunk = acc + j0;
    Out* c_chunk = c + j0;
    Acc staged[kRowChunk];
    Acc* v = staged;
    if constexpr (std::is_same_v<Acc, Out>) v = c_chunk;
    if (read_c) {
      if (bias != nullptr) {
        for (std::int64_t j = 0; j < cn; ++j) {
          v[j] = a * acc_chunk[j] + b * static_cast<Acc>(c_chunk[j]) +
                 static_cast<Acc>(bias[j0 + j]);
        }
      } else {
        for (std::int64_t j = 0; j < cn; ++j) {
          v[j] = a * acc_chunk[j] + b * static_cast<Acc>(c_chunk[j]);
        }
      }
    } else {
      if (bias != nullptr) {
        for (std::int64_t j = 0; j < cn; ++j) {
          v[j] = a * acc_chunk[j] + static_cast<Acc>(bias[j0 + j]);
        }
      } else {
        for (std::int64_t j = 0; j < cn; ++j) v[j] = a * acc_chunk[j];
      }
    }
    if (act != nullptr) pointwise_chunk(*act, v, cn);
    if constexpr (!std::is_same_v<Acc, Out>) {
      for (std::int64_t j = 0; j < cn; ++j) {
        c_chunk[j] = static_cast<Out>(v[j]);
      }
    }
  }
}

}  // namespace detail

/// Applies scale + chain to one contiguous output row fragment and stores
/// it: c[j] = chain(alpha * acc[j] + beta * c[j]) for j in [0, en).
///
/// `row` / `col0` are the *global* output coordinates (they index the
/// row/column bindings and the probe); `out_cols` is the full logical
/// output width (probe element indexing).  `acc` is the accumulator
/// fragment, `c` the output fragment -- they may alias (the two-pass
/// formulation passes c for both with alpha = 1, beta = 0).
template <typename Acc, typename Out>
inline void apply_row(const EpiloguePlan& plan, const EpilogueSpec& spec,
                      double alpha, double beta, std::int64_t row,
                      std::int64_t col0, std::int64_t en,
                      std::int64_t out_cols, const Acc* acc, Out* c) {
  const Acc a = static_cast<Acc>(alpha);
  const Acc b = static_cast<Acc>(beta);
  const bool read_c = beta != 0.0;

  if (plan.identity()) {
    // Pure scaling -- the fast path every unfused GEMM takes.
    if (alpha == 1.0 && !read_c) {
      for (std::int64_t j = 0; j < en; ++j) c[j] = static_cast<Out>(acc[j]);
    } else if (!read_c) {
      for (std::int64_t j = 0; j < en; ++j) {
        c[j] = static_cast<Out>(a * acc[j]);
      }
    } else {
      for (std::int64_t j = 0; j < en; ++j) {
        c[j] = static_cast<Out>(a * acc[j] + b * static_cast<Acc>(c[j]));
      }
    }
    STREAMK_OBS_COUNT("epilogue.identity_rows");
    if (EpilogueProbe::enabled()) {
      EpilogueProbe::record(row * out_cols + col0, en);
    }
    return;
  }

  if (const EpiloguePlan::BiasActPattern* fast = plan.bias_act()) {
    const double* bias =
        fast->bias_col
            ? spec.bias_col.data() + static_cast<std::size_t>(col0)
            : nullptr;
    detail::bias_act_row<Acc, Out>(a, b, read_c, bias,
                                   fast->has_act ? &fast->act : nullptr, acc,
                                   c, en);
    STREAMK_OBS_COUNT("epilogue.bias_act_rows");
    if (EpilogueProbe::enabled()) {
      EpilogueProbe::record(row * out_cols + col0, en);
    }
    return;
  }

  // Row-invariant values hoisted out of the chunk loop.
  const Acc bias_r = plan.needs_bias_row()
                         ? static_cast<Acc>(spec.bias_row[
                               static_cast<std::size_t>(row)])
                         : Acc{};
  const double* res64 = nullptr;
  const float* res32 = nullptr;
  if (plan.needs_residual()) {
    const std::size_t offset =
        static_cast<std::size_t>(row * spec.residual.ld + col0);
    if (spec.residual.type == TensorRef::Type::kF64) {
      res64 = static_cast<const double*>(spec.residual.data) + offset;
    } else {
      res32 = static_cast<const float*>(spec.residual.data) + offset;
    }
  }

  double local_abs_max = 0.0;
  double local_sum = 0.0;
  bool saw_abs_max = false;
  bool saw_sum = false;

  for (std::int64_t j0 = 0; j0 < en; j0 += detail::kRowChunk) {
    const std::int64_t cn = std::min(detail::kRowChunk, en - j0);
    Acc v[detail::kRowChunk];

    if (read_c) {
      for (std::int64_t j = 0; j < cn; ++j) {
        v[j] = a * acc[j0 + j] + b * static_cast<Acc>(c[j0 + j]);
      }
    } else {
      for (std::int64_t j = 0; j < cn; ++j) v[j] = a * acc[j0 + j];
    }

    for (const EpilogueOp& op : plan.ops()) {
      switch (op.kind) {
        case OpKind::kBiasRow:
          for (std::int64_t j = 0; j < cn; ++j) v[j] += bias_r;
          break;
        case OpKind::kBiasCol: {
          const double* bias =
              spec.bias_col.data() + static_cast<std::size_t>(col0 + j0);
          for (std::int64_t j = 0; j < cn; ++j) {
            v[j] += static_cast<Acc>(bias[j]);
          }
          break;
        }
        case OpKind::kReLU:
        case OpKind::kGELU:
        case OpKind::kSigmoid:
        case OpKind::kClamp:
          detail::pointwise_chunk(op, v, cn);
          break;
        case OpKind::kResidual:
          if (res64 != nullptr) {
            for (std::int64_t j = 0; j < cn; ++j) {
              v[j] += static_cast<Acc>(res64[j0 + j]);
            }
          } else {
            for (std::int64_t j = 0; j < cn; ++j) {
              v[j] += static_cast<Acc>(res32[j0 + j]);
            }
          }
          break;
        case OpKind::kRowAbsMax:
          for (std::int64_t j = 0; j < cn; ++j) {
            const double av = std::abs(static_cast<double>(v[j]));
            if (av > local_abs_max) local_abs_max = av;
          }
          saw_abs_max = true;
          break;
        case OpKind::kRowSum:
          for (std::int64_t j = 0; j < cn; ++j) {
            local_sum += static_cast<double>(v[j]);
          }
          saw_sum = true;
          break;
      }
    }

    for (std::int64_t j = 0; j < cn; ++j) {
      c[j0 + j] = static_cast<Out>(v[j]);
    }
  }

  if (saw_abs_max) {
    detail::atomic_max(&spec.row_abs_max[static_cast<std::size_t>(row)],
                       local_abs_max);
  }
  if (saw_sum) {
    detail::atomic_add(&spec.row_sum[static_cast<std::size_t>(row)],
                       local_sum);
  }
  STREAMK_OBS_COUNT("epilogue.generic_rows");
  if (EpilogueProbe::enabled()) {
    EpilogueProbe::record(row * out_cols + col0, en);
  }
}

/// Tile form for substrates whose output rows are contiguous: applies
/// apply_row over the em x en fragment at global origin (row0, col0).
/// `acc` strides by `acc_ld`, `c` by `c_ld`.  Note `row0` indexes the
/// *bindings* while `c` already points at the tile's first output element
/// -- batched GEMM passes the stacked global row with an entry-local
/// output pointer.  The bias+activation fast pattern is dispatched once
/// per tile here (not once per row), so its per-row cost is just the loop.
template <typename Acc, typename Out>
inline void apply_tile(const EpiloguePlan& plan, const EpilogueSpec& spec,
                       double alpha, double beta, std::int64_t row0,
                       std::int64_t col0, std::int64_t em, std::int64_t en,
                       std::int64_t out_cols, const Acc* acc,
                       std::int64_t acc_ld, Out* c, std::int64_t c_ld) {
  if (const EpiloguePlan::BiasActPattern* fast = plan.bias_act()) {
    const Acc a = static_cast<Acc>(alpha);
    const Acc b = static_cast<Acc>(beta);
    const bool read_c = beta != 0.0;
    const double* bias =
        fast->bias_col
            ? spec.bias_col.data() + static_cast<std::size_t>(col0)
            : nullptr;
    const EpilogueOp* act = fast->has_act ? &fast->act : nullptr;
    for (std::int64_t i = 0; i < em; ++i) {
      detail::bias_act_row<Acc, Out>(a, b, read_c, bias, act,
                                     acc + i * acc_ld, c + i * c_ld, en);
    }
    STREAMK_OBS_COUNT_N("epilogue.bias_act_rows", em);
    if (EpilogueProbe::enabled()) {
      for (std::int64_t i = 0; i < em; ++i) {
        EpilogueProbe::record((row0 + i) * out_cols + col0, en);
      }
    }
    return;
  }
  for (std::int64_t i = 0; i < em; ++i) {
    apply_row<Acc, Out>(plan, spec, alpha, beta, row0 + i, col0, en, out_cols,
                        acc + i * acc_ld, c + i * c_ld);
  }
}

/// The two-pass formulation: sweeps the chain over an already-scaled m x n
/// output (alpha = 1, beta = 0 -- pass one performed the scaling).  Rows
/// are distributed over `workers` via util::parallel_for so the A/B
/// against the fused path compares equal thread budgets.
template <typename Out>
inline void apply_elementwise(const EpiloguePlan& plan,
                              const EpilogueSpec& spec, std::int64_t m,
                              std::int64_t n, Out* data, std::int64_t ld,
                              std::size_t workers = 1) {
  check_bindings(plan, spec, m, n, tensor_type_of<Out>());
  util::parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t i) {
        const auto row = static_cast<std::int64_t>(i);
        Out* c_row = data + row * ld;
        apply_row<Out, Out>(plan, spec, 1.0, 0.0, row, 0, n, n, c_row,
                            c_row);
      },
      workers);
}

}  // namespace streamk::epilogue
