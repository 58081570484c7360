#include "probes.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "core/decomposition.hpp"
#include "core/schedule_plan.hpp"
#include "core/work_mapping.hpp"
#include "cpu/microkernel.hpp"
#include "cpu/packing.hpp"
#include "runtime/gemm_runtime.hpp"
#include "runtime/worker_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using sk::cpu::Matrix;
using sk::gpu::Precision;
using sk::util::Half;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- FMA peak -------------------------------------------------------------

/// One vector register of T on the widest FMA extension the build targets.
template <typename T>
struct Vec;

#if defined(__AVX512F__)
template <>
struct Vec<double> {
  using V = __m512d;
  static constexpr int kLanes = 8;
  static V splat(double x) { return _mm512_set1_pd(x); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
};
template <>
struct Vec<float> {
  using V = __m512;
  static constexpr int kLanes = 16;
  static V splat(float x) { return _mm512_set1_ps(x); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
};
#elif defined(__AVX2__) && defined(__FMA__)
template <>
struct Vec<double> {
  using V = __m256d;
  static constexpr int kLanes = 4;
  static V splat(double x) { return _mm256_set1_pd(x); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
};
template <>
struct Vec<float> {
  using V = __m256;
  static constexpr int kLanes = 8;
  static V splat(float x) { return _mm256_set1_ps(x); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
};
#else
template <typename T>
struct Vec {
  using V = T;
  static constexpr int kLanes = 1;
  static V splat(T x) { return x; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
};
#endif

volatile double g_sink = 0.0;

template <typename T, typename V>
T lane_sum(const V& v) {
  T lanes[sizeof(V) / sizeof(T)];
  std::memcpy(lanes, &v, sizeof(V));
  T s = T(0);
  for (const T x : lanes) s += x;
  return s;
}

template <typename T>
double fma_peak() {
  using W = Vec<T>;
  // 12 chains: at least latency (4) x FMA ports (2), and with the two
  // constants still inside the 16 architectural ymm registers of AVX2.
  constexpr int kChains = 12;
  constexpr std::int64_t kIters = std::int64_t{1} << 21;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    typename W::V acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = W::splat(T(c) * T(1e-3));
    const typename W::V x = W::splat(T(0.999));
    const typename W::V y = W::splat(T(1e-3));
    const auto t0 = Clock::now();
    for (std::int64_t it = 0; it < kIters; ++it) {
#pragma GCC unroll 12
      for (int c = 0; c < kChains; ++c) acc[c] = W::fma(acc[c], x, y);
    }
    const double s = seconds_since(t0);
    T total = T(0);
    for (int c = 0; c < kChains; ++c) total += lane_sum<T>(acc[c]);
    g_sink = g_sink + static_cast<double>(total);
    const double flop = 2.0 * W::kLanes * kChains * static_cast<double>(kIters);
    best = std::max(best, flop / s / 1e9);
  }
  return best;
}

// --- microkernel ----------------------------------------------------------

template <typename In, typename Acc>
double microkernel_rate(sk::gpu::Precision precision) {
  const sk::gpu::BlockShape block = sk::cpu::default_cpu_block(precision);
  constexpr std::int64_t kc = sk::core::PackedPanelGeometry::kTargetPanelDepth;
  sk::util::Pcg32 rng(7);
  Matrix<In> a(block.m, kc);
  Matrix<In> b(kc, block.n);
  sk::cpu::fill_random(a, rng);
  sk::cpu::fill_random(b, rng);
  sk::cpu::PanelVector<Acc> pa(static_cast<std::size_t>(
      sk::cpu::round_up(block.m, sk::cpu::MicroTile<Acc>::kMr) * kc));
  sk::cpu::PanelVector<Acc> pb(static_cast<std::size_t>(
      sk::cpu::round_up(block.n, sk::cpu::MicroTile<Acc>::kNr) * kc));
  sk::cpu::pack_a_matrix<In, Acc>(a, 0, block.m, 0, kc, pa.data());
  sk::cpu::pack_b_matrix<In, Acc>(b, 0, kc, 0, block.n, pb.data());
  std::vector<Acc> c(static_cast<std::size_t>(block.m * block.n));
  constexpr int kReps = 400;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      sk::cpu::run_packed_mac<Acc>(pa.data(), pb.data(), block.m, block.n, kc,
                                   c.data(), block.n);
    }
    const double s = seconds_since(t0);
    const double flop = 2.0 * static_cast<double>(block.m * block.n * kc) * kReps;
    best = std::max(best, flop / s / 1e9);
  }
  g_sink = g_sink + static_cast<double>(c[0]);
  return best;
}

// --- pack -----------------------------------------------------------------

struct PackTally {
  double bytes = 0.0;
  double seconds = 0.0;
};

/// Packs all of A (m x k) and B (k x n) in the chunks one call packs
/// them in; adds the fastest of three passes to `tally`.
template <typename In, typename Acc>
void pack_problem(sk::gpu::Precision precision, sk::core::GemmShape s,
                  PackTally& tally) {
  const sk::gpu::BlockShape block = sk::cpu::default_cpu_block(precision);
  constexpr std::int64_t kc = sk::core::PackedPanelGeometry::kTargetPanelDepth;
  constexpr std::int64_t kMr = sk::cpu::MicroTile<Acc>::kMr;
  constexpr std::int64_t kNr = sk::cpu::MicroTile<Acc>::kNr;
  sk::util::Pcg32 rng(11);
  Matrix<In> a(s.m, s.k);
  Matrix<In> b(s.k, s.n);
  sk::cpu::fill_random(a, rng);
  sk::cpu::fill_random(b, rng);
  sk::cpu::PackBuffers<Acc> buffers;
  buffers.resize(block, kc);
  double bytes = 0.0;
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    bytes = 0.0;
    const auto t0 = Clock::now();
    for (std::int64_t k0 = 0; k0 < s.k; k0 += kc) {
      const std::int64_t ek = std::min(kc, s.k - k0);
      for (std::int64_t r0 = 0; r0 < s.m; r0 += block.m) {
        const std::int64_t em = std::min(block.m, s.m - r0);
        sk::cpu::pack_a_matrix<In, Acc>(a, r0, em, k0, ek, buffers.a.data());
        bytes += static_cast<double>(sk::cpu::round_up(em, kMr) * ek);
      }
      for (std::int64_t c0 = 0; c0 < s.n; c0 += block.n) {
        const std::int64_t en = std::min(block.n, s.n - c0);
        sk::cpu::pack_b_matrix<In, Acc>(b, k0, ek, c0, en, buffers.b.data());
        bytes += static_cast<double>(sk::cpu::round_up(en, kNr) * ek);
      }
    }
    const double secs = seconds_since(t0);
    best = pass == 0 ? secs : std::min(best, secs);
  }
  g_sink = g_sink + static_cast<double>(buffers.a[0] + buffers.b[0]);
  tally.bytes += bytes * static_cast<double>(sizeof(Acc));
  tally.seconds += best;
}

/// Distinct (precision, shape) problems of a workload, in first-seen order.
std::vector<std::pair<Precision, sk::core::GemmShape>> distinct_problems(
    const Workload& workload) {
  std::vector<std::pair<Precision, sk::core::GemmShape>> out;
  std::map<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>, bool>
      seen;
  for (const auto& op : workload.ops) {
    for (const auto& s : op->shapes) {
      if (seen.emplace(
                  std::tuple(static_cast<int>(op->precision), s.m, s.n, s.k),
                  true)
              .second) {
        out.emplace_back(op->precision, s);
      }
    }
  }
  return out;
}

/// Mean seconds per call of `fn` over `reps` calls.
template <typename Fn>
double mean_seconds(int reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return seconds_since(t0) / reps;
}

}  // namespace

double fma_peak_gflops(Precision precision) {
  return precision == Precision::kFp64 ? fma_peak<double>()
                                       : fma_peak<float>();
}

double microkernel_gflops(Precision precision) {
  switch (precision) {
    case Precision::kFp64:
      return microkernel_rate<double, double>(precision);
    case Precision::kFp32:
      return microkernel_rate<float, float>(precision);
    case Precision::kFp16F32:
      return microkernel_rate<Half, float>(precision);
  }
  return 0.0;
}

double pack_gbps(const Workload& workload) {
  PackTally tally;
  for (const auto& [precision, shape] : distinct_problems(workload)) {
    switch (precision) {
      case Precision::kFp64:
        pack_problem<double, double>(precision, shape, tally);
        break;
      case Precision::kFp32:
        pack_problem<float, float>(precision, shape, tally);
        break;
      case Precision::kFp16F32:
        pack_problem<Half, float>(precision, shape, tally);
        break;
    }
  }
  return tally.seconds > 0.0 ? tally.bytes / tally.seconds / 1e9 : 0.0;
}

PlannerProbe planner_probe(const Workload& workload) {
  std::vector<double> resolve, compile, hit, dispatch;
  for (const auto& [precision, shape] : distinct_problems(workload)) {
    const sk::core::WorkMapping mapping(
        shape, sk::cpu::default_cpu_block(precision));
    sk::cpu::GemmOptions options;
    options.workers = kWidth;
    sk::core::DecompositionSpec spec;
    resolve.push_back(mean_seconds(200, [&] {
      spec = sk::cpu::resolve_schedule(options, mapping, precision,
                                       kWidth);
    }));
    const auto decomposition = sk::core::make_decomposition(spec, mapping);
    std::int64_t segments = 0;
    compile.push_back(mean_seconds(10, [&] {
      segments += sk::core::compile_plan(*decomposition).total_segments();
    }));
    const sk::core::PlanKey key = sk::core::make_plan_key(mapping, spec);
    auto& cache = sk::runtime::plan_cache();
    cache.obtain(key, mapping, spec);
    hit.push_back(mean_seconds(1000, [&] {
      segments += cache.obtain(key, mapping, spec)->grid();
    }));
    dispatch.push_back(mean_seconds(1000, [&] {
      options = sk::cpu::apply_tuned_dispatch(shape, precision, options);
    }));
    g_sink = g_sink + static_cast<double>(segments);
  }
  PlannerProbe probe;
  probe.resolve_us = median(resolve) * 1e6;
  probe.plan_compile_us = median(compile) * 1e6;
  probe.plan_cache_hit_ns = median(hit) * 1e9;
  probe.dispatch_ns = median(dispatch) * 1e9;
  return probe;
}

ForkJoinProbe forkjoin_probe(std::size_t width) {
  auto& pool = sk::runtime::global_pool();
  const std::function<void(std::size_t)> body = [](std::size_t) {};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.run_region(width, body, width, sk::runtime::RegionOrder::kAscending);
    samples.push_back(seconds_since(t0) * 1e6);
  }
  const auto summary = sk::util::Summary::of(samples);
  return {summary.median, summary.p90};
}

}  // namespace perfbench
