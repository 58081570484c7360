#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "corpus/sampler.hpp"

namespace perfbench {

namespace {

using sk::cpu::Trans;
using sk::gpu::Precision;

/// Fisher-Yates shuffle driven by the workload's generator.
template <typename T>
void shuffle(std::vector<T>& v, sk::util::Pcg32& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_below(static_cast<std::uint32_t>(i))]);
  }
}

/// `count` values spread evenly over [lo, hi], ascending.
std::vector<std::int64_t> spread_extents(std::size_t count, std::int64_t lo,
                                         std::int64_t hi) {
  std::vector<std::int64_t> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = lo + static_cast<std::int64_t>(
                    static_cast<double>(hi - lo + 1) *
                    (static_cast<double>(i) + 0.5) / static_cast<double>(count));
  }
  return v;
}

// large-gemm: three large calls, MAC-kernel bound; pack, dispatch and
// planning are a few percent of the wall time.  The fp64 shape has ragged
// edge tiles (48 x 48 blocks); the fp32 ones do not (64 x 64).  Their
// latencies are ~1.5x and ~2x apart, so latency_p50_us, a median over
// calls, is the middle call's own figure.  With two calls of near-equal
// latency in the middle, as an earlier four-call mix had, the median jumped
// between them and latency_p50_us spread 0.265 (IQR / median) over ten runs.
std::unique_ptr<Workload> large_gemm(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  sk::util::Pcg32 rng(seed, 1);
  const struct {
    Precision precision;
    sk::core::GemmShape shape;
  } calls[] = {
      {Precision::kFp32, {1536, 1536, 1536}},
      {Precision::kFp64, {1000, 1100, 1024}},
      {Precision::kFp32, {1088, 1216, 768}},
  };
  for (const auto& c : calls) {
    w->ops.push_back(
        make_gemm_op(c.precision, c.shape, Trans::kNone, Trans::kNone, rng));
  }
  return w;
}

// corpus-sweep: the paper's Fig. 4 consistency test scaled to a CPU: raw
// (unrounded) log-uniform extents in [32, 512], rotating fp64 / fp32 /
// fp16->fp32 and alternating cpu::gemm with the transposed BLAS views.
// Small shapes, where the planner, hybrid schedules with fixup and ragged
// edge kernels decide the outcome, make up most of the sample.  The
// paper's [128, 8192] is scaled down so the largest call takes
// milliseconds and all operands together (~40 MB) depend less on what
// other tenants do to the shared L3: against [32, 1024] in interleaved
// runs, the spread of latency_p50_us fell from 0.129 to 0.040.  Like the
// paper's corpus, the shape sample is fixed (the sampler's default seed),
// so geomean and p10 compare like with like; the run's seed draws the
// operands and the call order.
//
// Odd, so latency_p50_us, a median over shapes, is the middle shape's own
// figure, not the gap between two shapes' latencies.
constexpr std::size_t kCorpusShapes = 61;
std::unique_ptr<Workload> corpus_sweep(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  sk::corpus::SamplerConfig config;
  config.lo = 32;
  config.hi = 512;
  const auto shapes = sk::corpus::sample_shapes(kCorpusShapes, config);
  sk::util::Pcg32 rng(seed, 2);
  constexpr Precision kPrecisions[] = {Precision::kFp64, Precision::kFp32,
                                      Precision::kFp16F32};
  constexpr Trans kViews[][2] = {{Trans::kTranspose, Trans::kNone},
                                 {Trans::kNone, Trans::kTranspose},
                                 {Trans::kTranspose, Trans::kTranspose}};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Trans* view = kViews[(i / 2) % 3];
    const bool plain = i % 2 == 0;
    w->ops.push_back(make_gemm_op(kPrecisions[i % 3], shapes[i],
                                  plain ? Trans::kNone : view[0],
                                  plain ? Trans::kNone : view[1], rng));
  }
  shuffle(w->ops, rng);
  return w;
}

// decode-step: latency-bound decoder calls, m in [1, 64] tokens per
// problem, against fp16 expert weights that every call reuses: 24 ragged
// MoE-like groups (cpu::grouped_gemm, one token count per expert) and 24
// uniform batches submitted asynchronously (runtime::submit_batched_gemm),
// all with a fused bias_col+gelu epilogue.  Each call repacks every weight,
// so pack, dispatch, plan-cache lookup, pool submission and the epilogue
// are a large share of its time.  The token counts are spread evenly over
// [1, 64] and each group takes one from every quarter of that range, so
// every seed makes the same calls; the seed draws the operands, which
// expert gets which count, and the order.
constexpr std::size_t kExperts = 4;
constexpr std::int64_t kDecodeK = 1024;
constexpr std::int64_t kDecodeN = 512;
constexpr std::size_t kDecodeGroups = 24;
constexpr std::size_t kDecodeBatches = 24;
std::unique_ptr<Workload> decode_step(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  sk::util::Pcg32 rng(seed, 3);
  for (std::size_t e = 0; e < kExperts; ++e) {
    w->weights.experts.emplace_back(kDecodeK, kDecodeN);
    sk::cpu::fill_random(w->weights.experts.back(), rng);
  }
  for (std::int64_t j = 0; j < kDecodeN; ++j) {
    w->weights.bias.push_back(rng.uniform(-0.5, 0.5));
  }
  const auto grouped_ms = spread_extents(kDecodeGroups * kExperts, 1, 64);
  for (std::size_t g = 0; g < kDecodeGroups; ++g) {
    std::vector<std::int64_t> ms;
    for (std::size_t e = 0; e < kExperts; ++e) {
      ms.push_back(grouped_ms[g + e * kDecodeGroups]);
    }
    shuffle(ms, rng);
    w->ops.push_back(
        make_expert_op(FrontEnd::kGrouped, w->weights, ms, rng));
  }
  for (const std::int64_t m : spread_extents(kDecodeBatches, 1, 64)) {
    w->ops.push_back(make_expert_op(FrontEnd::kBatchedSubmit, w->weights,
                                    std::vector<std::int64_t>(kExperts, m),
                                    rng));
  }
  shuffle(w->ops, rng);
  return w;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "large-gemm") {
    w = large_gemm(seed);
  } else if (name == "corpus-sweep") {
    w = corpus_sweep(seed);
  } else if (name == "decode-step") {
    w = decode_step(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w->name = name;
  return w;
}

}  // namespace perfbench
