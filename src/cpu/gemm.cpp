#include "cpu/gemm.hpp"

#include <algorithm>

#include "core/schedule_plan.hpp"
#include "cpu/blas.hpp"
#include "model/grid_selector.hpp"
#include "runtime/gemm_runtime.hpp"
#include "tuner/dispatch.hpp"
#include "util/threading.hpp"

namespace streamk::cpu {

gpu::GpuSpec host_proxy_spec(std::size_t workers) {
  gpu::GpuSpec spec;
  spec.name = "host-cpu-proxy";
  spec.sm_count = static_cast<std::int64_t>(workers);
  spec.peak_fp64_tflops = 0.01 * static_cast<double>(workers);
  spec.peak_fp32_tflops = 0.02 * static_cast<double>(workers);
  spec.peak_fp16f32_tflops = 0.02 * static_cast<double>(workers);
  spec.dram_gbytes_per_s = 20.0;
  spec.l2_bytes = 1 << 20;
  return spec;
}

core::DecompositionSpec resolve_schedule(const GemmOptions& options,
                                         const core::WorkMapping& mapping,
                                         gpu::Precision precision,
                                         std::size_t workers) {
  core::DecompositionSpec spec;
  spec.sm_count = static_cast<std::int64_t>(workers);
  switch (options.schedule) {
    case Schedule::kAuto: {
      const gpu::GpuSpec proxy = host_proxy_spec(workers);
      const model::CostModel model =
          model::CostModel::calibrated(proxy, mapping.block(), precision);
      spec = model::plan(model, mapping, proxy);
      return spec;
    }
    case Schedule::kDataParallel:
      spec.kind = core::DecompositionKind::kDataParallel;
      return spec;
    case Schedule::kFixedSplit:
      spec.kind = core::DecompositionKind::kFixedSplit;
      spec.split = options.split;
      return spec;
    case Schedule::kStreamK:
      spec.kind = core::DecompositionKind::kStreamKBasic;
      spec.grid = options.grid;
      return spec;
    case Schedule::kHybridOneTile:
      spec.kind = core::DecompositionKind::kHybridOneTile;
      return spec;
    case Schedule::kHybridTwoTile:
      spec.kind = core::DecompositionKind::kHybridTwoTile;
      return spec;
  }
  util::fail("unknown schedule");
}

namespace {

/// The plain and BLAS-view front end: C = alpha * op(A) . op(B) + beta * C
/// (gemm() is the kNone/kNone case with the options' alpha and beta).
template <typename In, typename Acc, typename Out>
GemmReport gemm_job(Trans trans_a, Trans trans_b, double alpha,
                    const Matrix<In>& a, const Matrix<In>& b, double beta,
                    Matrix<Out>& c, const GemmOptions& caller_options) {
  const GemmProblem<In, Out> problem{OperandView<const In>(a, trans_a),
                                     OperandView<const In>(b, trans_b), c};
  util::check(problem.a.cols() == problem.b.rows(),
              "GEMM inner extents do not conform");
  const core::GemmShape shape{problem.a.rows(), problem.b.cols(),
                              problem.a.cols()};
  util::check(c.rows() == shape.m && c.cols() == shape.n,
              "GEMM output extents do not conform");
  GemmOptions options = caller_options;
  options.alpha = alpha;
  options.beta = beta;
  return runtime::run_front_end(
      options, precision_of<In>(), shape, /*group_digest=*/0,
      /*allow_background_find=*/true, shape.k, shape.flops(),
      [&](const gpu::BlockShape& block, const GemmOptions& o) {
        return core::WorkMapping(shape, block, o.tile_order);
      },
      runtime::single_plan,
      [&](const core::SchedulePlan& plan, const ExecutorOptions& exec) {
        execute_plan<In, Acc, Out>(plan, {&problem, 1}, exec);
      });
}

template <typename In, typename Acc, typename Out>
GemmReport plain_gemm_job(const Matrix<In>& a, const Matrix<In>& b,
                          Matrix<Out>& c, const GemmOptions& options) {
  return gemm_job<In, Acc, Out>(Trans::kNone, Trans::kNone, options.alpha, a,
                                b, options.beta, c, options);
}

}  // namespace

GemmOptions apply_tuned_dispatch(const core::GemmShape& shape,
                                 gpu::Precision precision, GemmOptions options,
                                 bool allow_background_find,
                                 std::uint64_t group_digest) {
  if (options.schedule != Schedule::kAuto || options.block.valid()) {
    return options;  // caller pinned a schedule or tile: respect it
  }
  const std::optional<tuner::TunedConfig> tuned = tuner::tuned_dispatch(
      shape, precision, std::span<const epilogue::EpilogueOp>(
                            options.epilogue.ops),
      allow_background_find ? tuner::DispatchFind::kAllowed
                            : tuner::DispatchFind::kLookupOnly,
      group_digest);
  if (!tuned) return options;
  const GemmOptions t = tuner::tuned_options(*tuned);
  options.schedule = t.schedule;
  options.block = t.block;
  options.grid = t.grid;
  options.split = t.split;
  if (options.panel_cache == PanelCacheMode::kAuto) {
    // The db's measured verdict on panel sharing applies only when the
    // caller has not forced the knob (kAuto is the only tunable state, so
    // this mirrors the schedule/block pinning rule above).
    options.panel_cache = t.panel_cache;
  }
  if (options.workers == 0 && t.workers > 0) {
    // Cap at the host default: a database tuned on a wider machine may
    // mis-rank schedules here, but it must not oversubscribe this one
    // (see the time-base caveat in tuner/tuning_db.hpp).
    options.workers = std::min(t.workers, util::default_workers());
  }
  return options;
}

bool tuned_dispatch_feasible(const GemmOptions& options,
                             gpu::Precision precision, std::int64_t k) {
  const bool block_set =
      options.block.m != 0 || options.block.n != 0 || options.block.k != 0;
  if (block_set && !options.block.valid()) return false;
  const gpu::BlockShape block =
      options.block.valid() ? options.block : default_cpu_block(precision);
  const std::int64_t iters_per_tile =
      std::max<std::int64_t>(1, core::ceil_div(k, block.k));
  if (options.schedule == Schedule::kFixedSplit &&
      (options.split < 1 || options.split > iters_per_tile)) {
    return false;
  }
  if (options.schedule == Schedule::kStreamK && options.grid < 0) return false;
  return true;
}

gpu::BlockShape default_cpu_block(gpu::Precision precision) {
  switch (precision) {
    case gpu::Precision::kFp64:
      return {48, 48, 16};
    case gpu::Precision::kFp32:
    case gpu::Precision::kFp16F32:
      return {64, 64, 16};
  }
  util::fail("unknown precision");
}

// Sync entry points are submit-then-get wrappers over the async runtime:
// the whole operation is one pool job, and get() work-steals it onto the
// calling thread when every pool worker is busy.

GemmReport gemm(const Matrix<double>& a, const Matrix<double>& b,
                Matrix<double>& c, const GemmOptions& options) {
  return runtime::submit_gemm(a, b, c, options).get();
}

GemmReport gemm(const Matrix<float>& a, const Matrix<float>& b,
                Matrix<float>& c, const GemmOptions& options) {
  return runtime::submit_gemm(a, b, c, options).get();
}

GemmReport gemm(const Matrix<util::Half>& a, const Matrix<util::Half>& b,
                Matrix<float>& c, const GemmOptions& options) {
  return runtime::submit_gemm(a, b, c, options).get();
}

GemmReport dgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<double>& a, const Matrix<double>& b,
                 double beta, Matrix<double>& c, const GemmOptions& options) {
  return runtime::submit_dgemm(trans_a, trans_b, alpha, a, b, beta, c,
                               options)
      .get();
}

GemmReport sgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<float>& a, const Matrix<float>& b, double beta,
                 Matrix<float>& c, const GemmOptions& options) {
  return runtime::submit_sgemm(trans_a, trans_b, alpha, a, b, beta, c,
                               options)
      .get();
}

GemmReport hgemm(Trans trans_a, Trans trans_b, double alpha,
                 const Matrix<util::Half>& a, const Matrix<util::Half>& b,
                 double beta, Matrix<float>& c, const GemmOptions& options) {
  return runtime::submit_hgemm(trans_a, trans_b, alpha, a, b, beta, c,
                               options)
      .get();
}

}  // namespace streamk::cpu

namespace streamk::runtime {

core::PlanCache& plan_cache() {
  // Intentionally immortal (reachable via the static pointer, so not a
  // leak): pool workers may still drain queued jobs during static
  // destruction, after a function-local static would already be gone.
  static core::PlanCache* cache = new core::PlanCache();
  return *cache;
}

core::PlanCache::PlanPtr single_plan(const core::WorkMapping& mapping,
                                     const core::DecompositionSpec& spec) {
  return plan_cache().obtain(core::make_plan_key(mapping, spec), mapping,
                             spec);
}

core::PlanCache::PlanPtr grouped_plan(std::span<const core::GemmShape> shapes,
                                      const gpu::BlockShape& block,
                                      const core::DecompositionSpec& spec) {
  const core::GroupedMapping grouped(shapes, block);
  return plan_cache().obtain(core::make_grouped_plan_key(grouped, spec),
                             grouped, spec);
}

GemmHandle submit_gemm(const cpu::Matrix<double>& a,
                       const cpu::Matrix<double>& b, cpu::Matrix<double>& c,
                       const cpu::GemmOptions& options) {
  return submit_job(cpu::plain_gemm_job<double, double, double>, std::cref(a),
                    std::cref(b), std::ref(c), options);
}

GemmHandle submit_gemm(const cpu::Matrix<float>& a,
                       const cpu::Matrix<float>& b, cpu::Matrix<float>& c,
                       const cpu::GemmOptions& options) {
  return submit_job(cpu::plain_gemm_job<float, float, float>, std::cref(a),
                    std::cref(b), std::ref(c), options);
}

GemmHandle submit_gemm(const cpu::Matrix<util::Half>& a,
                       const cpu::Matrix<util::Half>& b, cpu::Matrix<float>& c,
                       const cpu::GemmOptions& options) {
  return submit_job(cpu::plain_gemm_job<util::Half, float, float>,
                    std::cref(a), std::cref(b), std::ref(c), options);
}

GemmHandle submit_dgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<double>& a,
                        const cpu::Matrix<double>& b, double beta,
                        cpu::Matrix<double>& c,
                        const cpu::GemmOptions& options) {
  return submit_job(cpu::gemm_job<double, double, double>, trans_a, trans_b,
                    alpha, std::cref(a), std::cref(b), beta, std::ref(c),
                    options);
}

GemmHandle submit_sgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<float>& a,
                        const cpu::Matrix<float>& b, double beta,
                        cpu::Matrix<float>& c,
                        const cpu::GemmOptions& options) {
  return submit_job(cpu::gemm_job<float, float, float>, trans_a, trans_b,
                    alpha, std::cref(a), std::cref(b), beta, std::ref(c),
                    options);
}

GemmHandle submit_hgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<util::Half>& a,
                        const cpu::Matrix<util::Half>& b, double beta,
                        cpu::Matrix<float>& c,
                        const cpu::GemmOptions& options) {
  return submit_job(cpu::gemm_job<util::Half, float, float>, trans_a,
                    trans_b, alpha, std::cref(a), std::cref(b), beta,
                    std::ref(c), options);
}

}  // namespace streamk::runtime
