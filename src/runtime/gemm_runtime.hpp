#pragma once

// The one call path of every GEMM-family front end, and its asynchronous
// submission onto the persistent worker pool.
//
// Call path.  Plain GEMM, the BLAS transpose entry points, batched GEMM,
// grouped GEMM and implicit-GEMM convolution differ only in what they hand
// run_front_end(): the tuning-db key (shape, group digest, background-find
// policy), the k a tuned record must be feasible for, the mapping the kAuto
// planner reasons over, how to obtain the plan from runtime::plan_cache(),
// the useful flops, and the executor to run.  run_front_end() owns the rest
// -- tuned dispatch, blocking and worker resolution, schedule resolution,
// the kGemm trace span and gemm.calls counter, timing, and the GemmReport --
// so every front end is observed and reported the same way.  All five
// then execute through one cpu::execute_plan: the GEMM family over strided
// operand views, convolution over the implicit im2col view of its input.
//
// Submission.  Every front end has a submit_* twin here that enqueues the
// whole front-end call as one pool job (submit_job) and returns a
// future-based GemmHandle.  Multiple independent submissions are in flight
// concurrently, each claiming CTA tickets from its own compiled plan while
// sharing the one process-wide pool; the inner parallel-for of a running
// job recruits idle pool workers as helpers (see worker_pool.hpp).
//
// The synchronous entry points (cpu::gemm, cpu::batched_gemm, cpu::dgemm,
// conv::conv_forward, ...) are submit-then-get wrappers, so existing
// callers transparently execute through the pool-backed path.
// GemmHandle::get() work-steals: when no pool worker has claimed the job
// yet, the getter runs it inline, so a sync wrapper can never deadlock --
// not even when called from inside another pool job.
//
// Lifetime: operands are captured by reference.  They must outlive the
// handle's get()/wait() -- trivially true for the sync wrappers; async
// callers keep them alive exactly as they would for a std::thread.
// Exceptions thrown by the submitted operation (shape mismatches, aliased
// operands, malformed schedules) are captured and rethrown from
// GemmHandle::get().

#include <chrono>
#include <functional>
#include <utility>

#include "conv/implicit_gemm.hpp"
#include "core/schedule_plan.hpp"
#include "cpu/batched.hpp"
#include "cpu/blas.hpp"
#include "cpu/gemm.hpp"
#include "cpu/grouped.hpp"
#include "obs/obs.hpp"
#include "runtime/worker_pool.hpp"
#include "util/threading.hpp"

namespace streamk::runtime {

/// Future for an in-flight GEMM-family submission.
using GemmHandle = TaskHandle<cpu::GemmReport>;

/// Process-wide compiled-plan cache shared by every front end: repeated
/// traffic over one (shape, block, schedule, workers) key executes a
/// pointer-identical SchedulePlan instead of recompiling per call --
/// the submission-side counterpart of the workspace pooling.
core::PlanCache& plan_cache();

/// plan_cache() lookups for the two plan flavors front ends run: one
/// problem over `mapping`, or the group `shapes` (in order) at `block`.
core::PlanCache::PlanPtr single_plan(const core::WorkMapping& mapping,
                                     const core::DecompositionSpec& spec);
core::PlanCache::PlanPtr grouped_plan(std::span<const core::GemmShape> shapes,
                                      const gpu::BlockShape& block,
                                      const core::DecompositionSpec& spec);

/// The one call path every front end runs (blocking, inside its pool job):
/// consults the tuning db under (`tuner_shape`, `group_digest`) -- never
/// starting a background find unless `allow_background_find` -- and falls
/// back to the caller's options when the tuned record is infeasible for
/// `feasibility_k`; resolves the blocking factor and worker count; resolves
/// the schedule over `planner_mapping(block, options)` (the mapping kAuto
/// reasons over); takes the plan from `obtain_plan(planner, spec)`; and
/// times `execute(plan, exec_options)` inside one kGemm span.  `flops` is
/// the useful work the report's GFLOP/s divides.
template <typename PlannerFn, typename PlanFn, typename ExecFn>
cpu::GemmReport run_front_end(const cpu::GemmOptions& caller_options,
                              gpu::Precision precision,
                              const core::GemmShape& tuner_shape,
                              std::uint64_t group_digest,
                              bool allow_background_find,
                              std::int64_t feasibility_k, double flops,
                              PlannerFn&& planner_mapping,
                              PlanFn&& obtain_plan, ExecFn&& execute) {
  cpu::GemmOptions options =
      cpu::apply_tuned_dispatch(tuner_shape, precision, caller_options,
                                allow_background_find, group_digest);
  if (!cpu::tuned_dispatch_feasible(options, precision, feasibility_k)) {
    // A db record can legally disagree with the real k (hand-edited files,
    // digest collisions): run the caller's request rather than fail.
    options = caller_options;
  }
  const gpu::BlockShape block = options.block.valid()
                                    ? options.block
                                    : cpu::default_cpu_block(precision);
  const std::size_t workers =
      options.workers > 0 ? options.workers : util::default_workers();
  const core::WorkMapping planner = planner_mapping(block, options);
  const core::DecompositionSpec spec =
      cpu::resolve_schedule(options, planner, precision, workers);
  const core::PlanCache::PlanPtr plan = obtain_plan(planner, spec);

  cpu::ExecutorOptions exec;
  exec.workers = workers;
  exec.alpha = options.alpha;
  exec.beta = options.beta;
  exec.epilogue = options.epilogue;
  exec.panel_cache = options.panel_cache;

  const auto start = std::chrono::steady_clock::now();
  {
    STREAMK_OBS_SPAN(kGemm, plan->grid(), plan->tiles());
    execute(*plan, exec);
  }
  STREAMK_OBS_COUNT("gemm.calls");
  const auto stop = std::chrono::steady_clock::now();

  cpu::GemmReport report;
  report.spec = spec;
  report.schedule_name = plan->name();
  report.grid = plan->grid();
  report.tiles = plan->tiles();
  report.spills = plan->total_spills();
  report.seconds = std::chrono::duration<double>(stop - start).count();
  report.gflops = report.seconds > 0.0 ? flops / report.seconds / 1e9 : 0.0;
  return report;
}

/// Enqueues `job(args...)` -- a front end's body, which calls
/// run_front_end -- as one pool job.  Arguments are copied into the job:
/// pass operands through std::cref / std::ref (they must outlive get()),
/// spans and options by value.
template <typename Fn, typename... Args>
GemmHandle submit_job(Fn job, Args... args) {
  return global_pool().async(
      [job, ... args = std::move(args)] { return job(args...); });
}

// --- plain GEMM (cpu/gemm.cpp) --------------------------------------------

GemmHandle submit_gemm(const cpu::Matrix<double>& a,
                       const cpu::Matrix<double>& b, cpu::Matrix<double>& c,
                       const cpu::GemmOptions& options = {});
GemmHandle submit_gemm(const cpu::Matrix<float>& a,
                       const cpu::Matrix<float>& b, cpu::Matrix<float>& c,
                       const cpu::GemmOptions& options = {});
GemmHandle submit_gemm(const cpu::Matrix<util::Half>& a,
                       const cpu::Matrix<util::Half>& b,
                       cpu::Matrix<float>& c,
                       const cpu::GemmOptions& options = {});

// --- batched GEMM (cpu/batched.cpp) ---------------------------------------

GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<double>> as,
                               std::span<const cpu::Matrix<double>> bs,
                               std::span<cpu::Matrix<double>> cs,
                               const cpu::GemmOptions& options = {});
GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<float>> as,
                               std::span<const cpu::Matrix<float>> bs,
                               std::span<cpu::Matrix<float>> cs,
                               const cpu::GemmOptions& options = {});
GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<util::Half>> as,
                               std::span<const cpu::Matrix<util::Half>> bs,
                               std::span<cpu::Matrix<float>> cs,
                               const cpu::GemmOptions& options = {});

// --- grouped (ragged-batch) GEMM (cpu/grouped.cpp) ------------------------

GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<double>> as,
    std::span<const cpu::Matrix<double>> bs, std::span<cpu::Matrix<double>> cs,
    const cpu::GemmOptions& options = {},
    std::span<const epilogue::EpilogueSpec> problem_epilogues = {});
GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<float>> as,
    std::span<const cpu::Matrix<float>> bs, std::span<cpu::Matrix<float>> cs,
    const cpu::GemmOptions& options = {},
    std::span<const epilogue::EpilogueSpec> problem_epilogues = {});
GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<util::Half>> as,
    std::span<const cpu::Matrix<util::Half>> bs,
    std::span<cpu::Matrix<float>> cs, const cpu::GemmOptions& options = {},
    std::span<const epilogue::EpilogueSpec> problem_epilogues = {});

// --- BLAS transpose entry points (cpu/blas.cpp) ---------------------------

GemmHandle submit_dgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<double>& a,
                        const cpu::Matrix<double>& b, double beta,
                        cpu::Matrix<double>& c,
                        const cpu::GemmOptions& options = {});
GemmHandle submit_sgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<float>& a,
                        const cpu::Matrix<float>& b, double beta,
                        cpu::Matrix<float>& c,
                        const cpu::GemmOptions& options = {});
GemmHandle submit_hgemm(cpu::Trans trans_a, cpu::Trans trans_b, double alpha,
                        const cpu::Matrix<util::Half>& a,
                        const cpu::Matrix<util::Half>& b, double beta,
                        cpu::Matrix<float>& c,
                        const cpu::GemmOptions& options = {});

// --- implicit-GEMM convolution (conv/implicit_gemm.cpp) -------------------

GemmHandle submit_conv_forward(const conv::ConvShape& conv,
                               const conv::Tensor4<double>& input,
                               const conv::Tensor4<double>& filter,
                               conv::Tensor4<double>& output,
                               const cpu::GemmOptions& options = {});
GemmHandle submit_conv_forward(const conv::ConvShape& conv,
                               const conv::Tensor4<float>& input,
                               const conv::Tensor4<float>& filter,
                               conv::Tensor4<float>& output,
                               const cpu::GemmOptions& options = {});

}  // namespace streamk::runtime
