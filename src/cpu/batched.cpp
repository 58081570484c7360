#include "cpu/batched.hpp"

#include <vector>

#include "cpu/reference.hpp"
#include "runtime/gemm_runtime.hpp"
#include "tuner/tuning_db.hpp"

namespace streamk::cpu {

core::WorkMapping batched_mapping(const BatchedShape& batched,
                                  gpu::BlockShape block) {
  util::check(batched.valid(), "invalid batched shape");
  util::check(block.valid(), "invalid block shape");
  const std::int64_t tiles_m = core::ceil_div(batched.shape.m, block.m);
  // Stack the per-entry tile grids along m.  The virtual m is padded to the
  // block so each entry owns a whole number of tile rows, which is what
  // makes the stacked numbering equal the uniform group's.
  const core::GemmShape virtual_shape{batched.batch * tiles_m * block.m,
                                      batched.shape.n, batched.shape.k};
  return core::WorkMapping(virtual_shape, block);
}

namespace {

template <typename In, typename Acc, typename Out>
GemmReport batched_gemm_job(std::span<const Matrix<In>> as,
                            std::span<const Matrix<In>> bs,
                            std::span<Matrix<Out>> cs,
                            const GemmOptions& options) {
  util::check(!as.empty(), "empty batch");
  util::check(as.size() == bs.size() && as.size() == cs.size(),
              "batch operand count mismatch");
  BatchedShape batched;
  batched.batch = static_cast<std::int64_t>(as.size());
  batched.shape = product_shape(as[0], bs[0], cs[0]);
  std::vector<GemmProblem<In, Out>> problems;
  problems.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    util::check(product_shape(as[i], bs[i], cs[i]) == batched.shape,
                "batch entry shape mismatch");
    problems.push_back({as[i], bs[i], cs[i],
                        static_cast<std::int64_t>(i) * batched.shape.m});
  }

  // Tuning-db key: a batch of identical shapes IS the grouped concatenation
  // of `batch` copies -- same tiles, same iterations per tile -- so it keys
  // on the grouped shape-multiset digest (the stacked plain shape
  // {batch*m, n, k} would collide with a genuinely plain GEMM whose mapping
  // tiles differently).  Lookup only: a background find job would measure
  // a plain GEMM of the aggregate shape, not the batched schedule.
  const std::vector<core::GemmShape> group(
      static_cast<std::size_t>(batched.batch), batched.shape);
  return runtime::run_front_end(
      options, precision_of<In>(), tuner::group_key_shape(group),
      tuner::group_digest(group), /*allow_background_find=*/false,
      batched.shape.k, batched.flops(),
      [&](const gpu::BlockShape& block, const GemmOptions&) {
        return batched_mapping(batched, block);
      },
      [&](const core::WorkMapping& planner,
          const core::DecompositionSpec& spec) {
        return runtime::grouped_plan(group, planner.block(), spec);
      },
      [&](const core::SchedulePlan& plan, const ExecutorOptions& exec) {
        // The executor rejects a shared residual over two or more problems;
        // batched rejects it for a batch of one too, so the rule does not
        // depend on the batch size.
        util::check(!plan.epilogue_plan(exec.epilogue)->needs_residual(),
                    "batched GEMM does not support the residual epilogue op "
                    "(one D matrix cannot address every batch entry)");
        execute_plan<In, Acc, Out>(plan, problems, exec);
      });
}

}  // namespace

template <typename In, typename Acc, typename Out>
GemmReport batched_gemm(std::span<const Matrix<In>> as,
                        std::span<const Matrix<In>> bs,
                        std::span<Matrix<Out>> cs,
                        const GemmOptions& options) {
  return runtime::submit_batched_gemm(as, bs, cs, options).get();
}

template GemmReport batched_gemm<double, double, double>(
    std::span<const Matrix<double>>, std::span<const Matrix<double>>,
    std::span<Matrix<double>>, const GemmOptions&);
template GemmReport batched_gemm<float, float, float>(
    std::span<const Matrix<float>>, std::span<const Matrix<float>>,
    std::span<Matrix<float>>, const GemmOptions&);
template GemmReport batched_gemm<util::Half, float, float>(
    std::span<const Matrix<util::Half>>, std::span<const Matrix<util::Half>>,
    std::span<Matrix<float>>, const GemmOptions&);

}  // namespace streamk::cpu

namespace streamk::runtime {

GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<double>> as,
                               std::span<const cpu::Matrix<double>> bs,
                               std::span<cpu::Matrix<double>> cs,
                               const cpu::GemmOptions& options) {
  return submit_job(cpu::batched_gemm_job<double, double, double>, as, bs,
                    cs, options);
}

GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<float>> as,
                               std::span<const cpu::Matrix<float>> bs,
                               std::span<cpu::Matrix<float>> cs,
                               const cpu::GemmOptions& options) {
  return submit_job(cpu::batched_gemm_job<float, float, float>, as, bs, cs,
                    options);
}

GemmHandle submit_batched_gemm(std::span<const cpu::Matrix<util::Half>> as,
                               std::span<const cpu::Matrix<util::Half>> bs,
                               std::span<cpu::Matrix<float>> cs,
                               const cpu::GemmOptions& options) {
  return submit_job(cpu::batched_gemm_job<util::Half, float, float>, as, bs,
                    cs, options);
}

}  // namespace streamk::runtime
