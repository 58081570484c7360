#include "cpu/grouped.hpp"

#include <algorithm>
#include <vector>

#include "cpu/reference.hpp"
#include "runtime/gemm_runtime.hpp"
#include "tuner/tuning_db.hpp"

namespace streamk::cpu {

namespace {

template <typename In, typename Acc, typename Out>
GemmReport grouped_gemm_job(
    std::span<const Matrix<In>> as, std::span<const Matrix<In>> bs,
    std::span<Matrix<Out>> cs, const GemmOptions& options,
    std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  util::check(!as.empty(), "grouped GEMM needs at least one problem");
  util::check(as.size() == bs.size() && as.size() == cs.size(),
              "grouped operand count mismatch");
  std::vector<core::GemmShape> shapes;
  std::vector<GemmProblem<In, Out>> problems;
  shapes.reserve(as.size());
  problems.reserve(as.size());
  double flops = 0.0;
  std::int64_t min_k = -1;
  for (std::size_t p = 0; p < as.size(); ++p) {
    const core::GemmShape shape = product_shape(as[p], bs[p], cs[p]);
    shapes.push_back(shape);
    problems.push_back({as[p], bs[p], cs[p]});
    flops += shape.flops();
    min_k = min_k < 0 ? shape.k : std::min(min_k, shape.k);
  }

  // Tuning-db key: the grouped shape-multiset digest, filed under the
  // aggregate shape (tuner/tuning_db.hpp).  Lookup only -- a background
  // find job would measure a plain GEMM of the aggregate shape, not this
  // grouped schedule.  A record must be feasible against the group's
  // *smallest* k (fixed-split factors larger than a problem's iteration
  // count).
  return runtime::run_front_end(
      options, precision_of<In>(), tuner::group_key_shape(shapes),
      tuner::group_digest(shapes), /*allow_background_find=*/false, min_k,
      flops,
      [&](const gpu::BlockShape& block, const GemmOptions&) {
        // kAuto policy: the analytical planner reasons over one uniform
        // WorkMapping, so hand it the iteration-dominant problem's real
        // mapping.  A skewed group's cost is concentrated in that problem,
        // and the schedule the planner picks for its tile grid is the one
        // the whole queue should run -- the remaining problems ride along
        // either way.  A synthetic average-shape proxy mispredicts both
        // extremes of a skewed group (measured: it steered a 1-large +
        // 31-small fp64 group into a hybrid schedule 10% slower than the
        // dominant problem's own choice).
        std::size_t dominant = 0;
        std::int64_t dominant_iters = -1;
        for (std::size_t p = 0; p < shapes.size(); ++p) {
          const core::GemmShape& s = shapes[p];
          const std::int64_t iters =
              core::ceil_div(s.m, block.m) * core::ceil_div(s.n, block.n) *
              std::max<std::int64_t>(1, core::ceil_div(s.k, block.k));
          if (iters > dominant_iters) {
            dominant = p;
            dominant_iters = iters;
          }
        }
        return core::WorkMapping(shapes[dominant], block);
      },
      [&](const core::WorkMapping& planner,
          const core::DecompositionSpec& spec) {
        return runtime::grouped_plan(shapes, planner.block(), spec);
      },
      [&](const core::SchedulePlan& plan, const ExecutorOptions& exec) {
        execute_plan<In, Acc, Out>(plan, problems, exec, problem_epilogues);
      });
}

}  // namespace

template <typename In, typename Acc, typename Out>
GemmReport grouped_gemm(
    std::span<const Matrix<In>> as, std::span<const Matrix<In>> bs,
    std::span<Matrix<Out>> cs, const GemmOptions& options,
    std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  return runtime::submit_grouped_gemm(as, bs, cs, options, problem_epilogues)
      .get();
}

template GemmReport grouped_gemm<double, double, double>(
    std::span<const Matrix<double>>, std::span<const Matrix<double>>,
    std::span<Matrix<double>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);
template GemmReport grouped_gemm<float, float, float>(
    std::span<const Matrix<float>>, std::span<const Matrix<float>>,
    std::span<Matrix<float>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);
template GemmReport grouped_gemm<util::Half, float, float>(
    std::span<const Matrix<util::Half>>, std::span<const Matrix<util::Half>>,
    std::span<Matrix<float>>, const GemmOptions&,
    std::span<const epilogue::EpilogueSpec>);

}  // namespace streamk::cpu

namespace streamk::runtime {

GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<double>> as,
    std::span<const cpu::Matrix<double>> bs, std::span<cpu::Matrix<double>> cs,
    const cpu::GemmOptions& options,
    std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  return submit_job(cpu::grouped_gemm_job<double, double, double>, as, bs, cs,
                    options, problem_epilogues);
}

GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<float>> as,
    std::span<const cpu::Matrix<float>> bs, std::span<cpu::Matrix<float>> cs,
    const cpu::GemmOptions& options,
    std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  return submit_job(cpu::grouped_gemm_job<float, float, float>, as, bs, cs,
                    options, problem_epilogues);
}

GemmHandle submit_grouped_gemm(
    std::span<const cpu::Matrix<util::Half>> as,
    std::span<const cpu::Matrix<util::Half>> bs,
    std::span<cpu::Matrix<float>> cs, const cpu::GemmOptions& options,
    std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  return submit_job(cpu::grouped_gemm_job<util::Half, float, float>, as, bs,
                    cs, options, problem_epilogues);
}

}  // namespace streamk::runtime
