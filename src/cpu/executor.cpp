#include "cpu/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/schedule_plan.hpp"
#include "cpu/decomposed_runner.hpp"
#include "cpu/mac_loop.hpp"
#include "epilogue/apply.hpp"

namespace streamk::cpu {

namespace {

/// Byte range [begin, end) a view's elements span; `write` marks outputs.
struct Extent {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  bool write = false;
};

template <typename T>
void add_extent(std::vector<Extent>& out, const OperandView<T>& v,
                bool write) {
  if (v.rows() == 0 || v.cols() == 0) return;  // occupies no memory
  const std::int64_t last =
      (v.rows() - 1) * v.row_stride() + (v.cols() - 1) * v.col_stride();
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  out.push_back(Extent{
      begin, begin + static_cast<std::uintptr_t>(last + 1) * sizeof(T),
      write});
}

/// An im2col view reads its whole NHWC input tensor.
template <typename T>
void add_extent(std::vector<Extent>& out, const Im2colView<T>& v,
                bool write) {
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  out.push_back(Extent{
      begin, begin + static_cast<std::uintptr_t>(v.extent_bytes()), write});
}

/// Rejects a C that overlaps any A, B or other C of the call: tiles read
/// A and B while other tiles already store C, so an aliased output is
/// silently wrong.  One sweep over the extents sorted by start address: a
/// range overlaps an earlier one exactly when it starts before the
/// furthest end seen so far.
template <typename In, typename Out, typename AView>
void check_no_aliasing(std::span<const GemmProblem<In, Out, AView>> problems) {
  std::vector<Extent> extents;
  extents.reserve(problems.size() * 3);
  for (const GemmProblem<In, Out, AView>& p : problems) {
    add_extent(extents, p.a, false);
    add_extent(extents, p.b, false);
    add_extent(extents, p.c, true);
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& x, const Extent& y) { return x.begin < y.begin; });
  std::uintptr_t any_end = 0;
  std::uintptr_t write_end = 0;
  for (const Extent& e : extents) {
    util::check(e.begin >= (e.write ? any_end : write_end),
                "GEMM output C overlaps an input or another output");
    any_end = std::max(any_end, e.end);
    if (e.write) write_end = std::max(write_end, e.end);
  }
}

}  // namespace

template <typename In, typename Acc, typename Out, typename AView>
void execute_plan(const core::SchedulePlan& plan,
                  std::span<const GemmProblem<In, Out,
                                              std::type_identity_t<AView>>>
                      problems,
                  const ExecutorOptions& options,
                  std::span<const epilogue::EpilogueSpec> problem_epilogues) {
  const core::GroupedMapping* group = plan.group();
  const std::size_t count = group != nullptr ? group->problems() : 1;
  util::check(problems.size() == count,
              "problem count does not match the plan");
  util::check(problem_epilogues.empty() || problem_epilogues.size() == count,
              "problem_epilogues must be empty or one spec per problem");
  for (std::size_t p = 0; p < count; ++p) {
    const GemmProblem<In, Out, AView>& prob = problems[p];
    const core::GemmShape expected =
        group != nullptr ? group->problem(p).shape : plan.mapping().shape();
    util::check(prob.a.rows() == expected.m && prob.a.cols() == expected.k &&
                    prob.b.rows() == expected.k &&
                    prob.b.cols() == expected.n &&
                    prob.c.rows() == expected.m &&
                    prob.c.cols() == expected.n,
                "operands do not match the plan's GEMM shape");
    util::check(prob.c.col_stride() == 1,
                "output C needs unit column stride");
  }
  check_no_aliasing(problems);

  // One op-chain *structure* serves every problem (bindings vary per
  // problem): compile it once from the first spec and insist every other
  // spec shares its class -- a per-problem chain change would change the
  // store cost mid-schedule, and the plan's epilogue memo keys by class.
  const epilogue::EpilogueSpec& structure =
      problem_epilogues.empty() ? options.epilogue : problem_epilogues[0];
  const epilogue::EpiloguePlanPtr eplan = plan.epilogue_plan(structure);
  for (const epilogue::EpilogueSpec& spec : problem_epilogues) {
    util::check(epilogue::class_key(spec.ops) == eplan->class_key(),
                "problem epilogues must share one op-chain class");
  }
  util::check(!eplan->needs_residual() || !problem_epilogues.empty() ||
                  count == 1,
              "a shared epilogue spec over several problems does not support "
              "the residual op (one D matrix cannot address every "
              "problem); pass per-problem specs");
  const auto spec_of = [&](std::size_t p) -> const epilogue::EpilogueSpec& {
    return problem_epilogues.empty() ? options.epilogue : problem_epilogues[p];
  };
  for (std::size_t p = 0; p < count; ++p) {
    const GemmProblem<In, Out, AView>& prob = problems[p];
    epilogue::check_bindings(*eplan, spec_of(p),
                             prob.epilogue_row0 + prob.c.rows(),
                             prob.c.cols(), epilogue::tensor_type_of<Out>());
  }

  const gpu::BlockShape& blk = plan.block();
  run_decomposed<Acc>(
      plan, blk.tile_elements(),
      [&](const core::TileSegment& seg, std::span<Acc> accum,
          MacScratch<Acc>& scratch, PanelCache<Acc>* cache) {
        const core::TileRef tile = plan.tile_ref(seg.tile_idx);
        const GemmProblem<In, Out, AView>& prob = problems[tile.problem];
        mac_segment<In, Acc, AView>(plan, tile, prob.a, prob.b, seg, accum,
                                    scratch, cache);
      },
      [&](std::int64_t tile_idx, std::span<const Acc> accum) {
        const core::TileRef tile = plan.tile_ref(tile_idx);
        const GemmProblem<In, Out, AView>& prob = problems[tile.problem];
        const std::int64_t mm = tile.tm * blk.m;
        const std::int64_t nn = tile.tn * blk.n;
        epilogue::apply_tile<Acc, Out>(
            *eplan, spec_of(tile.problem), options.alpha, options.beta,
            prob.epilogue_row0 + mm, nn, std::min(blk.m, prob.c.rows() - mm),
            std::min(blk.n, prob.c.cols() - nn), prob.c.cols(), accum.data(),
            blk.n, prob.c.ptr(mm, nn), prob.c.row_stride());
      },
      options);
}

template void execute_plan<double, double, double>(
    const core::SchedulePlan&, std::span<const GemmProblem<double, double>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
template void execute_plan<float, float, float>(
    const core::SchedulePlan&, std::span<const GemmProblem<float, float>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
template void execute_plan<util::Half, float, float>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<util::Half, float>>, const ExecutorOptions&,
    std::span<const epilogue::EpilogueSpec>);
template void execute_plan<double, double, double, Im2colView<const double>>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<double, double, Im2colView<const double>>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);
template void execute_plan<float, float, float, Im2colView<const float>>(
    const core::SchedulePlan&,
    std::span<const GemmProblem<float, float, Im2colView<const float>>>,
    const ExecutorOptions&, std::span<const epilogue::EpilogueSpec>);

}  // namespace streamk::cpu
