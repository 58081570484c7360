// Fused-epilogue A/B: one pass or two?
//
// For bias+activation workloads the pre-epilogue library needed a second
// full sweep over C (read, transform, write) after the GEMM -- pure DRAM
// traffic the fused path folds into the tile store for free.  This bench
// measures both formulations through the production pool-backed path:
//
//   fused     C = act(alpha*A.B + bias)         one cpu::gemm call
//   two-pass  C = alpha*A.B; C = act(C + bias)  gemm + apply_elementwise
//
// on bandwidth-bound shapes (large m*n, shallow k -- where the extra pass
// is a large fraction of total traffic), one compute-bound contrast shape
// (deep k -- where it vanishes into the MAC time; fused must not regress
// there), and one decode-shaped fp16 bias+GELU layer (small m, deep k: the
// transcendental activation's own cost shows).  Both sides use the same
// worker budget; times are best-of-reps.
//
//   ./bench_epilogue [--smoke] [--csv <path>]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "bencher/table.hpp"
#include "cpu/gemm.hpp"
#include "epilogue/apply.hpp"
#include "util/threading.hpp"

namespace {

using namespace streamk;

struct AbCase {
  const char* label;
  core::GemmShape shape;
  gpu::Precision precision;
  const char* chain;  ///< epilogue class key
};

struct AbPoint {
  double fused_seconds = 0.0;
  double two_pass_seconds = 0.0;
};

/// One A/B point: best-of-reps fused vs. gemm-then-sweep, same operands,
/// same worker budget.  GemmReport::seconds covers plan execution (the
/// steady-state cost); the sweep is wall-clock timed around
/// apply_elementwise.
template <typename In, typename Out>
AbPoint measure(const core::GemmShape& shape,
                const std::vector<epilogue::EpilogueOp>& ops, int reps) {
  cpu::Matrix<In> a(shape.m, shape.k);
  cpu::Matrix<In> b(shape.k, shape.n);
  cpu::Matrix<Out> c(shape.m, shape.n);
  util::Pcg32 rng(0xeb110);
  cpu::fill_random(a, rng, -0.5, 0.5);
  cpu::fill_random(b, rng, -0.5, 0.5);

  std::vector<double> bias(static_cast<std::size_t>(shape.n));
  for (double& v : bias) v = rng.uniform(-1.0, 1.0);

  const std::size_t workers = util::default_workers();
  cpu::GemmOptions fused;
  fused.epilogue.ops = ops;
  fused.epilogue.bias_col = bias;

  cpu::GemmOptions plain;

  epilogue::EpilogueSpec sweep;
  sweep.ops = ops;
  sweep.bias_col = bias;
  const epilogue::EpiloguePlanPtr sweep_plan = epilogue::compile(sweep.ops);

  AbPoint point;
  point.fused_seconds = std::numeric_limits<double>::infinity();
  point.two_pass_seconds = std::numeric_limits<double>::infinity();

  // Warm both plans (and the packing scratch) before timing.
  cpu::gemm(a, b, c, fused);
  cpu::gemm(a, b, c, plain);

  for (int rep = 0; rep < reps; ++rep) {
    point.fused_seconds =
        std::min(point.fused_seconds, cpu::gemm(a, b, c, fused).seconds);

    const double gemm_seconds = cpu::gemm(a, b, c, plain).seconds;
    const auto start = std::chrono::steady_clock::now();
    epilogue::apply_elementwise(*sweep_plan, sweep, shape.m, shape.n,
                                c.row_ptr(0), shape.n, workers);
    const auto stop = std::chrono::steady_clock::now();
    point.two_pass_seconds = std::min(
        point.two_pass_seconds,
        gemm_seconds + std::chrono::duration<double>(stop - start).count());
  }
  return point;
}

AbPoint measure_case(const AbCase& c, int reps) {
  const std::vector<epilogue::EpilogueOp> ops =
      epilogue::parse_class_key(c.chain);
  switch (c.precision) {
    case gpu::Precision::kFp64:
      return measure<double, double>(c.shape, ops, reps);
    case gpu::Precision::kFp32:
      return measure<float, float>(c.shape, ops, reps);
    case gpu::Precision::kFp16F32:
      return measure<util::Half, float>(c.shape, ops, reps);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Fused epilogue vs. two-pass output transform",
      "epilogue subsystem (DESIGN.md section 9); fusion motivation of "
      "composable_kernel / MIOpen");

  // Bandwidth-bound shapes lead (shallow k: the second pass over C is a
  // large traffic fraction); the deep-k contrast pins "fused never hurts";
  // the decode case is the only one that runs the GELU kernel.
  const std::vector<AbCase> cases =
      options.smoke
          ? std::vector<AbCase>{
                {"bw-bound fp32 bias+relu", {768, 768, 16},
                 gpu::Precision::kFp32, "bias_col+relu"},
                {"bw-bound fp32 bias+sigmoid", {768, 768, 16},
                 gpu::Precision::kFp32, "bias_col+sigmoid"},
                {"bw-bound fp64 bias+relu", {640, 640, 16},
                 gpu::Precision::kFp64, "bias_col+relu"},
                {"compute-bound fp32 bias+relu", {256, 256, 512},
                 gpu::Precision::kFp32, "bias_col+relu"},
                {"decode fp16 bias+gelu", {32, 512, 1024},
                 gpu::Precision::kFp16F32, "bias_col+gelu"},
            }
          : std::vector<AbCase>{
                {"bw-bound fp32 bias+relu", {2048, 2048, 16},
                 gpu::Precision::kFp32, "bias_col+relu"},
                {"bw-bound fp32 bias+sigmoid", {2048, 2048, 16},
                 gpu::Precision::kFp32, "bias_col+sigmoid"},
                {"bw-bound fp32 bias+relu k=48", {2048, 2048, 48},
                 gpu::Precision::kFp32, "bias_col+relu"},
                {"bw-bound fp64 bias+relu", {1536, 1536, 16},
                 gpu::Precision::kFp64, "bias_col+relu"},
                {"bw-bound fp16 bias+relu", {2048, 2048, 16},
                 gpu::Precision::kFp16F32, "bias_col+relu"},
                {"compute-bound fp32 bias+relu", {768, 768, 768},
                 gpu::Precision::kFp32, "bias_col+relu"},
                {"decode fp16 bias+gelu", {32, 512, 1024},
                 gpu::Precision::kFp16F32, "bias_col+gelu"},
            };
  const int reps = options.smoke ? 5 : 9;

  auto csv = bench::maybe_csv(options,
                              {"label", "m", "n", "k", "precision", "chain",
                               "fused_s", "two_pass_s", "speedup"});

  bencher::TextTable table(
      {"case", "shape", "chain", "fused", "two-pass", "fused speedup"});
  double log_sum = 0.0;
  std::size_t counted = 0;
  for (const AbCase& c : cases) {
    const AbPoint point = measure_case(c, reps);
    const double speedup =
        point.fused_seconds > 0.0 && point.two_pass_seconds > 0.0
            ? point.two_pass_seconds / point.fused_seconds
            : 0.0;
    table.row({c.label, c.shape.to_string(), c.chain,
               bencher::fmt_seconds(point.fused_seconds),
               bencher::fmt_seconds(point.two_pass_seconds),
               bencher::fmt_ratio(speedup)});
    if (csv) {
      csv->row({std::string(c.label), std::to_string(c.shape.m),
                std::to_string(c.shape.n), std::to_string(c.shape.k),
                std::string(gpu::name(c.precision)), std::string(c.chain),
                util::CsvWriter::cell(point.fused_seconds),
                util::CsvWriter::cell(point.two_pass_seconds),
                util::CsvWriter::cell(speedup)});
    }
    if (speedup > 0.0) {
      log_sum += std::log(speedup);
      ++counted;
    }
  }
  std::cout << table.render();
  if (counted > 0) {
    const double geomean = std::exp(log_sum / static_cast<double>(counted));
    std::cout << "geomean fused-vs-two-pass speedup: "
              << bench::format_metric(geomean) << "x over " << counted
              << " case(s)\n";
    bench::report_case("fused_vs_two_pass_geomean", "speedup", true, geomean);
  }
  return 0;
}
