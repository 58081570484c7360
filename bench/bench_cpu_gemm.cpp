// google-benchmark microbenchmarks of the *real* CPU execution path: the
// decomposed GEMM running on worker threads, plus the per-architecture
// cost-constant calibration workflow (Section 5.1's offline step performed
// live against this host).

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/data_parallel.hpp"
#include "core/fixed_split.hpp"
#include "core/hybrid.hpp"
#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "cpu/timing_harness.hpp"
#include "util/threading.hpp"

namespace {

using namespace streamk;

constexpr std::int64_t kM = 256, kN = 256, kK = 256;
const gpu::BlockShape kBlock{64, 64, 32};

struct Fixture {
  cpu::Matrix<double> a{kM, kK};
  cpu::Matrix<double> b{kK, kN};
  cpu::Matrix<double> c{kM, kN};
  core::WorkMapping mapping{{kM, kN, kK}, kBlock};

  Fixture() {
    util::Pcg32 rng(1);
    cpu::fill_random(a, rng);
    cpu::fill_random(b, rng);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void report_flops(benchmark::State& state) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * kM * kN * kK * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_Reference(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    cpu::reference_gemm<double, double, double>(f.a, f.b, f.c, kBlock);
    benchmark::DoNotOptimize(f.c.data().data());
  }
  report_flops(state);
}
BENCHMARK(BM_Reference)->Unit(benchmark::kMillisecond);

/// Times execution of `decomposition`, compiled once outside the timed
/// loop.
void run_compiled(benchmark::State& state,
                  const core::Decomposition& decomposition,
                  const cpu::ExecutorOptions& options) {
  Fixture& f = fixture();
  const core::SchedulePlan plan = core::compile_plan(decomposition);
  const cpu::GemmProblem<double, double> problem{f.a, f.b, f.c};
  for (auto _ : state) {
    cpu::execute_plan<double, double, double>(plan, {&problem, 1}, options);
    benchmark::DoNotOptimize(f.c.data().data());
  }
  report_flops(state);
}

void BM_DataParallel(benchmark::State& state) {
  run_compiled(state, core::DataParallel(fixture().mapping),
               {.workers = static_cast<std::size_t>(state.range(0))});
}
BENCHMARK(BM_DataParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_FixedSplit(benchmark::State& state) {
  run_compiled(state, core::FixedSplit(fixture().mapping, state.range(0)),
               {.workers = 2});
}
BENCHMARK(BM_FixedSplit)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_StreamK(benchmark::State& state) {
  run_compiled(state, core::StreamKBasic(fixture().mapping, state.range(0)),
               {.workers = std::min<std::size_t>(4, util::hardware_threads())});
}
BENCHMARK(BM_StreamK)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_HybridTwoTile(benchmark::State& state) {
  run_compiled(state,
               core::Hybrid(fixture().mapping,
                            core::DecompositionKind::kHybridTwoTile, 4),
               {.workers = 2});
}
BENCHMARK(BM_HybridTwoTile)->Unit(benchmark::kMillisecond);

void BM_AutoPlanned(benchmark::State& state) {
  Fixture& f = fixture();
  cpu::GemmOptions options;
  options.block = kBlock;
  options.workers = 2;
  for (auto _ : state) {
    cpu::gemm(f.a, f.b, f.c, options);
    benchmark::DoNotOptimize(f.c.data().data());
  }
  report_flops(state);
}
BENCHMARK(BM_AutoPlanned)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The unified bench CLI (--smoke, --csv <path>) is translated into
  // google-benchmark flags; everything else passes through to the library.
  const bench::BenchOptions opts =
      bench::parse_bench_args(argc, argv, /*allow_unknown=*/true);
  std::vector<std::string> args_storage;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") continue;
    if (arg == "--csv") {
      ++i;  // skip the path operand too
      continue;
    }
    args_storage.push_back(arg);
  }
  // Bare-seconds form: benchmark 1.7 only parses a double; 1.8+ accepts it
  // too (with a suffix-deprecation note).
  if (opts.smoke) args_storage.push_back("--benchmark_min_time=0.01");
  if (!opts.csv_path.empty()) {
    args_storage.push_back("--benchmark_out=" + opts.csv_path);
    args_storage.push_back("--benchmark_out_format=csv");
  }
  std::vector<char*> args;
  args.reserve(args_storage.size());
  for (std::string& arg : args_storage) args.push_back(arg.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Section 5.1's offline calibration, performed against this host CPU.
  std::cout << "\n=== cost-constant calibration on this host (FP64, "
            << kBlock.to_string() << ") ===\n";
  cpu::CalibrationOptions options;
  options.repetitions = opts.smoke ? 1 : 3;
  const cpu::CalibrationResult result =
      cpu::calibrate_cpu({kM, kN, kK}, kBlock, options);
  std::cout << "samples (grid -> mean CTA seconds, one worker):\n";
  for (const auto& s : result.samples) {
    std::cout << "  g=" << s.grid << " -> " << s.seconds << "\n";
  }
  std::cout << "fitted Appendix A.1 constants: a=" << result.params.a
            << " b=" << result.params.b << " c=" << result.params.c
            << " d=" << result.params.d << " (seconds)\n";
  return 0;
}
