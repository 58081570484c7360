// Persistent worker-pool submission throughput.
//
// A process-wide persistent pool serves concurrent small-GEMM traffic:
// submission is a queue push, inner regions recruit pool workers, the
// compiled plan comes from the plan cache, and workspaces / CTA buffers
// come from the runtime pools.  Each configuration is (submitter threads,
// shape): 1/4/16 concurrent submitters pushing a fixed number of Stream-K
// GEMMs through cpu::gemm, small and large shapes.  GEMMs/sec are printed
// and the usual CSV is emitted (mode column "pool"), which
// scripts/check_overhead.py compares between STREAMK_OBS=ON and OFF builds.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cpu/gemm.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamk;

struct ShapeCase {
  std::string label;
  core::GemmShape shape;
};

struct Workload {
  std::string mode;
  std::size_t submitters = 1;
  ShapeCase shape_case;
  int total_jobs = 0;
  double seconds = 0.0;

  double gemms_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(total_jobs) / seconds : 0.0;
  }
};

cpu::GemmOptions gemm_options() {
  // Stream-K with an 8-CTA grid and 8 workers -- the configuration a
  // server sizing its worker count to the machine would run.  Every call
  // opens a real parallel region (the pool enqueues at most pool-width
  // helpers), and the schedule spills, exercising the fixup workspace.
  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;
  options.block = {32, 32, 16};
  options.grid = 8;
  options.workers = 8;
  return options;
}

/// Runs `total_jobs` GEMMs of `sc` from `submitters` concurrent threads,
/// every submitter blocking on each call (closed-loop traffic).
double run_workload(const ShapeCase& sc, std::size_t submitters,
                    int total_jobs) {
  const cpu::GemmOptions options = gemm_options();
  const int per_thread = total_jobs / static_cast<int>(submitters);

  // Per-submitter operands, prepared outside the timed section.
  struct Operands {
    cpu::Matrix<double> a, b, c;
  };
  std::vector<Operands> operands(submitters);
  util::Pcg32 rng(7);
  for (Operands& op : operands) {
    op.a = cpu::Matrix<double>(sc.shape.m, sc.shape.k);
    op.b = cpu::Matrix<double>(sc.shape.k, sc.shape.n);
    op.c = cpu::Matrix<double>(sc.shape.m, sc.shape.n);
    cpu::fill_random(op.a, rng);
    cpu::fill_random(op.b, rng);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (std::size_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      Operands& op = operands[t];
      for (int i = 0; i < per_thread; ++i) {
        cpu::gemm(op.a, op.b, op.c, options);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "persistent pool submission throughput",
      "runtime scaling substrate (no paper figure)");

  std::vector<ShapeCase> shapes = {
      {"small-32x32x128", {32, 32, 128}},
      {"large-192x192x192", {192, 192, 192}},
  };
  std::vector<std::size_t> submitter_counts = {1, 4, 16};
  if (opts.smoke) {
    shapes.resize(1);  // the small-shape case is the headline number
    submitter_counts = {1, 4};
  }

  std::vector<Workload> results;
  for (const ShapeCase& sc : shapes) {
    int total_jobs = sc.shape.m >= 128 ? 32 : 320;
    if (opts.smoke) total_jobs /= 4;
    for (const std::size_t submitters : submitter_counts) {
      Workload w;
      w.mode = "pool";
      w.submitters = submitters;
      w.shape_case = sc;
      w.total_jobs = (total_jobs / static_cast<int>(submitters)) *
                     static_cast<int>(submitters);
      // Warm-up round outside the measurement (first-touch, pool spin-up).
      run_workload(sc, submitters, static_cast<int>(submitters));
      w.seconds = run_workload(sc, submitters, w.total_jobs);
      results.push_back(w);
    }
  }

  const std::string csv_path =
      opts.csv_path.empty() ? "runtime_throughput.csv" : opts.csv_path;
  util::CsvWriter csv(csv_path,
                      {"mode", "submitters", "shape", "m", "n", "k", "jobs",
                       "seconds", "gemms_per_sec"});
  for (const Workload& w : results) {
    csv.row({w.mode, util::CsvWriter::cell(w.submitters), w.shape_case.label,
             util::CsvWriter::cell(w.shape_case.shape.m),
             util::CsvWriter::cell(w.shape_case.shape.n),
             util::CsvWriter::cell(w.shape_case.shape.k),
             util::CsvWriter::cell(static_cast<std::int64_t>(w.total_jobs)),
             util::CsvWriter::cell(w.seconds),
             util::CsvWriter::cell(w.gemms_per_sec())});
  }

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\nshape              submitters  pool GEMM/s\n";
  for (const Workload& w : results) {
    std::cout << std::left << std::setw(19) << w.shape_case.label
              << std::right << std::setw(10) << w.submitters << std::setw(13)
              << w.gemms_per_sec() << "\n";
    bench::report_case(w.shape_case.label + std::string(" pool s") +
                           std::to_string(w.submitters) + " rate",
                       "gemms_per_sec", true, w.gemms_per_sec());
  }
  std::cout << "\nfull series written to " << csv_path << "\n";
  return 0;
}
