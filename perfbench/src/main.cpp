// perfbench: the repository's end-to-end and per-layer GEMM benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--selftest]
//
// One run alternates, in five epochs, set-up (input generation from the
// seed, first call per shape, one warm-up round; repeated and the median
// reported) with whole rounds -- every op once, in a fixed order -- for S
// seconds in all, with tracing off.  --trace 1 adds a
// PackProbe-counted round, the layer probes and a separate traced rep, and
// reports the per-layer metrics instead of the end-to-end ones.  Every
// op's output is then checked against cpu::reference_gemm.  The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is non-zero when any check failed.
//
// --selftest additionally asserts that the traced shares sum to 1, that
// pool idle time is 0 at width 1, that no trace span was overwritten, and
// that corrupting one output is caught by the check; it reports both
// metric sets.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu/panel_cache.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "runtime/gemm_runtime.hpp"
#include "stats.hpp"
#include "tuner/dispatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using sk::gpu::Precision;

/// Variables that change what the library does; a run with any of them set
/// would not measure the program as built.
constexpr const char* kPinnedEnv[] = {
    "STREAMK_WORKERS",    "STREAMK_PANEL_CACHE", "STREAMK_FORCE_SCALAR",
    "STREAMK_TUNING_DB",  "STREAMK_ANALYZE",     "STREAMK_TRACE",
    "STREAMK_METRICS",    "STREAMK_PMU"};

/// A run alternates set-up and timed rounds kEpochs times.  Set-up takes
/// at least kSetupSeconds in all: a corpus-sweep set-up takes ~0.1 s and
/// varies up to 2x from one to the next, so its median needs dozens.
constexpr int kEpochs = 5;
constexpr double kSetupSeconds = 5.0;
/// Spans per thread ring: a traced large-gemm round emits ~10^4 per thread.
constexpr std::size_t kTraceRing = std::size_t{1} << 17;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return args;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t machine_nproc() {
  std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    n = std::min(n, static_cast<std::size_t>(CPU_COUNT(&set)));
  }
  return std::max<std::size_t>(1, n);
}

void print_fingerprint(std::size_t nproc) {
  std::ostringstream isa;
  const char* sep = "";
  const auto flag = [&](bool present, const char* name) {
    if (present) {
      isa << sep << name;
      sep = ",";
    }
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
  flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("f16c"), "f16c");
#endif
#if defined(__AVX512F__)
  const char* kernels = "avx512";
#elif defined(__AVX2__)
  const char* kernels = "avx2";
#else
  const char* kernels = "portable";
#endif
  std::cout << "# machine: nproc=" << nproc << " isa=" << isa.str()
            << " kernels=" << kernels
            << " l2_bytes=" << sysconf(_SC_LEVEL2_CACHE_SIZE)
            << " l3_bytes=" << sysconf(_SC_LEVEL3_CACHE_SIZE) << '\n';
}

std::int64_t counter_value(const streamk::obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// A workload plus the failures its calls raised so far.
struct Runner {
  std::unique_ptr<Workload> w;
  std::int64_t exceptions = 0;

  /// Runs `op` once, counting (not propagating) an exception.
  sk::cpu::GemmReport call(Op& op) {
    try {
      return op.run();
    } catch (const std::exception& e) {
      ++exceptions;
      std::cerr << "perfbench: " << op.label << " threw: " << e.what() << '\n';
      return {};
    }
  }

  /// Runs every op once, in order.
  std::vector<sk::cpu::GemmReport> round() {
    std::vector<sk::cpu::GemmReport> reports;
    for (const auto& op : w->ops) reports.push_back(call(*op));
    return reports;
  }

  double round_flop() const {
    double flop = 0.0;
    for (const auto& op : w->ops) flop += op->flop;
    return flop;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Timed {
  std::vector<double> setup_s;                  ///< every set-up, in order
  std::vector<std::vector<double>> latency_us;  ///< per op
  std::vector<double> round_wall_s;
  std::vector<double> epoch_round_s;  ///< median round of each epoch
  /// Growth of the metrics registry's counters over the timed rounds.
  std::map<std::string, std::int64_t> counters;
};

/// One set-up: input generation, the first call per shape and a warm-up
/// round.  Clearing the plan cache makes every set-up compile, but the
/// workspace and panel-arena pools are process-wide and keep the buffers
/// the first set-up grew: only the first (cold) set-up pays for growing
/// them, and it is reported separately as setup.cold_s.
double set_up(Runner& runner, const Args& args) {
  runner.w.reset();
  sk::runtime::plan_cache().clear();
  const auto t0 = Clock::now();
  runner.w = make_workload(args.workload, args.seed);
  runner.round();  // first call per shape
  runner.round();  // warm-up
  return seconds_since(t0);
}

/// Set-up and timed rounds alternate in kEpochs epochs, so that both sample
/// the host over the whole run.  An epoch sets up at least once and for at
/// least kSetupSeconds / kEpochs, then runs whole rounds (every op once, in
/// order), tracing off, for `seconds` / kEpochs.  The same seed gives every
/// set-up the same inputs in fresh allocations; the last set-up's are the
/// ones the rounds measure.
Timed measure(Runner& runner, const Args& args) {
  Timed t;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto setup_start = Clock::now();
    do {
      t.setup_s.push_back(set_up(runner, args));
    } while (seconds_since(setup_start) < kSetupSeconds / kEpochs);
    t.latency_us.resize(runner.w->ops.size());
    std::vector<double> epoch_s;
    const auto before = streamk::obs::snapshot_metrics();
    const auto start = Clock::now();
    while (seconds_since(start) < args.seconds / kEpochs) {
      const auto r0 = Clock::now();
      for (std::size_t i = 0; i < runner.w->ops.size(); ++i) {
        const auto t0 = Clock::now();
        runner.call(*runner.w->ops[i]);
        t.latency_us[i].push_back(seconds_since(t0) * 1e6);
      }
      t.round_wall_s.push_back(seconds_since(r0));
      epoch_s.push_back(t.round_wall_s.back());
    }
    t.epoch_round_s.push_back(median(epoch_s));
    const auto after = streamk::obs::snapshot_metrics();
    for (const auto& [name, value] : after.counters) {
      t.counters[name] += value - counter_value(before, name);
    }
  }
  return t;
}

std::vector<double> all_latencies(const Timed& t) {
  std::vector<double> all;
  for (const auto& op : t.latency_us) {
    all.insert(all.end(), op.begin(), op.end());
  }
  return all;
}

/// Each op's fastest call over the run.  gflops, latency_p50_us, the
/// per-shape figures and cpu.pct_of_peak are built from these, not from
/// medians.  On the shared 4-vCPU host the share of calls that other
/// tenants slow changes from one run to the next, and every median moves
/// with it.  Over ten corpus-sweep runs in a row, the geomean of per-op
/// median GFLOP/s spread 0.313 (IQR / median) and the median call 0.187;
/// the same figures from fastest calls spread 0.065 and 0.082.  A run holds
/// hundreds of calls per op, and nearly always an unslowed one.  Each run
/// still prints the median-based figures as a comment.
std::vector<double> fastest_us(const Timed& t) {
  std::vector<double> us;
  for (const auto& op : t.latency_us) {
    us.push_back(*std::min_element(op.begin(), op.end()));
  }
  return us;
}

double best_round_s(const Timed& t) {
  double us = 0.0;
  for (const double v : fastest_us(t)) us += v;
  return us / 1e6;
}

/// Per-op GFLOP/s from one latency per op.
std::vector<double> shape_gflops(const Runner& runner,
                                 const std::vector<double>& us) {
  std::vector<double> gflops;
  for (std::size_t i = 0; i < us.size(); ++i) {
    gflops.push_back(runner.w->ops[i]->flop / us[i] / 1e3);
  }
  return gflops;
}

std::vector<Metric> end_to_end(const Runner& runner, const Timed& t) {
  const auto shapes =
      sk::util::Summary::of(shape_gflops(runner, fastest_us(t)));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"gflops", "GFLOP/s", runner.round_flop() / best_round_s(t) / 1e9},
      {"latency_p50_us", "us", median(fastest_us(t))},
      {"shape_gflops_geomean", "GFLOP/s", shapes.geomean},
      {"shape_gflops_p10", "GFLOP/s", shapes.p10},
      {"setup_s", "s", median(t.setup_s)},
      {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
}

struct Traced {
  Ledger ledger;
  double overhead_frac = 0.0;
};

/// The traced rep, separate from the timed rounds.  The first pass creates
/// every thread's trace ring, so later passes pay no ring allocation; each
/// later pass runs one untraced and one traced round back to back, and the
/// overhead compares their medians.  The ledger pools those traced rounds.
Traced traced_rep(Runner& runner) {
  constexpr int kPasses = 4;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<streamk::obs::TraceSpan> spans;
  std::vector<CallWindow> windows;
  for (int pass = 0; pass < kPasses; ++pass) {
    if (pass > 0) {
      const auto t0 = Clock::now();
      runner.round();
      plain_s.push_back(seconds_since(t0));
    }
    std::vector<CallWindow> pass_windows;
    streamk::obs::reset_trace();
    streamk::obs::arm_trace();
    const auto t0 = Clock::now();
    for (const auto& op : runner.w->ops) {
      CallWindow cw;
      cw.t0_ns = streamk::obs::trace_now_ns();
      runner.call(*op);
      cw.t1_ns = streamk::obs::trace_now_ns();
      streamk::obs::emit_span(streamk::obs::EventKind::kBenchRegion, cw.t0_ns,
                              cw.t1_ns, 0, 0);
      pass_windows.push_back(cw);
    }
    const double pass_s = seconds_since(t0);
    streamk::obs::disarm_trace();
    if (pass == 0) continue;
    traced_s.push_back(pass_s);
    // Passes follow one another, so appending keeps both sorted by start.
    const auto pass_spans = streamk::obs::snapshot_trace();
    spans.insert(spans.end(), pass_spans.begin(), pass_spans.end());
    windows.insert(windows.end(), pass_windows.begin(), pass_windows.end());
  }
  Traced traced;
  traced.ledger = build_ledger(spans, windows, kWidth);
  traced.overhead_frac = median(traced_s) / median(plain_s) - 1.0;
  return traced;
}

/// `latency_tail` (the highest percentile of call latency with 10 calls
/// beyond it) is reported here, not gated end to end: on a host shared with
/// other tenants it repeated only within 0.13-0.34 (IQR / median) between
/// runs.
std::vector<Metric> per_layer(Runner& runner, const Timed& t,
                              const Traced& traced, const Tail& latency_tail,
                              std::size_t nproc) {
  const Workload& w = *runner.w;
  // One round with exact pack accounting.
  sk::cpu::PackProbe::reset();
  sk::cpu::PackProbe::enable(true);
  const auto reports = runner.round();
  sk::cpu::PackProbe::enable(false);
  double spills = 0.0;
  double mix[4] = {};
  for (const auto& r : reports) {
    spills += static_cast<double>(r.spills);
    switch (r.spec.kind) {
      case sk::core::DecompositionKind::kDataParallel:
        ++mix[0];
        break;
      case sk::core::DecompositionKind::kFixedSplit:
        ++mix[1];
        break;
      case sk::core::DecompositionKind::kStreamKBasic:
        ++mix[2];
        break;
      case sk::core::DecompositionKind::kHybridOneTile:
      case sk::core::DecompositionKind::kHybridTwoTile:
        ++mix[3];
        break;
    }
  }
  const auto packed = static_cast<double>(sk::cpu::PackProbe::total_bytes());
  const double shared_frac =
      packed > 0.0
          ? static_cast<double>(sk::cpu::PackProbe::shared_bytes()) / packed
          : 0.0;

  const double peak64 = fma_peak_gflops(Precision::kFp64);
  const double peak32 = fma_peak_gflops(Precision::kFp32);
  double ideal_s = 0.0;
  for (const auto& op : w.ops) {
    const double peak = op->precision == Precision::kFp64 ? peak64 : peak32;
    ideal_s += op->flop / (peak * 1e9 * static_cast<double>(kWidth));
  }
  const PlannerProbe planner = planner_probe(w);
  // The workloads' calls run on one worker, which forks nothing; the pool is
  // probed at the width a default-options call uses.
  const ForkJoinProbe forkjoin = forkjoin_probe(nproc);
  const auto delta = [&](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double hits = delta("plan_cache.hits");
  const double lookups = hits + delta("plan_cache.misses");
  const Ledger& ledger = traced.ledger;
  return {
      {"cpu.fma_peak_gflops.fp64", "GFLOP/s", peak64},
      {"cpu.fma_peak_gflops.fp32", "GFLOP/s", peak32},
      {"cpu.microkernel_gflops.fp64", "GFLOP/s",
       microkernel_gflops(Precision::kFp64)},
      {"cpu.microkernel_gflops.fp32", "GFLOP/s",
       microkernel_gflops(Precision::kFp32)},
      {"cpu.microkernel_gflops.fp16", "GFLOP/s",
       microkernel_gflops(Precision::kFp16F32)},
      {"cpu.pct_of_peak", "%", 100.0 * ideal_s / best_round_s(t)},
      {"cpu.pack_gbps", "GB/s", pack_gbps(w)},
      {"cpu.packed_bytes_per_flop", "B/FLOP", packed / runner.round_flop()},
      {"cpu.panel_cache.shared_frac", "ratio", shared_frac},
      {"cpu.panel_cache.fallbacks", "count",
       static_cast<double>(sk::cpu::PackProbe::fallbacks())},
      {"cpu.fixup.spills", "count", spills},
      {"model.schedule_mix.dp", "count", mix[0]},
      {"model.schedule_mix.split", "count", mix[1]},
      {"model.schedule_mix.sk", "count", mix[2]},
      {"model.schedule_mix.hybrid", "count", mix[3]},
      {"model.resolve_us", "us", planner.resolve_us},
      {"core.plan_compile_us", "us", planner.plan_compile_us},
      {"core.plan_cache_hit_ns", "ns", planner.plan_cache_hit_ns},
      {"core.plan_cache_hit_ratio", "ratio",
       lookups > 0.0 ? hits / lookups : 0.0},
      {"tuner.dispatch_ns", "ns", planner.dispatch_ns},
      {"runtime.forkjoin_p50_us", "us", forkjoin.p50_us},
      {"runtime.forkjoin_p90_us", "us", forkjoin.p90_us},
      {"runtime.pool_steals", "count", delta("pool.steals")},
      {"runtime.latency_tail_us", "us", latency_tail.value},
      {"setup.cold_s", "s", t.setup_s.front()},
      {"trace.plan_compile_share", "ratio", ledger.plan_compile},
      {"trace.pack_share", "ratio", ledger.pack},
      {"trace.mac_share", "ratio", ledger.mac},
      {"trace.fixup_wait_share", "ratio", ledger.fixup_wait},
      {"trace.epilogue_share", "ratio", ledger.epilogue},
      {"trace.pool_idle_share", "ratio", ledger.pool_idle},
      {"trace.other_share", "ratio", ledger.other},
      {"trace.imbalance", "ratio", ledger.imbalance},
      {"trace.overhead_frac", "ratio", traced.overhead_frac},
  };
}

/// Checks every op's last output; returns (problems checked, failures).
std::pair<std::int64_t, std::int64_t> check_outputs(const Runner& runner) {
  std::int64_t attempted = 0;
  std::int64_t failed = runner.exceptions;
  for (const auto& op : runner.w->ops) {
    attempted += static_cast<std::int64_t>(op->shapes.size());
    try {
      failed += op->mismatches();
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "perfbench: checking " << op->label
                << " threw: " << e.what() << '\n';
    }
  }
  return {attempted, failed};
}

/// The self-test's own assertions; returns whether all held.
bool self_checks(Runner& runner, const Ledger& ledger) {
  bool ok = true;
  const auto expect = [&](bool held, const char* what) {
    if (!held) {
      std::cerr << "perfbench selftest: " << runner.w->name << ": " << what
                << '\n';
      ok = false;
    }
  };
  expect(std::abs(ledger.sum() - 1.0) < 1e-9, "trace shares do not sum to 1");
  for (const double s : {ledger.plan_compile, ledger.pack, ledger.mac,
                         ledger.fixup_wait, ledger.epilogue,
                         ledger.pool_idle}) {
    expect(s >= 0.0 && s <= 1.0, "a trace share is outside [0, 1]");
  }
  expect(kWidth > 1 || ledger.pool_idle == 0.0,
         "pool idle time charged to a call at width 1");
  expect(streamk::obs::trace_overwritten() == 0,
         "trace spans were overwritten");
  Op& victim = *runner.w->ops.back();
  victim.corrupt();
  expect(victim.mismatches() > 0, "a corrupted output passed the check");
  return ok;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run(const Args& args) {
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes the program under test\n";
      return 2;
    }
  }
  const std::size_t nproc = machine_nproc();
  sk::tuner::set_find_mode(sk::tuner::FindMode::kOff);
  streamk::obs::set_trace_buffer_capacity(kTraceRing);
  print_fingerprint(nproc);

  Runner runner;
  auto phase = Clock::now();
  const Timed timed = measure(runner, args);
  std::ostringstream phases;
  const auto lap = [&](const char* name) {
    phases << ' ' << name << '=' << seconds_since(phase) << 's';
    phase = Clock::now();
  };
  lap("measure");
  const std::vector<double>& setup_s = timed.setup_s;
  std::cout << "# workload=" << runner.w->name << " seed=" << args.seed
            << " width=" << kWidth << " ops=" << runner.w->ops.size()
            << " round_gflop=" << runner.round_flop() / 1e9 << '\n';
  std::cout << "# setup_s: " << setup_s.size() << " set-ups, cold "
            << setup_s.front() << ", median " << median(setup_s) << ", min "
            << *std::min_element(setup_s.begin(), setup_s.end()) << ", max "
            << *std::max_element(setup_s.begin(), setup_s.end()) << '\n';
  std::cout << "# median round of each epoch (s):";
  for (const double s : timed.epoch_round_s) std::cout << ' ' << s;
  std::cout << '\n';
  std::vector<double> median_us;
  for (const auto& op : timed.latency_us) median_us.push_back(median(op));
  const auto by_median = sk::util::Summary::of(shape_gflops(runner, median_us));
  std::cout << "# from per-op medians, not fastest calls: latency_p50_us="
            << median(all_latencies(timed)) << " shape_gflops_geomean="
            << by_median.geomean << " shape_gflops_p10=" << by_median.p10
            << '\n';
  const Tail lat_tail = tail(all_latencies(timed));
  std::cout << "# latency_tail_us=" << lat_tail.value << " is p"
            << lat_tail.percentile << " of " << lat_tail.samples
            << " calls over " << timed.round_wall_s.size() << " rounds\n";

  std::vector<Metric> metrics;
  if (!args.trace || args.selftest) {
    metrics = end_to_end(runner, timed);
  }
  Traced traced;
  if (args.trace || args.selftest) {
    traced = traced_rep(runner);
    const auto layers =
        per_layer(runner, timed, traced, lat_tail, nproc);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    lap("layers");
  }
  const auto [attempted, failed] = check_outputs(runner);
  lap("check");
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  if (args.trace || args.selftest) {
    metrics.push_back({"error_rate", "ratio", error_rate});
  }
  const bool selftest_ok = !args.selftest || self_checks(runner, traced.ledger);
  std::cout << "# phases:" << phases.str() << "\n# error_rate=" << error_rate
            << " (" << failed << " of " << attempted << " problems)\n";
  print_result(attempted, failed, metrics);
  return failed == 0 && selftest_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
