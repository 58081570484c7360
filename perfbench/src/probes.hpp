#pragma once

// Layer probes: each times one library layer in isolation, through its
// public entry point, at the sizes and width a workload uses.

#include "ops.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Measured single-core FMA peak: independent vector FMA chains, enough of
/// them to cover the FMA latency on every port.  kFp16F32 reports the fp32
/// peak (the library accumulates fp16 inputs in fp32).
double fma_peak_gflops(sk::gpu::Precision precision);

/// cpu::run_packed_mac on panels packed once and resident in cache (one
/// default block x kTargetPanelDepth chunk), single core.
double microkernel_gflops(sk::gpu::Precision precision);

/// cpu::pack_{a,b}_matrix over every operand of every problem of the
/// workload, in the block x panel_kc chunks a call packs: packed bytes
/// written per second.
double pack_gbps(const Workload& workload);

struct PlannerProbe {
  double resolve_us = 0.0;         ///< cpu::resolve_schedule
  double plan_compile_us = 0.0;    ///< core::compile_plan
  double plan_cache_hit_ns = 0.0;  ///< runtime::plan_cache().obtain, warm
  double dispatch_ns = 0.0;        ///< cpu::apply_tuned_dispatch, empty db
};

/// The planner, plan and tuner layers over the workload's problem shapes
/// (medians over shapes of per-call means).
PlannerProbe planner_probe(const Workload& workload);

struct ForkJoinProbe {
  double p50_us = 0.0;
  double p90_us = 0.0;
};

/// An empty runtime::global_pool() region at `width` workers.
ForkJoinProbe forkjoin_probe(std::size_t width);

}  // namespace perfbench
