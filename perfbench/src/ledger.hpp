#pragma once

// Per-layer time ledger of the traced rep.
//
// The benchmark wraps each call in a kBenchRegion span on the calling
// thread; the library's trace rings supply the spans inside.  The thread
// time a call could use is wall x width.  Each span's self time (its
// duration minus the child spans on the same thread) is charged to its
// layer.  The calling thread is covered by its kBenchRegion span, so time
// it spends outside the library's spans (dispatch, plan lookup, workspace
// leases, waiting on a submitted call) is that span's self time, which is
// `other`.  Pool idle is the thread time of the other width - 1 workers
// that no span covers: 0 for a call at width 1.  Wrapper spans (the GEMM
// and pool-task envelopes) and anything else are `other` too, which closes
// the ledger so the shares sum to 1.

#include <cstdint>
#include <span>

#include "obs/trace.hpp"

namespace perfbench {

/// A kBenchRegion span's extent, on the obs::trace_now_ns() clock.
struct CallWindow {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

struct Ledger {
  double plan_compile = 0.0;
  double pack = 0.0;
  double mac = 0.0;
  double fixup_wait = 0.0;
  double epilogue = 0.0;
  double pool_idle = 0.0;
  double other = 0.0;
  /// Wall-weighted mean over calls of makespan x width / busy time, from
  /// obs::build_load_balance_profile of the call's spans (1 = the call's
  /// workers were busy throughout).  The profile's own imbalance() divides
  /// by CTAs, which on a CPU far outnumber the workers.
  double imbalance = 0.0;

  double sum() const {
    return plan_compile + pack + mac + fixup_wait + epilogue + pool_idle +
           other;
  }
};

/// `spans` as obs::snapshot_trace() returns them (sorted by start); every
/// call ran at `width` workers.
Ledger build_ledger(std::span<const streamk::obs::TraceSpan> spans,
                    std::span<const CallWindow> calls, std::size_t width);

}  // namespace perfbench
