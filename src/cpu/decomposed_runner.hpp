#pragma once

// Generic plan-driven execution skeleton.
//
// The single CTA loop behind cpu::execute_plan, the one executor of every
// front end (plain, BLAS-view, batched and grouped GEMM and implicit-GEMM
// convolution): claim CTAs in descending id order, run each segment's MAC
// functor into a local accumulator, and apply the Stream-K fixup protocol
// -- spill + signal for non-starting segments, await + serial reduce +
// store for owners.  Work streams and fixup peers come from a compiled
// core::SchedulePlan, so the hot loop touches only flat arrays: no virtual
// calls, no per-CTA vector materialization.  The caller supplies two
// functors:
//
//     mac(segment, accum, scratch, cache)  -- accumulate the segment's
//                                             iterations (cache may be null:
//                                             pack privately)
//     store(tile_idx, accum)               -- epilogue for a completed tile
//
// Deadlock freedom and memory-ordering arguments are identical to
// cpu/executor.hpp (waits target higher ids; claims descend; flag
// signal/wait is release/acquire); see DESIGN.md.
//
// Allocation behaviour: the fixup workspace is leased from
// runtime::WorkspacePool and the per-CTA accumulator/packing scratch comes
// from the claiming thread's runtime::local_cta_buffers, so steady-state
// traffic over one plan shape executes with no per-call or per-CTA heap
// allocation.  Parallelism comes from util::parallel_for_descending, which
// dispatches onto the persistent runtime::global_pool().

#include <algorithm>
#include <vector>

#include "core/schedule_plan.hpp"
#include "cpu/executor.hpp"
#include "cpu/mac_loop.hpp"
#include "cpu/panel_cache.hpp"
#include "cpu/workspace.hpp"
#include "obs/obs.hpp"
#include "runtime/workspace_pool.hpp"
#include "util/threading.hpp"

namespace streamk::cpu {

template <typename Acc, typename MacFn, typename StoreFn>
void run_decomposed(const core::SchedulePlan& plan, std::int64_t tile_elements,
                    MacFn&& mac, StoreFn&& store,
                    const ExecutorOptions& options) {
  plan.check_runnable();
  auto lease =
      runtime::WorkspacePool<Acc>::instance().acquire(plan, tile_elements);
  FixupWorkspace<Acc>& workspace = lease.workspace();
  auto cache_lease = runtime::PanelCachePool<Acc>::instance().acquire(
      plan, options.panel_cache);
  PanelCache<Acc>* cache = cache_lease.cache();
  const std::size_t workers =
      options.workers > 0 ? options.workers : util::default_workers();

  const std::int64_t panel_kc = plan.pack_geometry().panel_kc;

  auto run_cta = [&](std::size_t cta_index) {
    const auto cta = static_cast<std::int64_t>(cta_index);
    const std::span<const core::TileSegment> segments = plan.cta_segments(cta);
    if (segments.empty()) return;

    runtime::CtaBuffers<Acc>& buffers = runtime::local_cta_buffers<Acc>(
        plan.block(), tile_elements, panel_kc);
    std::vector<Acc>& accum = buffers.accum;
    MacScratch<Acc>& scratch = buffers.scratch;

    try {
      for (const core::TileSegment& seg : segments) {
        std::fill(accum.begin(), accum.end(), Acc{});
        {
          STREAMK_OBS_SPAN(kMacSegment, cta, seg.tile_idx);
          mac(seg, std::span<Acc>(accum), scratch, cache);
        }

        if (!seg.starts_tile()) {
          std::span<Acc> slot = workspace.partials(cta);
          std::copy(accum.begin(), accum.end(), slot.begin());
          workspace.signal(cta);
          STREAMK_OBS_INSTANT(kFixupSignal, cta, seg.tile_idx);
          continue;
        }
        if (!seg.ends_tile()) {
          for (const std::int64_t peer :
               plan.tile_contributors(seg.tile_idx)) {
            {
              STREAMK_OBS_SPAN(kFixupWait, cta, peer);
              const std::int64_t wakeups = workspace.wait(peer);
              STREAMK_OBS_COUNT_N("fixup.wait_wakeups", wakeups);
              STREAMK_OBS_COUNT("fixup.waits");
            }
            std::span<const Acc> slot = workspace.partials(peer);
            for (std::size_t i = 0; i < accum.size(); ++i) accum[i] += slot[i];
          }
        }
        {
          STREAMK_OBS_SPAN(kEpilogueApply, cta, seg.tile_idx);
          store(seg.tile_idx, std::span<const Acc>(accum));
        }
      }
    } catch (...) {
      // A spilling CTA that dies before signalling would strand its tile
      // owner in workspace.wait() forever (the parallel region keeps
      // draining after a failure precisely so waiters are released).
      // Raise the flag on the way out -- the partials are garbage, but the
      // first exception is what reaches the caller, not the results.
      if (workspace.cta_spills(cta)) workspace.signal(cta);
      throw;
    }
  };

  util::parallel_for_descending(static_cast<std::size_t>(plan.grid()), run_cta,
                                workers);
}

}  // namespace streamk::cpu
