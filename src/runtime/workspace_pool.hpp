#pragma once

// Pooled execution workspaces.
//
// Before the runtime existed, every execute_plan()-family call allocated a
// fresh FixupWorkspace (partials buffer + flag array + slot map) and every
// claimed CTA allocated a fresh accumulator tile and MacScratch fragment
// buffers.  Under persistent-pool traffic -- many small GEMMs per second --
// those allocations dominate.  Two pooling layers remove them:
//
//   * WorkspacePool<Acc>: a process-wide free list of FixupWorkspace
//     objects.  acquire() rebinds a recycled workspace to the new plan;
//     vectors keep their capacity, so steady-state traffic over one plan
//     shape performs zero heap allocation per call.  Leases return the
//     workspace on destruction (bounded list; extras are freed).
//   * local_cta_buffers<Acc>(): thread-local accumulator + fragment scratch,
//     keyed by the requested sizes.  Pool workers are persistent, so these
//     buffers live across submissions and are reused per plan shape; worker
//     threads touch only their own instance, so no locking is needed.
//
// Both layers are per accumulator type (double / float instantiation).

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/schedule_plan.hpp"
#include "cpu/executor.hpp"
#include "cpu/mac_loop.hpp"
#include "cpu/panel_cache.hpp"
#include "cpu/workspace.hpp"

namespace streamk::runtime {

template <typename Acc>
class WorkspacePool {
 public:
  /// Move-only ownership of one pooled workspace for the duration of a
  /// plan execution; returns it to the pool on destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool,
          std::unique_ptr<cpu::FixupWorkspace<Acc>> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}

    Lease(Lease&& other) noexcept
        : pool_(other.pool_), workspace_(std::move(other.workspace_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ~Lease() {
      if (workspace_) pool_->release(std::move(workspace_));
    }

    cpu::FixupWorkspace<Acc>& workspace() { return *workspace_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<cpu::FixupWorkspace<Acc>> workspace_;
  };

  static WorkspacePool& instance() {
    // Intentionally immortal (reachable via the static pointer, so not a
    // leak): pool workers may still drain queued jobs during static
    // destruction, after a function-local static would already be gone.
    static WorkspacePool* pool = new WorkspacePool();
    return *pool;
  }

  /// A workspace bound to `plan` (flags rearmed, slot map rebuilt).  Reuses
  /// a pooled object's buffers when one is free.
  Lease acquire(const core::SchedulePlan& plan, std::int64_t tile_elements) {
    std::unique_ptr<cpu::FixupWorkspace<Acc>> workspace;
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        workspace = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!workspace) workspace = std::make_unique<cpu::FixupWorkspace<Acc>>();
    workspace->bind(plan, tile_elements);
    return Lease(this, std::move(workspace));
  }

  std::size_t pooled_count() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  void release(std::unique_ptr<cpu::FixupWorkspace<Acc>> workspace) {
    std::lock_guard lock(mutex_);
    if (free_.size() < kMaxPooled) free_.push_back(std::move(workspace));
    // else: drop -- the list bounds resident memory under burst concurrency.
  }

  /// More simultaneous in-flight plans than this allocate fresh workspaces
  /// that are freed on release instead of pooled.
  static constexpr std::size_t kMaxPooled = 16;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<cpu::FixupWorkspace<Acc>>> free_;
};

/// Process-wide free list of shared packed-panel arenas
/// (cpu/panel_cache.hpp), mirroring WorkspacePool: acquire() resolves the
/// caller's PanelCacheMode against the plan and either hands back a lease
/// whose cache() is a bound arena (recycled storage when one is free) or a
/// null lease -- callers treat a null cache as "pack privately", so every
/// resolution path degrades to the pre-cache behaviour.
template <typename Acc>
class PanelCachePool {
 public:
  class Lease {
   public:
    Lease(PanelCachePool* pool, std::unique_ptr<cpu::PanelCache<Acc>> cache)
        : pool_(pool), cache_(std::move(cache)) {}

    Lease(Lease&& other) noexcept
        : pool_(other.pool_), cache_(std::move(other.cache_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ~Lease() {
      if (cache_) pool_->release(std::move(cache_));
    }

    /// The bound arena, or nullptr when sharing is off for this call.
    cpu::PanelCache<Acc>* cache() { return cache_.get(); }

   private:
    PanelCachePool* pool_;
    std::unique_ptr<cpu::PanelCache<Acc>> cache_;
  };

  static PanelCachePool& instance() {
    // Immortal for the same reason as WorkspacePool::instance().
    static PanelCachePool* pool = new PanelCachePool();
    return *pool;
  }

  /// A cache bound to `plan`'s panel geometry, or a null lease when
  /// `mode`, the STREAMK_PANEL_CACHE kill switch, the plan's shareability,
  /// or the arena budget says private packing.
  Lease acquire(const core::SchedulePlan& plan, cpu::PanelCacheMode mode) {
    const core::PanelCacheGeometry& geo = plan.panel_geometry();
    const bool on =
        cpu::panel_cache_enabled() &&
        (mode == cpu::PanelCacheMode::kOn ||
         (mode == cpu::PanelCacheMode::kAuto && geo.shareable));
    if (!on) return Lease(this, nullptr);

    const cpu::PanelCacheConfig config{.row_panels = geo.row_panels,
                                       .col_panels = geo.col_panels,
                                       .chunks = geo.chunks,
                                       .chunk_depth = geo.panel_kc};

    std::unique_ptr<cpu::PanelCache<Acc>> cache;
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        cache = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!cache) cache = std::make_unique<cpu::PanelCache<Acc>>();
    if (!cache->bind(plan.block(), config)) {
      release(std::move(cache));  // over budget / degenerate: run private
      return Lease(this, nullptr);
    }
    return Lease(this, std::move(cache));
  }

  std::size_t pooled_count() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  void release(std::unique_ptr<cpu::PanelCache<Acc>> cache) {
    std::lock_guard lock(mutex_);
    if (free_.size() < kMaxPooled) free_.push_back(std::move(cache));
  }

  /// Arenas are the largest pooled objects; bound tighter than workspaces.
  static constexpr std::size_t kMaxPooled = 8;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<cpu::PanelCache<Acc>>> free_;
};

/// Per-thread CTA execution buffers: the output-tile accumulator and the
/// A/B packing scratch.
template <typename Acc>
struct CtaBuffers {
  std::vector<Acc> accum;
  cpu::MacScratch<Acc> scratch;
};

/// The calling thread's CtaBuffers, resized for (block, tile_elements) with
/// packed-panel chunks `panel_kc` deep (0 = one MAC-loop iteration).
/// Resizing is a no-op when the previous use had the same shape, which is
/// the steady state on persistent pool workers.
template <typename Acc>
CtaBuffers<Acc>& local_cta_buffers(const gpu::BlockShape& block,
                                   std::int64_t tile_elements,
                                   std::int64_t panel_kc = 0) {
  thread_local CtaBuffers<Acc> buffers;
  buffers.accum.resize(static_cast<std::size_t>(tile_elements));
  buffers.scratch.resize(block, panel_kc);
  return buffers;
}

}  // namespace streamk::runtime
