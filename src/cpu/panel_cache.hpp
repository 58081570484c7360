#pragma once

// Shared packed-panel cache: pack each A/B panel once per GEMM, not once
// per tile.
//
// Packed privately, an A row-panel is repacked by every tile in its grid
// row and a B column-panel by every tile in its column -- O(tiles_m *
// tiles_n * k) packing traffic for O((tiles_m + tiles_n) * k) distinct
// panel bytes.
// PanelCache is a per-GEMM arena holding every (panel, k-chunk) of both
// operands exactly once, guarded by one atomic claim/publish byte per slot:
//
//     kEmpty --CAS--> kPacking --store-release--> kReady
//
// The first CTA to need a slot claims it, packs into the arena with the
// *same* pack functions the private path uses, and publishes; later CTAs
// load-acquire kReady and consume the published panel directly.  A CTA that
// observes kPacking spins briefly and then falls back to its private
// scratch -- the cache can only ever *remove* work, never block progress,
// so the deadlock-freedom argument of the fixup flag protocol (waits target
// higher CTA ids only; see cpu/decomposed_runner.hpp) is untouched: no new
// wait edges exist, only a bounded spin with a packing-it-myself exit.
//
// Bitwise identity: the arena's chunk grid is anchored at absolute k = 0
// with the plan's pack panel_kc, and a per-CTA chunk is served from the
// cache only when it coincides exactly with a grid chunk (segment-aligned
// walks of misaligned Stream-K segment starts bypass the cache).  Served
// panels are byte-identical to what the private pack would have produced,
// and the chunk walk itself -- hence every FP summation tree -- is
// unchanged, so cached and private execution produce bitwise-equal C.
//
// Arenas are pooled per accumulator type by runtime::PanelCachePool
// (runtime/workspace_pool.hpp); bind() to an already-held geometry
// allocates nothing.  STREAMK_PANEL_CACHE=0 (or GemmOptions::panel_cache =
// kOff) disables sharing entirely, restoring the private-pack path
// byte-for-byte.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "cpu/microkernel.hpp"
#include "cpu/packing.hpp"
#include "gpu/block_shape.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace streamk::cpu {

/// Global enable for shared panel packing.  Seeded from the
/// STREAMK_PANEL_CACHE environment variable ("0" disables; unset, empty, or
/// anything else leaves it on) and overridable in-process for A/B benching.
/// Acts as a kill switch: when off, even PanelCacheMode::kOn calls run the
/// private-pack path.
bool panel_cache_enabled();
void set_panel_cache_enabled(bool enabled);

/// Test hook: when `stride` > 0, every stride-th acquire pretends its slot
/// was observed mid-PACKING and takes the private-scratch fallback, so the
/// contention path is exercised deterministically on any machine.  0
/// disables the hook (default).
void set_panel_cache_contention_stride(std::int64_t stride);
/// Internal: consumes one tick of the contention hook.
bool panel_cache_contention_fires();

/// Arena budget in bytes: bind() refuses geometries whose arena would
/// exceed it (the caller then runs all-private).  Settable for tests.
std::int64_t panel_cache_arena_budget();
void set_panel_cache_arena_budget(std::int64_t bytes);

/// Test/bench accounting for packing traffic, MacProbe-style: counts pack
/// operations and the packed bytes they wrote, split by destination
/// (shared arena vs. private scratch), plus cache hit / contention-fallback
/// totals.  Disabled it costs one relaxed atomic load per pack decision.
class PackProbe {
 public:
  static void enable(bool on);
  static bool enabled();
  static void reset();

  static void add_shared(std::int64_t bytes);   ///< packed into the arena
  static void add_private(std::int64_t bytes);  ///< packed into CTA scratch
  static void add_hit();       ///< consumed an already-published panel
  static void add_fallback();  ///< observed PACKING, fell back to scratch

  static std::int64_t shared_packs();
  static std::int64_t shared_bytes();
  static std::int64_t private_packs();
  static std::int64_t private_bytes();
  static std::int64_t hits();
  static std::int64_t fallbacks();
  /// Total packed bytes written anywhere -- the bench/CI regression metric.
  static std::int64_t total_bytes();
};

/// Slot-grid geometry of one arena: `row_panels` A panels and `col_panels`
/// B panels, each cut into `chunks` k-chunks of `chunk_depth` accumulator
/// elements (the plan's pack panel_kc).  runtime::PanelCachePool takes it
/// from core::SchedulePlan::panel_geometry() for every front end.
struct PanelCacheConfig {
  std::int64_t row_panels = 0;
  std::int64_t col_panels = 0;
  std::int64_t chunks = 0;
  std::int64_t chunk_depth = 0;

  bool valid() const {
    return row_panels > 0 && col_panels > 0 && chunks > 0 && chunk_depth > 0;
  }
};

template <typename Acc>
class PanelCache {
 public:
  /// Sizes the arena and rearms every slot to EMPTY.  Returns false (cache
  /// unusable this run) when the geometry is degenerate or the arena would
  /// exceed panel_cache_arena_budget().  Rebinding reuses held storage, so
  /// steady-state traffic over one plan shape allocates nothing.
  bool bind(const gpu::BlockShape& block, const PanelCacheConfig& config) {
    bound_ = false;
    if (!config.valid()) return false;
    constexpr auto kMr = MicroTile<Acc>::kMr;
    constexpr auto kNr = MicroTile<Acc>::kNr;
    row_slot_elems_ = round_up(block.m, kMr) * config.chunk_depth;
    col_slot_elems_ = round_up(block.n, kNr) * config.chunk_depth;
    const std::int64_t row_elems = config.row_panels * config.chunks *
                                   row_slot_elems_;
    const std::int64_t col_elems = config.col_panels * config.chunks *
                                   col_slot_elems_;
    const std::int64_t bytes =
        (row_elems + col_elems) * static_cast<std::int64_t>(sizeof(Acc));
    if (bytes > panel_cache_arena_budget()) return false;

    config_ = config;
    // Grow-only: the arena's contents are gated by the slot states (every
    // read is preceded by a winning pack), so the bytes never need
    // initializing.  A plain resize() would value-initialize the regrown
    // tail -- tens of MB of memset per call when a pooled arena ping-pongs
    // between a large geometry and a small one (grouped GEMM interleaved
    // with its per-problem shapes).
    if (row_arena_.size() < static_cast<std::size_t>(row_elems)) {
      row_arena_.resize(static_cast<std::size_t>(row_elems));
    }
    if (col_arena_.size() < static_cast<std::size_t>(col_elems)) {
      col_arena_.resize(static_cast<std::size_t>(col_elems));
    }
    const auto slots =
        static_cast<std::size_t>((config.row_panels + config.col_panels) *
                                 config.chunks);
    if (slots > slot_capacity_) {
      slots_ = std::make_unique<std::atomic<std::uint8_t>[]>(slots);
      slot_capacity_ = slots;
    }
    // Relaxed rearm: the pool lease handoff (and the parallel-for dispatch
    // that fans workers out) happens-before every acquire of this run.
    for (std::size_t i = 0; i < slots; ++i) {
      slots_[i].store(kEmpty, std::memory_order_relaxed);
    }
    bound_ = true;
    return true;
  }

  bool bound() const { return bound_; }
  const PanelCacheConfig& config() const { return config_; }
  std::int64_t chunk_depth() const { return config_.chunk_depth; }

  /// The published A panel for (row_panel, chunk), packing it first if this
  /// caller wins the claim (`pack(dst)` must fill the em x kc panel with
  /// the same bytes the private path would).  nullptr = slot is mid-pack
  /// elsewhere; caller packs privately.  `em`/`kc` are the panel's valid
  /// extents, used for byte accounting only.
  template <typename PackFn>
  Acc* acquire_a(std::int64_t row_panel, std::int64_t chunk, std::int64_t em,
                 std::int64_t kc, PackFn&& pack) {
    util::check(row_panel >= 0 && row_panel < config_.row_panels &&
                    chunk >= 0 && chunk < config_.chunks,
                "A panel slot out of range");
    Acc* dst = row_arena_.data() +
               (row_panel * config_.chunks + chunk) * row_slot_elems_;
    return acquire(slot_index(row_panel, chunk, /*is_b=*/false), dst,
                   round_up(em, MicroTile<Acc>::kMr) * kc *
                       static_cast<std::int64_t>(sizeof(Acc)),
                   static_cast<PackFn&&>(pack));
  }

  /// B-side analogue of acquire_a for (col_panel, chunk) with valid extents
  /// en x kc.
  template <typename PackFn>
  Acc* acquire_b(std::int64_t col_panel, std::int64_t chunk, std::int64_t en,
                 std::int64_t kc, PackFn&& pack) {
    util::check(col_panel >= 0 && col_panel < config_.col_panels &&
                    chunk >= 0 && chunk < config_.chunks,
                "B panel slot out of range");
    Acc* dst = col_arena_.data() +
               (col_panel * config_.chunks + chunk) * col_slot_elems_;
    return acquire(slot_index(col_panel, chunk, /*is_b=*/true), dst,
                   round_up(en, MicroTile<Acc>::kNr) * kc *
                       static_cast<std::int64_t>(sizeof(Acc)),
                   static_cast<PackFn&&>(pack));
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kPacking = 1;
  static constexpr std::uint8_t kReady = 2;
  /// Publish latency is one pack (~tens of microseconds); spin about that
  /// long before conceding.  The fallback is merely the status quo ante --
  /// one private pack -- so conceding early is cheap and blocking is
  /// impossible by construction.
  static constexpr int kSpinLimit = 4096;

  std::size_t slot_index(std::int64_t panel, std::int64_t chunk,
                         bool is_b) const {
    const std::int64_t base = is_b ? config_.row_panels * config_.chunks : 0;
    return static_cast<std::size_t>(base + panel * config_.chunks + chunk);
  }

  template <typename PackFn>
  Acc* acquire(std::size_t slot, Acc* dst, std::int64_t bytes, PackFn&& pack) {
    if (panel_cache_contention_fires()) {
      PackProbe::add_fallback();
      STREAMK_OBS_COUNT("panel_cache.fallbacks");
      STREAMK_OBS_INSTANT(kPanelFallback, slot, bytes);
      return nullptr;
    }
    std::atomic<std::uint8_t>& state = slots_[slot];
    std::uint8_t seen = state.load(std::memory_order_acquire);
    if (seen == kReady) {
      PackProbe::add_hit();
      STREAMK_OBS_COUNT("panel_cache.hits");
      return dst;
    }
    if (seen == kEmpty &&
        state.compare_exchange_strong(seen, kPacking,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      // A throwing pack would strand the slot at kPacking; every later
      // consumer then falls back to private scratch, so progress (and the
      // in-flight exception) still reach the caller.
      {
        STREAMK_OBS_SPAN(kPack, slot, bytes);
        pack(dst);
      }
      state.store(kReady, std::memory_order_release);
      PackProbe::add_shared(bytes);
      STREAMK_OBS_COUNT("panel_cache.shared_packs");
      return dst;
    }
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (state.load(std::memory_order_acquire) == kReady) {
        PackProbe::add_hit();
        STREAMK_OBS_COUNT("panel_cache.hits");
        return dst;
      }
      if ((spin & 255) == 255) std::this_thread::yield();
    }
    PackProbe::add_fallback();
    STREAMK_OBS_COUNT("panel_cache.fallbacks");
    STREAMK_OBS_INSTANT(kPanelFallback, slot, bytes);
    return nullptr;
  }

  PanelCacheConfig config_;
  std::int64_t row_slot_elems_ = 0;
  std::int64_t col_slot_elems_ = 0;
  PanelVector<Acc> row_arena_;
  PanelVector<Acc> col_arena_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> slots_;
  std::size_t slot_capacity_ = 0;
  bool bound_ = false;
};

/// The shared chunk walk of every front end: packs and
/// multiplies the segment k-range [k_begin, k_end) (already clamped to
/// `k_total`) in panel_kc-deep chunks, serving each chunk's A/B panels from
/// `cache` when possible and from `packs` otherwise.  A chunk is cacheable
/// only when it coincides with the absolute-k chunk grid -- `k0` a
/// panel_kc multiple *and* the segment covering that grid chunk in full --
/// so the walk (and the FP summation tree) is identical with and without a
/// cache.  `pack_a(k0, kc, dst)` / `pack_b(k0, kc, dst)` stage the chunk's
/// panels; `row_key`/`col_key` name the tile's panels in the cache's grid.
template <typename Acc, typename PackAFn, typename PackBFn>
void run_cached_chunks(PanelCache<Acc>* cache, std::int64_t row_key,
                       std::int64_t col_key, std::int64_t em, std::int64_t en,
                       std::int64_t k_begin, std::int64_t k_end,
                       std::int64_t k_total, std::int64_t panel_kc,
                       PackAFn&& pack_a, PackBFn&& pack_b,
                       PackBuffers<Acc>& packs, Acc* accum, std::int64_t ldc) {
  for (std::int64_t k0 = k_begin; k0 < k_end; k0 += panel_kc) {
    const std::int64_t kc = std::min(panel_kc, k_end - k0);
    const Acc* pa = nullptr;
    const Acc* pb = nullptr;
    const bool cacheable = cache != nullptr &&
                           cache->chunk_depth() == panel_kc &&
                           k0 % panel_kc == 0 &&
                           kc == std::min(panel_kc, k_total - k0);
    if (cacheable) {
      const std::int64_t chunk = k0 / panel_kc;
      pa = cache->acquire_a(row_key, chunk, em, kc,
                            [&](Acc* dst) { pack_a(k0, kc, dst); });
      pb = cache->acquire_b(col_key, chunk, en, kc,
                            [&](Acc* dst) { pack_b(k0, kc, dst); });
    }
    if (pa == nullptr) {
      const std::int64_t bytes = round_up(em, MicroTile<Acc>::kMr) * kc *
                                 static_cast<std::int64_t>(sizeof(Acc));
      {
        STREAMK_OBS_SPAN(kPack, -1, bytes);
        pack_a(k0, kc, packs.a.data());
      }
      PackProbe::add_private(bytes);
      STREAMK_OBS_COUNT("panel_cache.private_packs");
      pa = packs.a.data();
    }
    if (pb == nullptr) {
      const std::int64_t bytes = round_up(en, MicroTile<Acc>::kNr) * kc *
                                 static_cast<std::int64_t>(sizeof(Acc));
      {
        STREAMK_OBS_SPAN(kPack, -1, bytes);
        pack_b(k0, kc, packs.b.data());
      }
      PackProbe::add_private(bytes);
      STREAMK_OBS_COUNT("panel_cache.private_packs");
      pb = packs.b.data();
    }
    run_packed_mac(pa, pb, em, en, kc, accum, ldc);
  }
}

}  // namespace streamk::cpu
