#pragma once

// SchedulePlan: one decomposition, compiled once, consumed everywhere.
//
// A Decomposition describes a schedule *procedurally*: cta_work(cta)
// materializes a fresh std::vector<TileSegment> on every call.  Before this
// IR existed, each consumer (executor, workspace sizing, fixup table,
// simulator, validator, spill counting) re-derived the same streams -- per
// CTA, per consumer -- and discovered tile contributor sets by scanning all
// CTAs' streams again.  A SchedulePlan is the flat, arena-backed compilation
// of the whole schedule:
//
//   * one contiguous TileSegment array in CTA-major order, with per-CTA
//     offset spans (no per-CTA allocation, no virtual calls in hot loops);
//   * a per-tile contributor index: the owner CTA (performed the tile's
//     k = 0 iteration) plus the spilling peers in ascending id order --
//     the fixup relationships of Algorithm 5, precomputed;
//   * per-CTA spill-slot assignment (the partials-buffer layout shared by
//     the CPU fixup workspace and the paper's O(p) storage bound);
//   * totals: covered iterations, spills, split tiles, max peers, and
//     nonempty CTAs, so reporting layers stop re-walking the schedule.
//
// Compilation is one pass over cta_work() -- the only place that still
// calls it -- and is deliberately lenient: malformed schedules (gaps,
// overlapping owners, double spills) compile to a plan that
// core::validate_plan() then rejects with a precise diagnostic.  Only
// memory-unsafe input (a segment naming a tile outside the mapping) throws
// at compile time.
//
// PlanCache memoizes compiled plans behind a mutex, keyed on the problem
// shape, blocking factors, tile order, decomposition spec, and device width.
// Cache hits return pointer-identical std::shared_ptr<const SchedulePlan>
// values, so heavy run(shape) traffic in the ensemble/library layer pays
// for schedule compilation once per distinct key.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/grouped.hpp"
#include "epilogue/epilogue.hpp"
#include "gpu/gpu_spec.hpp"

namespace streamk::core {

/// Packed-panel geometry for the CPU microkernel path (cpu/packing.hpp):
/// a segment's operands are packed and consumed in k-chunks of `panel_kc`
/// accumulator elements (`chunk_iters` MAC-loop iterations, capped at
/// kTargetPanelDepth so a chunk's A/B panels stay cache resident).
/// Recorded per plan at compile time so per-CTA scratch sizing is a no-op
/// vector resize in steady state.
struct PackedPanelGeometry {
  /// Upper bound on chunk depth in accumulator elements; chosen so one
  /// A panel plus one B panel of the default block shapes fit well inside
  /// a per-core L2.
  static constexpr std::int64_t kTargetPanelDepth = 256;

  std::int64_t max_segment_iters = 0;  ///< longest segment of the schedule
  std::int64_t chunk_iters = 1;        ///< MAC-loop iterations per chunk
  std::int64_t panel_kc = 0;           ///< chunk_iters * BLK_K
};

/// Shared packed-panel cache geometry (cpu/panel_cache.hpp): the slot grid
/// of the per-GEMM arena that lets the first CTA needing an (A row-panel,
/// k-chunk) or (B column-panel, k-chunk) pack it once for everyone.  The
/// chunk grid is anchored at absolute k = 0 with the pack_geometry() depth,
/// which coincides with the per-CTA chunk walk exactly for segments whose
/// start is panel_kc-aligned -- misaligned chunks simply bypass the cache,
/// so the FP summation trees (and bitwise results) never change.  Grouped
/// plans lay every problem's panels side by side (SchedulePlan::panel_keys).
struct PanelCacheGeometry {
  std::int64_t row_panels = 0;   ///< A row-panel count (tiles_m)
  std::int64_t col_panels = 0;   ///< B column-panel count (tiles_n)
  std::int64_t chunks = 0;       ///< k-chunks per panel at pack panel_kc
  std::int64_t panel_kc = 0;     ///< == pack_geometry().panel_kc
  /// Sharing can pay only when at least two tiles exist (otherwise every
  /// panel has exactly one consumer and the arena is pure overhead).
  bool shareable = false;
};

class SchedulePlan {
 public:
  /// Compiles `decomposition` (prefer compile_plan() for call sites).
  explicit SchedulePlan(const Decomposition& decomposition);

  /// Compiles `spec` over a grouped (multi-problem) tile space.  The
  /// resulting plan is structurally identical to a single-problem one --
  /// same arena, fixup index, spill slots -- the tiles just have
  /// non-uniform iteration depths; mapping() is unavailable, group() holds
  /// the per-problem geometry instead.
  SchedulePlan(const GroupedMapping& grouped, const DecompositionSpec& spec);

  /// Grouped compilation with a caller-supplied segment generator and grid
  /// -- the injection point for the static analyzer's seeded-flaw plans
  /// (analysis/flaws.hpp) and for negative tests that need structurally
  /// broken grouped schedules.  Production callers use the
  /// (grouped, spec) constructor, whose generator is grouped_cta_work().
  SchedulePlan(const GroupedMapping& grouped, const DecompositionSpec& spec,
               std::int64_t grid,
               const std::function<CtaWork(std::int64_t)>& work_of);

  DecompositionKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  /// Single-problem quantization; fails loudly for grouped plans (whose
  /// tiles have no one WorkMapping) -- consult group() there.
  const WorkMapping& mapping() const;
  /// Per-problem geometry of a grouped plan, nullptr for single-problem
  /// plans.
  const GroupedMapping* group() const { return grouped_.get(); }
  /// Blocking factors (valid for both plan flavors).
  const gpu::BlockShape& block() const { return block_; }
  std::int64_t grid() const { return grid_; }
  std::int64_t tiles() const { return tiles_; }

  /// The ordered segment stream of CTA `cta`, as a view into the arena.
  std::span<const TileSegment> cta_segments(std::int64_t cta) const;
  bool cta_empty(std::int64_t cta) const { return cta_segments(cta).empty(); }

  /// Resolves global tile `tile` to (problem, tm, tn): the mapping's tile
  /// order for single-problem plans (always problem 0), problem-major
  /// row-major order for grouped ones.  The one tile decoder every
  /// executor and analyzer uses.
  TileRef tile_ref(std::int64_t tile) const;

  /// Panel-cache slot keys (A row-panel, B column-panel) of `ref`:
  /// problem-qualified through the group's panel offsets, since two
  /// problems' tiles at equal local coordinates read different operands.
  std::pair<std::int64_t, std::int64_t> panel_keys(const TileRef& ref) const;

  /// Every segment of the schedule, CTA-major.
  std::span<const TileSegment> segments() const { return segments_; }

  /// CTA owning `tile` (performed its k = 0 iteration); -1 only for
  /// malformed schedules, which validate_plan() rejects.
  std::int64_t tile_owner(std::int64_t tile) const;

  /// CTAs spilling partials for `tile`, ascending id, owner excluded.
  std::span<const std::int64_t> tile_contributors(std::int64_t tile) const;

  /// CTAs covering `tile` (owner + contributors).
  std::int64_t tile_peer_count(std::int64_t tile) const {
    return 1 + static_cast<std::int64_t>(tile_contributors(tile).size());
  }

  /// Partials-slot index of `cta`, or -1 when the CTA never spills.  Slots
  /// are dense in [0, spill_slot_count()) and assigned in ascending CTA id.
  std::int64_t spill_slot(std::int64_t cta) const;
  std::int64_t spill_slot_count() const { return spill_slots_; }

  std::int64_t total_segments() const {
    return static_cast<std::int64_t>(segments_.size());
  }
  /// MAC-loop iterations covered by all segments (== mapping().total_iters()
  /// for any valid schedule).
  std::int64_t total_iters() const { return total_iters_; }
  /// Non-starting segments == partial tiles written to temporary storage.
  std::int64_t total_spills() const { return total_spills_; }
  /// Tiles covered by more than one CTA ("splitting seams").
  std::int64_t split_tiles() const { return split_tiles_; }
  /// Largest peer count over all tiles.
  std::int64_t max_peers() const { return max_peers_; }
  std::int64_t nonempty_ctas() const { return nonempty_ctas_; }

  /// Packed-panel chunking the CPU microkernel path uses for this plan.
  const PackedPanelGeometry& pack_geometry() const { return pack_geometry_; }

  /// Shared panel-cache slot geometry.
  const PanelCacheGeometry& panel_geometry() const { return panel_geometry_; }

  /// Dispatch waves on a device exposing `slots` residency slots.
  std::int64_t waves(std::int64_t slots) const {
    return slots > 0 ? ceil_div(grid_, slots) : 0;
  }

  /// False when compilation observed a structurally unrunnable schedule:
  /// a tile without an owner, a tile with two owners, or a CTA with two
  /// non-starting segments.  validate_plan() gives the precise diagnostic.
  bool runnable() const {
    return !missing_owner_ && !duplicate_owner_ && !double_spill_;
  }

  /// Throws CheckError unless runnable().  Execution substrates call this
  /// before touching partials slots, restoring the fail-fast behaviour the
  /// pre-plan FixupTable / FixupWorkspace constructors provided.
  void check_runnable() const;

  /// The compiled epilogue attached to this plan for `spec`'s op chain:
  /// compiles + validates on first use and memoizes per epilogue class
  /// (thread-safe; copies of the plan share one memo).  A steady-state
  /// fused call pays a shared-lock acquire plus a short op-chain compare
  /// -- no allocation, no recompile.  The chain's data bindings are
  /// deliberately *not*
  /// captured -- plans are shared across calls, bindings are per call.
  epilogue::EpiloguePlanPtr epilogue_plan(
      const epilogue::EpilogueSpec& spec) const;

 private:
  /// One pass over `work_of` for every CTA in [0, grid_): fills the arena,
  /// owner/spill tracking, and totals (the shared compilation core of both
  /// constructors).
  void ingest_ctas(const std::function<CtaWork(std::int64_t)>& work_of);
  /// Packed-panel chunk depth from the observed longest segment.
  void finalize_pack_chunking();
  /// Prefix-sums contributor counts and fills the contributor pool.
  void build_contributor_index();

  DecompositionKind kind_;
  std::string name_;
  WorkMapping mapping_;
  gpu::BlockShape block_;
  std::int64_t grid_;
  std::int64_t tiles_ = 0;
  /// Set only for grouped plans (shared so plan copies stay cheap).
  std::shared_ptr<const GroupedMapping> grouped_;

  std::vector<TileSegment> segments_;       ///< CTA-major arena
  std::vector<std::int64_t> cta_offsets_;   ///< grid + 1 offsets into arena

  std::vector<std::int64_t> tile_owner_;          ///< tiles
  std::vector<std::int64_t> contributor_pool_;    ///< flat, ascending per tile
  std::vector<std::int64_t> contributor_offsets_; ///< tiles + 1 offsets

  std::vector<std::int64_t> spill_slot_of_cta_;   ///< grid, -1 = no slot
  std::int64_t spill_slots_ = 0;

  PackedPanelGeometry pack_geometry_;
  PanelCacheGeometry panel_geometry_;

  std::int64_t total_iters_ = 0;
  std::int64_t total_spills_ = 0;
  std::int64_t split_tiles_ = 0;
  std::int64_t max_peers_ = 1;
  std::int64_t nonempty_ctas_ = 0;

  bool missing_owner_ = false;
  bool duplicate_owner_ = false;
  bool double_spill_ = false;

  /// Per-class memo behind epilogue_plan(); held by shared_ptr so the plan
  /// stays movable/copyable (a mutex member would pin it) and copies share
  /// the compiled chains.
  struct EpilogueMemo;
  std::shared_ptr<EpilogueMemo> epilogue_memo_;
};

/// Compiles the entire decomposition into a SchedulePlan (one cta_work()
/// sweep; O(total segments) time and space).
SchedulePlan compile_plan(const Decomposition& decomposition);

/// Cache key: everything a compiled plan depends on.  `device_sms` carries
/// the GpuSpec discriminator so the same logical GEMM planned for two
/// devices of different width never aliases.
struct PlanKey {
  GemmShape shape;
  gpu::BlockShape block;
  TileOrder order = TileOrder::kRowMajor;
  DecompositionKind kind = DecompositionKind::kDataParallel;
  std::int64_t grid = 0;
  std::int64_t split = 1;
  std::int64_t sm_count = 0;
  std::int64_t device_sms = 0;
  /// Grouped plans: the shape sequence in group order (shape itself is the
  /// zero GemmShape then, so grouped keys never alias single-problem ones).
  std::vector<GemmShape> group;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// Builds the key for (mapping, spec) with the Stream-K default grid
/// resolved, so specs that construct identical schedules share one entry.
PlanKey make_plan_key(const WorkMapping& mapping, const DecompositionSpec& spec,
                      std::int64_t device_sms = 0);
PlanKey make_plan_key(const WorkMapping& mapping, const DecompositionSpec& spec,
                      const gpu::GpuSpec& gpu);

/// Key for a grouped plan: same normalization, keyed on the ordered shape
/// sequence plus the shared block.
PlanKey make_grouped_plan_key(const GroupedMapping& grouped,
                              const DecompositionSpec& spec,
                              std::int64_t device_sms = 0);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const;
};

/// Thread-safe memoization of compiled plans for the ensemble/library layer.
/// Hits return pointer-identical plans; misses compile outside the lock and
/// insert-or-adopt, so concurrent first lookups of one key also converge on
/// a single plan object.  Capacity is bounded (FIFO eviction) so corpus
/// sweeps over unbounded shape populations cannot grow memory without
/// limit; outstanding shared_ptrs keep evicted plans alive for holders.
class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const SchedulePlan>;

  /// `max_plans` bounds the resident plan count (must be >= 1).
  explicit PlanCache(std::size_t max_plans = 4096);

  /// The plan for `key`, compiling make_decomposition(spec, mapping) on miss.
  PlanPtr obtain(const PlanKey& key, const WorkMapping& mapping,
                 const DecompositionSpec& spec);

  /// Grouped flavor: compiles SchedulePlan(grouped, spec) on miss.
  PlanPtr obtain(const PlanKey& key, const GroupedMapping& grouped,
                 const DecompositionSpec& spec);

  /// The cached plan for `key`, or nullptr (never compiles).
  PlanPtr lookup(const PlanKey& key) const;

  std::size_t size() const;
  std::size_t capacity() const { return max_plans_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  void clear();

 private:
  /// Hit path of obtain(): counts and returns the cached plan, or nullptr.
  PlanPtr hit_or_null(const PlanKey& key);
  /// Miss path: insert `plan` or adopt a concurrent winner (FIFO eviction).
  PlanPtr insert_or_adopt(const PlanKey& key, PlanPtr plan);

  std::size_t max_plans_;
  mutable std::mutex mutex_;
  std::unordered_map<PlanKey, PlanPtr, PlanKeyHash> plans_;
  /// Insertion order for FIFO eviction.
  std::deque<PlanKey> insertion_order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace streamk::core
