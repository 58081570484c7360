#include "core/schedule_plan.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "analysis/analyze.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace streamk::core {

/// Keyed on the op chain itself -- the compiled plan depends only on
/// structure, never on bindings.  A linear scan over the few distinct
/// chains ever attached to one schedule beats hashing: the steady-state
/// probe is a shared-lock acquire plus a short vector compare, with no
/// string construction or allocation.
struct SchedulePlan::EpilogueMemo {
  /// Memoization stops beyond this many distinct chains: a caller varying
  /// op immediates per request (e.g. a dynamic clamp bound) would other-
  /// wise grow an immortal plan's memo and its linear probe without bound.
  /// Past the cap such chains just recompile per call, which is cheap.
  static constexpr std::size_t kMaxEntries = 64;

  std::shared_mutex mutex;
  std::vector<std::pair<std::vector<epilogue::EpilogueOp>,
                        epilogue::EpiloguePlanPtr>>
      entries;

  epilogue::EpiloguePlanPtr find(std::span<const epilogue::EpilogueOp> ops) {
    for (const auto& [chain, plan] : entries) {
      if (chain.size() == ops.size() &&
          std::equal(chain.begin(), chain.end(), ops.begin())) {
        return plan;
      }
    }
    return nullptr;
  }
};

SchedulePlan::SchedulePlan(const Decomposition& decomposition)
    : kind_(decomposition.kind()),
      name_(decomposition.name()),
      mapping_(decomposition.mapping()),
      block_(decomposition.mapping().block()),
      grid_(decomposition.grid_size()),
      tiles_(decomposition.mapping().tiles()),
      epilogue_memo_(std::make_shared<EpilogueMemo>()) {
  ingest_ctas([&](std::int64_t cta) { return decomposition.cta_work(cta); });
  finalize_pack_chunking();

  // Shared panel-cache slot grid: one slot per (panel, k-chunk) at the pack
  // chunking above, chunks anchored at absolute k = 0.  Sharing is worth
  // arming only when at least two tiles can reuse a panel.
  panel_geometry_.row_panels = mapping_.tiles_m();
  panel_geometry_.col_panels = mapping_.tiles_n();
  panel_geometry_.panel_kc = pack_geometry_.panel_kc;
  panel_geometry_.chunks =
      ceil_div(mapping_.iters_per_tile(), pack_geometry_.chunk_iters);
  panel_geometry_.shareable = tiles_ >= 2;

  build_contributor_index();
}

SchedulePlan::SchedulePlan(const GroupedMapping& grouped,
                           const DecompositionSpec& spec)
    : SchedulePlan(grouped, spec, grouped_grid_size(grouped, spec),
                   [&](std::int64_t cta) {
                     return grouped_cta_work(grouped, spec, cta);
                   }) {}

SchedulePlan::SchedulePlan(const GroupedMapping& grouped,
                           const DecompositionSpec& spec, std::int64_t grid,
                           const std::function<CtaWork(std::int64_t)>& work_of)
    : kind_(spec.kind),
      name_(grouped_plan_name(grouped, spec)),
      // Placeholder quantization of problem 0 so the member stays default-
      // constructible-free; mapping() refuses to hand it out.
      mapping_(grouped.problem(0).shape, grouped.block()),
      block_(grouped.block()),
      grid_(grid),
      tiles_(grouped.tiles()),
      grouped_(std::make_shared<const GroupedMapping>(grouped)),
      epilogue_memo_(std::make_shared<EpilogueMemo>()) {
  ingest_ctas(work_of);
  finalize_pack_chunking();

  // Group-wide panel-key space: problem p's A row-panel r lives at key
  // row_panel_offset(p) + r (and B column-panels likewise), so panels of
  // different problems -- which read different operand matrices -- never
  // share a cache slot.  The chunk axis is sized for the deepest problem;
  // shallower problems simply leave their tail chunk slots unused.
  panel_geometry_.row_panels = grouped.row_panels();
  panel_geometry_.col_panels = grouped.col_panels();
  panel_geometry_.panel_kc = pack_geometry_.panel_kc;
  std::int64_t chunks = 1;
  bool shareable = false;
  for (std::size_t p = 0; p < grouped.problems(); ++p) {
    const GroupedProblem& prob = grouped.problem(p);
    chunks = std::max(
        chunks, ceil_div(prob.iters_per_tile, pack_geometry_.chunk_iters));
    shareable = shareable || prob.tiles >= 2;
  }
  panel_geometry_.chunks = chunks;
  panel_geometry_.shareable = shareable;

  build_contributor_index();
}

void SchedulePlan::ingest_ctas(
    const std::function<CtaWork(std::int64_t)>& work_of) {
  util::check(grid_ >= 1, "empty grid");

  tile_owner_.assign(static_cast<std::size_t>(tiles_), -1);
  spill_slot_of_cta_.assign(static_cast<std::size_t>(grid_), -1);
  contributor_offsets_.assign(static_cast<std::size_t>(tiles_) + 1, 0);
  // contributor_offsets_[t + 1] holds tile t's raw count until
  // build_contributor_index() prefix-sums it.
  std::vector<std::int64_t>& contributor_count = contributor_offsets_;

  cta_offsets_.reserve(static_cast<std::size_t>(grid_) + 1);
  cta_offsets_.push_back(0);
  for (std::int64_t cta = 0; cta < grid_; ++cta) {
    const CtaWork work = work_of(cta);
    for (const TileSegment& seg : work.segments) {
      // The one structural property compilation itself relies on for memory
      // safety; everything else is validate_plan()'s job.
      util::check(seg.tile_idx >= 0 && seg.tile_idx < tiles_,
                  "segment tile out of range");
      const auto tile = static_cast<std::size_t>(seg.tile_idx);
      if (seg.starts_tile()) {
        if (tile_owner_[tile] == -1) {
          tile_owner_[tile] = cta;
        } else {
          duplicate_owner_ = true;
        }
      } else {
        ++contributor_count[tile + 1];
        ++total_spills_;
        if (spill_slot_of_cta_[static_cast<std::size_t>(cta)] == -1) {
          spill_slot_of_cta_[static_cast<std::size_t>(cta)] = spill_slots_++;
        } else {
          double_spill_ = true;
        }
      }
      total_iters_ += seg.iters();
      pack_geometry_.max_segment_iters =
          std::max(pack_geometry_.max_segment_iters, seg.iters());
      segments_.push_back(seg);
    }
    if (!work.segments.empty()) ++nonempty_ctas_;
    cta_offsets_.push_back(static_cast<std::int64_t>(segments_.size()));
  }
}

void SchedulePlan::finalize_pack_chunking() {
  // Packed-panel chunking for the CPU microkernel path: as many MAC-loop
  // iterations per chunk as fit the target depth, never more than the
  // longest segment actually carries.
  const std::int64_t blk_k = block_.k;
  std::int64_t chunk_iters =
      std::max<std::int64_t>(1, PackedPanelGeometry::kTargetPanelDepth / blk_k);
  if (pack_geometry_.max_segment_iters > 0) {
    chunk_iters = std::min(chunk_iters, pack_geometry_.max_segment_iters);
  }
  pack_geometry_.chunk_iters = chunk_iters;
  pack_geometry_.panel_kc = chunk_iters * blk_k;
}

void SchedulePlan::build_contributor_index() {
  // ingest_ctas left tile t's contributor count at offsets[t + 1];
  // prefix-sum in place.
  for (std::int64_t tile = 0; tile < tiles_; ++tile) {
    const auto t = static_cast<std::size_t>(tile);
    const std::int64_t count = contributor_offsets_[t + 1];
    contributor_offsets_[t + 1] += contributor_offsets_[t];
    if (count > 0) ++split_tiles_;
    max_peers_ = std::max(max_peers_, 1 + count);
    if (tile_owner_[t] == -1) missing_owner_ = true;
  }

  // Second sweep over the arena fills the pool; CTA-major order makes each
  // tile's contributors ascending by construction.
  contributor_pool_.resize(static_cast<std::size_t>(
      contributor_offsets_[static_cast<std::size_t>(tiles_)]));
  std::vector<std::int64_t> cursor(contributor_offsets_.begin(),
                                   contributor_offsets_.end() - 1);
  for (std::int64_t cta = 0; cta < grid_; ++cta) {
    for (const TileSegment& seg : cta_segments(cta)) {
      if (!seg.starts_tile()) {
        const auto tile = static_cast<std::size_t>(seg.tile_idx);
        contributor_pool_[static_cast<std::size_t>(cursor[tile]++)] = cta;
      }
    }
  }
}

const WorkMapping& SchedulePlan::mapping() const {
  util::check(grouped_ == nullptr,
              "grouped plan has no single-problem WorkMapping (use group())");
  return mapping_;
}

std::span<const TileSegment> SchedulePlan::cta_segments(
    std::int64_t cta) const {
  util::check(cta >= 0 && cta < grid_, "CTA index out of range");
  const auto begin = static_cast<std::size_t>(
      cta_offsets_[static_cast<std::size_t>(cta)]);
  const auto end = static_cast<std::size_t>(
      cta_offsets_[static_cast<std::size_t>(cta) + 1]);
  return std::span<const TileSegment>(segments_.data() + begin, end - begin);
}

TileRef SchedulePlan::tile_ref(std::int64_t tile) const {
  if (grouped_ != nullptr) return grouped_->tile_ref(tile);
  const TileCoord coord = mapping_.tile_coord(tile);
  return TileRef{0, coord.tm, coord.tn};
}

std::pair<std::int64_t, std::int64_t> SchedulePlan::panel_keys(
    const TileRef& ref) const {
  if (grouped_ == nullptr) return {ref.tm, ref.tn};
  const GroupedProblem& prob = grouped_->problem(ref.problem);
  return {prob.row_panel_offset + ref.tm, prob.col_panel_offset + ref.tn};
}

std::int64_t SchedulePlan::tile_owner(std::int64_t tile) const {
  util::check(tile >= 0 && tile < tiles(), "tile index out of range");
  return tile_owner_[static_cast<std::size_t>(tile)];
}

std::span<const std::int64_t> SchedulePlan::tile_contributors(
    std::int64_t tile) const {
  util::check(tile >= 0 && tile < tiles(), "tile index out of range");
  const auto begin = static_cast<std::size_t>(
      contributor_offsets_[static_cast<std::size_t>(tile)]);
  const auto end = static_cast<std::size_t>(
      contributor_offsets_[static_cast<std::size_t>(tile) + 1]);
  return std::span<const std::int64_t>(contributor_pool_.data() + begin,
                                       end - begin);
}

std::int64_t SchedulePlan::spill_slot(std::int64_t cta) const {
  util::check(cta >= 0 && cta < grid_, "CTA index out of range");
  return spill_slot_of_cta_[static_cast<std::size_t>(cta)];
}

void SchedulePlan::check_runnable() const {
  util::check(!missing_owner_, "tile has no owning CTA");
  util::check(!duplicate_owner_, "tile has two owning CTAs");
  util::check(!double_spill_, "CTA spills twice");
}

epilogue::EpiloguePlanPtr SchedulePlan::epilogue_plan(
    const epilogue::EpilogueSpec& spec) const {
  if (spec.empty()) return epilogue::identity_plan();
  {
    std::shared_lock lock(epilogue_memo_->mutex);
    if (auto plan = epilogue_memo_->find(spec.ops)) return plan;
    // At cap there is nothing to insert: recompile without serializing
    // concurrent submitters on the exclusive lock.
    if (epilogue_memo_->entries.size() >= EpilogueMemo::kMaxEntries) {
      lock.unlock();
      return epilogue::compile(spec.ops);
    }
  }
  std::unique_lock lock(epilogue_memo_->mutex);
  if (auto plan = epilogue_memo_->find(spec.ops)) return plan;
  epilogue::EpiloguePlanPtr compiled = epilogue::compile(spec.ops);
  if (epilogue_memo_->entries.size() < EpilogueMemo::kMaxEntries) {
    epilogue_memo_->entries.emplace_back(
        std::vector<epilogue::EpilogueOp>(spec.ops.begin(), spec.ops.end()),
        compiled);
  }
  return compiled;
}

SchedulePlan compile_plan(const Decomposition& decomposition) {
  return SchedulePlan(decomposition);
}

PlanKey make_plan_key(const WorkMapping& mapping, const DecompositionSpec& spec,
                      std::int64_t device_sms) {
  PlanKey key;
  key.shape = mapping.shape();
  key.block = mapping.block();
  key.order = mapping.tile_order();
  key.kind = spec.kind;
  key.split = spec.split;
  key.sm_count = spec.sm_count;
  key.device_sms = device_sms;
  // make_decomposition resolves a non-positive Stream-K grid to the SM
  // count; normalize here so both spellings share a cache entry.
  key.grid = spec.kind == DecompositionKind::kStreamKBasic && spec.grid <= 0
                 ? spec.sm_count
                 : spec.grid;
  return key;
}

PlanKey make_plan_key(const WorkMapping& mapping, const DecompositionSpec& spec,
                      const gpu::GpuSpec& gpu) {
  return make_plan_key(mapping, spec, gpu.sm_count);
}

PlanKey make_grouped_plan_key(const GroupedMapping& grouped,
                              const DecompositionSpec& spec,
                              std::int64_t device_sms) {
  PlanKey key;
  // shape stays the zero GemmShape: the group vector is the shape identity,
  // and the zero shape is invalid as a plain key so the two never alias.
  key.block = grouped.block();
  key.order = TileOrder::kRowMajor;
  key.kind = spec.kind;
  key.split = spec.split;
  key.sm_count = spec.sm_count;
  key.device_sms = device_sms;
  key.grid = spec.kind == DecompositionKind::kStreamKBasic && spec.grid <= 0
                 ? spec.sm_count
                 : spec.grid;
  key.group = grouped.shapes();
  return key;
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  std::size_t seed = 0;
  auto mix = [&seed](std::uint64_t v) {
    // splitmix64-style avalanche, boost::hash_combine composition.
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    seed ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
            (seed >> 2);
  };
  mix(static_cast<std::uint64_t>(key.shape.m));
  mix(static_cast<std::uint64_t>(key.shape.n));
  mix(static_cast<std::uint64_t>(key.shape.k));
  mix(static_cast<std::uint64_t>(key.block.m));
  mix(static_cast<std::uint64_t>(key.block.n));
  mix(static_cast<std::uint64_t>(key.block.k));
  mix(static_cast<std::uint64_t>(key.order));
  mix(static_cast<std::uint64_t>(key.kind));
  mix(static_cast<std::uint64_t>(key.grid));
  mix(static_cast<std::uint64_t>(key.split));
  mix(static_cast<std::uint64_t>(key.sm_count));
  mix(static_cast<std::uint64_t>(key.device_sms));
  mix(static_cast<std::uint64_t>(key.group.size()));
  for (const GemmShape& shape : key.group) {
    mix(static_cast<std::uint64_t>(shape.m));
    mix(static_cast<std::uint64_t>(shape.n));
    mix(static_cast<std::uint64_t>(shape.k));
  }
  return seed;
}

PlanCache::PlanCache(std::size_t max_plans)
    : max_plans_(max_plans) {
  util::check(max_plans_ >= 1, "PlanCache needs capacity for one plan");
}

PlanCache::PlanPtr PlanCache::hit_or_null(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    STREAMK_OBS_COUNT("plan_cache.misses");
    return nullptr;
  }
  ++hits_;
  STREAMK_OBS_COUNT("plan_cache.hits");
  return it->second;
}

PlanCache::PlanPtr PlanCache::insert_or_adopt(const PlanKey& key,
                                              PlanPtr plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = plans_.emplace(key, std::move(plan));
  PlanPtr result = it->second;
  if (inserted) {
    ++misses_;
    insertion_order_.push_back(key);
    // FIFO eviction; the freshly inserted key sits at the back, so it is
    // never the one evicted (capacity >= 1).
    while (plans_.size() > max_plans_) {
      plans_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++evictions_;
      STREAMK_OBS_COUNT("plan_cache.evictions");
    }
  } else {
    ++hits_;  // lost a compile race; adopt the winner for pointer identity
  }
  return result;
}

PlanCache::PlanPtr PlanCache::obtain(const PlanKey& key,
                                     const WorkMapping& mapping,
                                     const DecompositionSpec& spec) {
  if (PlanPtr hit = hit_or_null(key)) return hit;

  STREAMK_OBS_SPAN(kPlanCompile, key.shape.m * key.shape.n, key.shape.k);
  // Compile outside the lock: schedule compilation is the expensive part,
  // and concurrent misses of *different* keys must not serialize.
  const auto decomposition = make_decomposition(spec, mapping);
  auto plan = std::make_shared<const SchedulePlan>(*decomposition);
  // Static concurrency sweep of every distinct plan before anything can run
  // it (no-op unless armed; see analysis/analyze.hpp).
  analysis::maybe_check_on_insert(*plan);
  return insert_or_adopt(key, std::move(plan));
}

PlanCache::PlanPtr PlanCache::obtain(const PlanKey& key,
                                     const GroupedMapping& grouped,
                                     const DecompositionSpec& spec) {
  if (PlanPtr hit = hit_or_null(key)) return hit;
  STREAMK_OBS_SPAN(kPlanCompile, key.shape.m * key.shape.n, key.shape.k);
  auto plan = std::make_shared<const SchedulePlan>(grouped, spec);
  analysis::maybe_check_on_insert(*plan);
  return insert_or_adopt(key, std::move(plan));
}

PlanCache::PlanPtr PlanCache::lookup(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = plans_.find(key);
  return it != plans_.end() ? it->second : nullptr;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  insertion_order_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace streamk::core
