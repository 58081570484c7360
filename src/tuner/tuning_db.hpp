#pragma once

// Persistent tuning database: shape -> measured-best kernel configuration.
//
// The paper's evaluation pits one analytically-planned Stream-K kernel
// against *tuned* ensembles; production GEMM stacks (MIOpen's PerfDb,
// composable_kernel's offline-searched instance tables) settle the same
// question empirically by persisting per-shape winners across runs.  A
// TuningDb is our equivalent: a thread-safe map from (GEMM shape,
// precision) to the TunedConfig that measured fastest, with versioned
// on-disk persistence so tuning survives process restarts and tuning
// artifacts from different hosts/CI runs compose.
//
// Merge semantics: every insertion path (update(), merge(), load()) keeps
// the record with the *smaller measured seconds* per key, so combining
// databases in any order converges to the element-wise best.  save()
// writes a uniquely named temp file and renames it, so readers never
// observe a torn snapshot; merge_save() additionally serializes concurrent
// contributors behind an advisory file lock so no writer's records are
// lost to the load/save window.
//
// Caveat: "smaller seconds wins" presumes one time base.  Records measured
// on different hosts (or by the simulator-backed EmpiricalLibrary, whose
// seconds are A100 estimates) are not commensurable; keep one database per
// measurement domain.  As a belt-and-braces guard, runtime dispatch caps a
// record's worker count at the consuming host's util::default_workers()
// (see cpu::apply_tuned_dispatch), so a foreign db can mis-rank schedules
// but cannot oversubscribe the machine.
//
// On-disk format (version tagged, CSV payload):
//
//   # streamk-tuning-db v4
//   m,n,k,precision,epilogue,group,kind,block_m,block_n,block_k,grid,split,workers,panel_cache,seconds,gflops
//   4096,4096,128,fp64,bias_col+relu,0,stream-k,48,48,16,8,1,0,on,0.0123,273.5
//
// The `epilogue` column is the canonical epilogue class key
// (epilogue::class_key; empty for an unfused GEMM): a fused epilogue
// changes a schedule's store cost, so winners are only valid within their
// epilogue class.  The `group` column (v4) is the grouped-GEMM shape-
// multiset digest (group_digest; 0 for a plain GEMM): a grouped schedule
// balances a different tile space than the plain GEMM of the same
// aggregate shape, so their winners must never be served to each other.
// The `panel_cache` column (v3) records the measured verdict on the shared
// packed-panel cache (cpu/panel_cache.hpp) as one of `auto` / `on` /
// `off`.  Loaders reject any version but v4 instead of guessing at column
// meanings.

#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/gemm_shape.hpp"
#include "gpu/block_shape.hpp"
#include "gpu/precision.hpp"

namespace streamk::tuner {

/// A complete dispatch decision: everything the runtime needs to turn a
/// GEMM request into a concrete compiled plan without consulting the
/// heuristics or the analytical planner.
struct TunedConfig {
  core::DecompositionKind kind = core::DecompositionKind::kDataParallel;
  gpu::BlockShape block;
  std::int64_t grid = 0;    ///< Stream-K grid (kStreamKBasic; 0 = workers)
  std::int64_t split = 1;   ///< fixed-split factor (kFixedSplit)
  std::size_t workers = 0;  ///< worker count (0 = util::default_workers())
  /// Measured shared-panel-cache verdict: -1 = no verdict (dispatch keeps
  /// kAuto), 0 = forced off, 1 = forced on.  An int rather than the
  /// executor enum so the db layer stays decoupled from cpu headers.
  int panel_cache = -1;

  friend bool operator==(const TunedConfig&, const TunedConfig&) = default;

  std::string to_string() const;
};

/// Resolves a TunedConfig into the DecompositionSpec it denotes for a
/// machine exposing `sm_count` concurrency slots.
core::DecompositionSpec to_spec(const TunedConfig& config,
                                std::int64_t sm_count);

/// Database key: the problem identity a measurement generalizes over --
/// shape, precision, and the epilogue *class* (the canonical op-chain
/// fingerprint from epilogue::class_key; "" for unfused).  A fused chain
/// changes the store-side cost every candidate pays, so a winner measured
/// for one class must never be served to another.
struct ShapeKey {
  core::GemmShape shape;
  gpu::Precision precision = gpu::Precision::kFp64;
  std::string epilogue;
  /// Grouped-GEMM shape-multiset digest (group_digest); 0 for plain GEMMs.
  /// Grouped keys set `shape` to the aggregate group_key_shape so the
  /// tuner's search space and reports stay meaningful, but the digest is
  /// what keeps a grouped winner from being served to the plain GEMM of
  /// the same aggregate shape (and vice versa).
  std::uint64_t group = 0;

  friend bool operator==(const ShapeKey&, const ShapeKey&) = default;
};

/// Order-insensitive digest of a grouped GEMM's shape multiset: the shapes
/// are sorted, then hashed.  Never returns 0 (the plain-GEMM sentinel).
/// Deterministic across processes, so CLI-tuned grouped records match
/// runtime dispatch keys.
std::uint64_t group_digest(std::span<const core::GemmShape> shapes);

/// The aggregate shape a grouped key files under: element-wise sums of the
/// group's m/n/k.  Purely cosmetic-plus-search-space identity -- the
/// digest carries the real key -- but deterministic and order-insensitive
/// to match group_digest.
core::GemmShape group_key_shape(std::span<const core::GemmShape> shapes);

struct ShapeKeyHash {
  std::size_t operator()(const ShapeKey& key) const;
};

/// One measured winner.
struct TuningRecord {
  TunedConfig config;
  double seconds = 0.0;  ///< best-of-reps measured execution time
  double gflops = 0.0;   ///< useful GFLOP/s at that time

  friend bool operator==(const TuningRecord&, const TuningRecord&) = default;
};

class TuningDb {
 public:
  /// Version tag written as the first line of every saved file, and the
  /// only one load() reads.  v4 added the grouped-GEMM digest column, v3
  /// the panel_cache verdict column, v2 the epilogue-class key column.
  static constexpr int kFormatVersion = 4;

  TuningDb() = default;

  // Movable would race with the internal mutex; the db is a shared sink.
  TuningDb(const TuningDb&) = delete;
  TuningDb& operator=(const TuningDb&) = delete;

  /// The stored record for `key`, if any.  Lookup is the runtime dispatch
  /// hot path: one hash probe under a *shared* lock (concurrent submitters
  /// do not serialize against each other), no allocation.
  std::optional<TuningRecord> lookup(const ShapeKey& key) const;

  /// Keep-faster insertion: stores `record` unless an existing record for
  /// `key` has smaller-or-equal seconds.  Returns true when stored.  The
  /// key's epilogue class is canonicalized (parse + reformat; throws
  /// util::CheckError on an unparseable class) so stored keys always match
  /// what runtime dispatch computes from a caller's chain.
  bool update(const ShapeKey& key, const TuningRecord& record);

  /// Keep-faster union with `other`; returns the number of keys updated.
  std::size_t merge(const TuningDb& other);

  /// Parses a saved database and merges it (keep-faster).  Returns the
  /// number of records parsed.  Throws util::CheckError on a missing file,
  /// a version tag other than kFormatVersion, or a malformed row.
  std::size_t load(const std::string& path);

  /// Writes a consistent snapshot: temp file in the same directory, then
  /// std::rename over `path`, so concurrent readers see either the old or
  /// the new complete file.  Rows are sorted (deterministic artifacts).
  /// Last-writer-wins at file granularity -- concurrent *writers* should
  /// use merge_save().
  void save(const std::string& path) const;

  /// The serialized cross-process "contribute" operation: holds an
  /// exclusive advisory lock on `path + ".lock"` while merging whatever is
  /// currently on disk into this db and saving the union, so concurrent
  /// contributors never lose each other's records (plain load-then-save
  /// has a read-modify-write window).  Returns the records read from disk.
  std::size_t merge_save(const std::string& path);

  /// Deterministically ordered copy of the contents (sorted by key).
  std::vector<std::pair<ShapeKey, TuningRecord>> snapshot() const;

  std::size_t size() const;
  void clear();

  /// Lock-free emptiness probe (relaxed atomic maintained by the write
  /// paths).  Lets dispatch skip the shared-lock probe entirely while no
  /// tuning data exists -- the common case for untuned processes.
  bool empty_fast() const {
    return approx_size_.load(std::memory_order_relaxed) == 0;
  }

  /// Dispatch telemetry: lookup() outcomes since construction.
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  /// Readers (lookup) take shared ownership, writers exclusive.
  mutable std::shared_mutex mutex_;
  std::unordered_map<ShapeKey, TuningRecord, ShapeKeyHash> records_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::size_t> approx_size_{0};
};

}  // namespace streamk::tuner
