#pragma once

// Multi-problem (grouped / ragged-batch) work mapping.
//
// Every problem brings its own (m, n, k) -- hence its own tile count AND its
// own iterations-per-tile -- and the per-problem linearized iteration spaces
// are concatenated into one global domain (a uniform batch, cpu/batched.hpp,
// is simply a group of identical shapes):
//
//     global tile  = problem.tile_offset + (tm * tiles_n(p) + tn)
//     global iter  = problem.iter_offset + local_tile * ipt(p) + local_k
//
// Any decomposition over that domain balances across problem boundaries the
// same way Stream-K balances across tile boundaries: a CTA's contiguous
// iteration range may open on the tail of one problem's tile and close on
// the head of the next problem's, and the ordinary fixup protocol (spill /
// signal / owner-reduce) handles the seam because segments never span tiles.
// Nothing downstream of segment generation -- SchedulePlan compilation,
// fixup indexing, spill accounting, the fused-epilogue once-per-element
// invariant -- knows groups exist.
//
// The uniform-iters WorkMapping arithmetic (iter / ipt) does not survive
// mixed shapes, so GroupedMapping carries per-problem prefix sums and
// resolves tiles/iterations by binary search over them.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "core/stream_k.hpp"

namespace streamk::core {

/// One problem of a grouped GEMM: its quantization plus the prefix offsets
/// placing it in the concatenated tile / iteration / panel-key spaces.
struct GroupedProblem {
  GemmShape shape;
  std::int64_t tiles_m = 0;
  std::int64_t tiles_n = 0;
  std::int64_t tiles = 0;
  std::int64_t iters_per_tile = 0;
  std::int64_t tile_offset = 0;       ///< first global tile index
  std::int64_t iter_offset = 0;       ///< first global iteration
  std::int64_t row_panel_offset = 0;  ///< first A row-panel cache key
  std::int64_t col_panel_offset = 0;  ///< first B column-panel cache key
};

/// A global tile resolved to its owning problem and problem-local block
/// coordinates (core::SchedulePlan::tile_ref resolves single-problem and
/// grouped plans alike).
struct TileRef {
  std::size_t problem = 0;
  std::int64_t tm = 0;
  std::int64_t tn = 0;
};

class GroupedMapping {
 public:
  /// Quantizes every shape with one shared blocking factor and concatenates
  /// the per-problem spaces in span order.  Shapes may be ragged against the
  /// block and may set k == 0 (a pure beta/epilogue update still owns one
  /// zero-extent iteration per tile so every schedule covers its store).
  GroupedMapping(std::span<const GemmShape> shapes, gpu::BlockShape block);

  const gpu::BlockShape& block() const { return block_; }
  std::size_t problems() const { return problems_.size(); }
  const GroupedProblem& problem(std::size_t p) const { return problems_[p]; }

  std::int64_t tiles() const { return tiles_; }
  std::int64_t total_iters() const { return total_iters_; }
  /// Concatenated panel-key space extents (problem-qualified, since two
  /// problems' panels at equal local coordinates read different operands).
  std::int64_t row_panels() const { return row_panels_; }
  std::int64_t col_panels() const { return col_panels_; }
  std::int64_t max_iters_per_tile() const { return max_iters_per_tile_; }
  std::int64_t min_iters_per_tile() const { return min_iters_per_tile_; }

  std::size_t problem_of_tile(std::int64_t tile) const;
  std::size_t problem_of_iter(std::int64_t iter) const;
  TileRef tile_ref(std::int64_t tile) const;
  std::int64_t iters_per_tile(std::int64_t tile) const;
  std::int64_t tile_iter_begin(std::int64_t tile) const;

  /// Segments covering the global iteration range (the non-uniform-ipt
  /// analogue of core::append_segments): one segment per touched tile,
  /// clipped to the range, flags per the fixup contract.
  void append_segments(IterRange range, std::vector<TileSegment>& out) const;

  /// The shapes in group order (the plan-cache key component).
  std::vector<GemmShape> shapes() const;

 private:
  gpu::BlockShape block_;
  std::vector<GroupedProblem> problems_;
  std::int64_t tiles_ = 0;
  std::int64_t total_iters_ = 0;
  std::int64_t row_panels_ = 0;
  std::int64_t col_panels_ = 0;
  std::int64_t max_iters_per_tile_ = 0;
  std::int64_t min_iters_per_tile_ = 0;
};

/// CTAs the spec launches over the grouped domain, mirroring
/// make_decomposition's resolution rules (Stream-K grid defaults to
/// sm_count; hybrids require it).
std::int64_t grouped_grid_size(const GroupedMapping& grouped,
                               const DecompositionSpec& spec);

/// The ordered segment stream of one CTA: the five decomposition kinds
/// generalized to non-uniform iters-per-tile.  Data-parallel issues one
/// whole tile per CTA; fixed-split splits each tile by its *own* iteration
/// count; Stream-K and the hybrids partition the concatenated iteration
/// space, so heavy problems naturally receive more CTAs.
CtaWork grouped_cta_work(const GroupedMapping& grouped,
                         const DecompositionSpec& spec, std::int64_t cta);

/// Human-readable schedule name, e.g. "grouped[32]:stream-k(g=8)".
std::string grouped_plan_name(const GroupedMapping& grouped,
                              const DecompositionSpec& spec);

}  // namespace streamk::core
