#include "core/grouped.hpp"

#include <algorithm>

#include "core/hybrid.hpp"
#include "util/check.hpp"

namespace streamk::core {

GroupedMapping::GroupedMapping(std::span<const GemmShape> shapes,
                               gpu::BlockShape block)
    : block_(block) {
  util::check(!shapes.empty(), "grouped GEMM needs at least one problem");
  util::check(block.valid(), "invalid block shape");
  problems_.reserve(shapes.size());
  for (const GemmShape& shape : shapes) {
    util::check(shape.valid(), "invalid GEMM shape in group");
    GroupedProblem p;
    p.shape = shape;
    p.tiles_m = ceil_div(shape.m, block.m);
    p.tiles_n = ceil_div(shape.n, block.n);
    p.tiles = p.tiles_m * p.tiles_n;
    // k == 0 still owns one zero-extent iteration per tile, so every
    // schedule kind visits the tile exactly once and its beta/epilogue
    // store fires (matching WorkMapping's quantization).
    p.iters_per_tile = std::max<std::int64_t>(1, ceil_div(shape.k, block.k));
    p.tile_offset = tiles_;
    p.iter_offset = total_iters_;
    p.row_panel_offset = row_panels_;
    p.col_panel_offset = col_panels_;
    tiles_ += p.tiles;
    total_iters_ += p.tiles * p.iters_per_tile;
    row_panels_ += p.tiles_m;
    col_panels_ += p.tiles_n;
    max_iters_per_tile_ = std::max(max_iters_per_tile_, p.iters_per_tile);
    min_iters_per_tile_ = min_iters_per_tile_ == 0
                              ? p.iters_per_tile
                              : std::min(min_iters_per_tile_, p.iters_per_tile);
    problems_.push_back(p);
  }
}

std::size_t GroupedMapping::problem_of_tile(std::int64_t tile) const {
  util::check(tile >= 0 && tile < tiles_, "grouped tile index out of range");
  // Last problem whose tile_offset <= tile.
  std::size_t lo = 0, hi = problems_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (problems_[mid].tile_offset <= tile) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::size_t GroupedMapping::problem_of_iter(std::int64_t iter) const {
  util::check(iter >= 0 && iter < total_iters_,
              "grouped iteration index out of range");
  std::size_t lo = 0, hi = problems_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (problems_[mid].iter_offset <= iter) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

TileRef GroupedMapping::tile_ref(std::int64_t tile) const {
  const std::size_t p = problem_of_tile(tile);
  const GroupedProblem& prob = problems_[p];
  const std::int64_t local = tile - prob.tile_offset;
  return TileRef{p, local / prob.tiles_n, local % prob.tiles_n};
}

std::int64_t GroupedMapping::iters_per_tile(std::int64_t tile) const {
  return problems_[problem_of_tile(tile)].iters_per_tile;
}

std::int64_t GroupedMapping::tile_iter_begin(std::int64_t tile) const {
  const GroupedProblem& prob = problems_[problem_of_tile(tile)];
  return prob.iter_offset + (tile - prob.tile_offset) * prob.iters_per_tile;
}

void GroupedMapping::append_segments(IterRange range,
                                     std::vector<TileSegment>& out) const {
  if (range.begin >= range.end) return;
  const GroupedProblem* prob = &problems_[problem_of_iter(range.begin)];
  std::int64_t tile = prob->tile_offset +
                      (range.begin - prob->iter_offset) / prob->iters_per_tile;
  std::int64_t iter = range.begin;
  while (iter < range.end) {
    // Advancing one tile at a time crosses problem boundaries in step.
    if (tile >= prob->tile_offset + prob->tiles) {
      prob = &problems_[problem_of_tile(tile)];
    }
    const std::int64_t tile_begin =
        prob->iter_offset + (tile - prob->tile_offset) * prob->iters_per_tile;
    const std::int64_t tile_end = tile_begin + prob->iters_per_tile;
    const std::int64_t seg_end = std::min(range.end, tile_end);
    out.push_back(TileSegment{
        .tile_idx = tile,
        .iter_begin = iter - tile_begin,
        .iter_end = seg_end - tile_begin,
        .last = seg_end == tile_end,
    });
    iter = seg_end;
    if (iter >= tile_end) ++tile;
  }
}

std::vector<GemmShape> GroupedMapping::shapes() const {
  std::vector<GemmShape> out;
  out.reserve(problems_.size());
  for (const GroupedProblem& p : problems_) out.push_back(p.shape);
  return out;
}

std::int64_t grouped_grid_size(const GroupedMapping& grouped,
                               const DecompositionSpec& spec) {
  switch (spec.kind) {
    case DecompositionKind::kDataParallel:
      return grouped.tiles();
    case DecompositionKind::kFixedSplit:
      util::check(spec.split >= 1, "fixed-split factor must be >= 1");
      return grouped.tiles() * spec.split;
    case DecompositionKind::kStreamKBasic: {
      const std::int64_t g = spec.grid > 0 ? spec.grid : spec.sm_count;
      util::check(g > 0, "stream-k needs a grid size or SM count");
      return g;
    }
    case DecompositionKind::kHybridOneTile:
    case DecompositionKind::kHybridTwoTile:
      util::check(spec.sm_count > 0, "hybrid needs the SM count");
      return spec.sm_count;
  }
  util::fail("unknown decomposition kind");
}

namespace {

/// Whole-tile segment for DP waves / DP-scheduled tiles.
TileSegment full_tile(const GroupedMapping& grouped, std::int64_t tile) {
  return TileSegment{
      .tile_idx = tile,
      .iter_begin = 0,
      .iter_end = grouped.iters_per_tile(tile),
      .last = true,
  };
}

/// Iteration index one past tile `end_tile - 1` (end_tile may be tiles()).
std::int64_t iter_end_of_tiles(const GroupedMapping& grouped,
                               std::int64_t end_tile) {
  return end_tile >= grouped.tiles() ? grouped.total_iters()
                                     : grouped.tile_iter_begin(end_tile);
}

}  // namespace

CtaWork grouped_cta_work(const GroupedMapping& grouped,
                         const DecompositionSpec& spec, std::int64_t cta) {
  const std::int64_t grid = grouped_grid_size(grouped, spec);
  util::check(cta >= 0 && cta < grid, "CTA index out of range");
  CtaWork work;

  switch (spec.kind) {
    case DecompositionKind::kDataParallel: {
      work.segments.push_back(full_tile(grouped, cta));
      return work;
    }
    case DecompositionKind::kFixedSplit: {
      // Each tile splits by its *own* iteration count; light problems'
      // tails over-split into empty CTAs, exactly like FixedSplit on an
      // over-split uniform mapping.
      const std::int64_t tile = cta / spec.split;
      const std::int64_t y = cta % spec.split;
      const std::int64_t ipt = grouped.iters_per_tile(tile);
      const std::int64_t iters_per_split = ceil_div(ipt, spec.split);
      const std::int64_t begin = y * iters_per_split;
      const std::int64_t end = std::min(ipt, begin + iters_per_split);
      if (begin >= end) return work;
      work.segments.push_back(TileSegment{
          .tile_idx = tile,
          .iter_begin = begin,
          .iter_end = end,
          .last = end == ipt,
      });
      return work;
    }
    case DecompositionKind::kStreamKBasic: {
      grouped.append_segments(
          partition_iters(grouped.total_iters(), grid, cta,
                          IterPartition::kBalancedWithinOne),
          work.segments);
      return work;
    }
    case DecompositionKind::kHybridOneTile:
    case DecompositionKind::kHybridTwoTile: {
      // The hybrid layouts quantize in whole tiles, so the tile-count
      // overloads apply unchanged; the Stream-K region's share per CTA is
      // balanced in *iterations* of its (mixed-depth) tile range.
      const HybridLayout layout =
          spec.kind == DecompositionKind::kHybridOneTile
              ? HybridLayout::one_tile(grouped.tiles(), spec.sm_count)
              : HybridLayout::two_tile(grouped.tiles(), spec.sm_count);
      const std::int64_t sk_base = layout.sk_first ? 0 : layout.dp_tiles;
      const std::int64_t dp_base = layout.sk_first ? layout.sk_tiles : 0;

      auto append_sk = [&] {
        if (layout.sk_tiles == 0) return;
        const std::int64_t sk_iter_base = grouped.tile_iter_begin(sk_base);
        const std::int64_t sk_iters =
            iter_end_of_tiles(grouped, sk_base + layout.sk_tiles) -
            sk_iter_base;
        IterRange range = partition_iters(sk_iters, layout.sm_count, cta,
                                          IterPartition::kBalancedWithinOne);
        range.begin += sk_iter_base;
        range.end += sk_iter_base;
        grouped.append_segments(range, work.segments);
      };

      auto append_dp = [&] {
        for (std::int64_t wave = 0; wave < layout.full_waves; ++wave) {
          work.segments.push_back(full_tile(
              grouped, dp_base + wave * layout.sm_count + cta));
        }
      };

      if (layout.sk_first) {
        append_sk();
        append_dp();
      } else {
        append_dp();
        append_sk();
      }
      return work;
    }
  }
  util::fail("unknown decomposition kind");
}

std::string grouped_plan_name(const GroupedMapping& grouped,
                              const DecompositionSpec& spec) {
  std::string name =
      "grouped[" + std::to_string(grouped.problems()) + "]:";
  switch (spec.kind) {
    case DecompositionKind::kDataParallel:
      return name + "data-parallel";
    case DecompositionKind::kFixedSplit:
      return name + "fixed-split(s=" + std::to_string(spec.split) + ")";
    case DecompositionKind::kStreamKBasic:
      return name + "stream-k(g=" +
             std::to_string(grouped_grid_size(grouped, spec)) + ")";
    case DecompositionKind::kHybridOneTile:
      return name + "hybrid-dp+1sk(p=" + std::to_string(spec.sm_count) + ")";
    case DecompositionKind::kHybridTwoTile:
      return name + "hybrid-2sk+dp(p=" + std::to_string(spec.sm_count) + ")";
  }
  util::fail("unknown decomposition kind");
}

}  // namespace streamk::core
