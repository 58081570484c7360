#pragma once

// Tile-access orderings (paper Section 7, future work: "cache-aware,
// tile-access patterns such as Morton Order, an avenue for optimization").
//
// Decompositions and the fixup protocol operate on *linear* tile ids, so
// the traversal order of the output-tile grid is a free parameter: changing
// it cannot affect coverage or correctness (the validation invariants are
// order-independent), but it changes which A row-panels and B column-panels
// a wave of consecutive CTAs touches -- and therefore L2 locality.
//
//   * kRowMajor -- the default n-fastest ordering of Algorithm 3.
//   * kMortonZ  -- Z-order curve over the tile grid: consecutive ids stay
//     spatially clustered, so a window of w tiles touches O(sqrt(w)) row
//     panels + O(sqrt(w)) column panels instead of O(w) of one kind.
//
// Non-power-of-two grids are handled by enumerating the Z-curve of the
// enclosing power-of-two square and skipping out-of-range coordinates (a
// precomputed permutation, O(tiles) space, shared across copies).

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace streamk::core {

enum class TileOrder {
  kRowMajor,
  kMortonZ,
};

std::string_view order_name(TileOrder order);

/// Bijection between linear tile ids and grid coordinates under an order.
class TileOrdering {
 public:
  TileOrdering(TileOrder order, std::int64_t tiles_m, std::int64_t tiles_n);

  TileOrder order() const { return order_; }

  /// Grid coordinates (tm, tn) of linear tile id `linear`.
  std::pair<std::int64_t, std::int64_t> coord(std::int64_t linear) const;

  /// Inverse of coord().
  std::int64_t linear(std::int64_t tm, std::int64_t tn) const;

 private:
  TileOrder order_;
  std::int64_t tiles_m_;
  std::int64_t tiles_n_;
  /// Morton only: forward[linear] = row-major index, inverse[row-major] =
  /// linear.  Shared so copying a WorkMapping stays cheap.
  std::shared_ptr<const std::vector<std::int32_t>> forward_;
  std::shared_ptr<const std::vector<std::int32_t>> inverse_;
};

/// Locality figure of merit: partitions the linear tile sequence into
/// consecutive windows of `window` tiles (one wave of CTAs) and sums the
/// number of distinct A row-panels plus distinct B column-panels each
/// window touches.  Lower is better: it is proportional to the input
/// working set a wave asks of the L2.
std::int64_t panel_touch_cost(const TileOrdering& ordering,
                              std::int64_t tiles_m, std::int64_t tiles_n,
                              std::int64_t window);

}  // namespace streamk::core
