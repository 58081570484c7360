#include "core/tile_order.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace streamk::core {

std::string_view order_name(TileOrder order) {
  switch (order) {
    case TileOrder::kRowMajor:
      return "row-major";
    case TileOrder::kMortonZ:
      return "morton-z";
  }
  util::fail("unknown tile order");
}

namespace {

/// Extracts the even bit positions of x into the low 16 bits (inverse of
/// Morton bit interleaving).
std::uint32_t compact_bits(std::uint32_t x) {
  x &= 0x55555555u;
  x = (x | (x >> 1)) & 0x33333333u;
  x = (x | (x >> 2)) & 0x0f0f0f0fu;
  x = (x | (x >> 4)) & 0x00ff00ffu;
  x = (x | (x >> 8)) & 0x0000ffffu;
  return x;
}

}  // namespace

TileOrdering::TileOrdering(TileOrder order, std::int64_t tiles_m,
                           std::int64_t tiles_n)
    : order_(order), tiles_m_(tiles_m), tiles_n_(tiles_n) {
  util::check(tiles_m >= 1 && tiles_n >= 1, "empty tile grid");
  if (order_ != TileOrder::kMortonZ) return;

  const std::int64_t tiles = tiles_m * tiles_n;
  util::check(tiles <= (1ll << 31), "tile grid too large for Morton order");
  auto forward = std::make_shared<std::vector<std::int32_t>>();
  auto inverse = std::make_shared<std::vector<std::int32_t>>(
      static_cast<std::size_t>(tiles), -1);
  forward->reserve(static_cast<std::size_t>(tiles));

  const auto side = std::bit_ceil(
      static_cast<std::uint64_t>(std::max(tiles_m, tiles_n)));
  const std::uint64_t codes = side * side;
  for (std::uint64_t code = 0; code < codes; ++code) {
    // Even bits -> column (n), odd bits -> row (m): consecutive codes sweep
    // 2x2 tile quads first, matching the classic Z-curve.
    const auto tn = static_cast<std::int64_t>(
        compact_bits(static_cast<std::uint32_t>(code)));
    const auto tm = static_cast<std::int64_t>(
        compact_bits(static_cast<std::uint32_t>(code >> 1)));
    if (tm >= tiles_m || tn >= tiles_n) continue;
    const std::int64_t row_major = tm * tiles_n + tn;
    (*inverse)[static_cast<std::size_t>(row_major)] =
        static_cast<std::int32_t>(forward->size());
    forward->push_back(static_cast<std::int32_t>(row_major));
  }
  util::check(static_cast<std::int64_t>(forward->size()) == tiles,
              "Morton enumeration incomplete");
  forward_ = std::move(forward);
  inverse_ = std::move(inverse);
}

std::pair<std::int64_t, std::int64_t> TileOrdering::coord(
    std::int64_t linear) const {
  util::check(linear >= 0 && linear < tiles_m_ * tiles_n_,
              "tile id out of range");
  std::int64_t row_major = linear;
  if (order_ == TileOrder::kMortonZ) {
    row_major = (*forward_)[static_cast<std::size_t>(linear)];
  }
  return {row_major / tiles_n_, row_major % tiles_n_};
}

std::int64_t TileOrdering::linear(std::int64_t tm, std::int64_t tn) const {
  util::check(tm >= 0 && tm < tiles_m_ && tn >= 0 && tn < tiles_n_,
              "tile coordinates out of range");
  const std::int64_t row_major = tm * tiles_n_ + tn;
  if (order_ == TileOrder::kMortonZ) {
    return (*inverse_)[static_cast<std::size_t>(row_major)];
  }
  return row_major;
}

std::int64_t panel_touch_cost(const TileOrdering& ordering,
                              std::int64_t tiles_m, std::int64_t tiles_n,
                              std::int64_t window) {
  util::check(window >= 1, "window must be >= 1");
  const std::int64_t tiles = tiles_m * tiles_n;
  std::vector<char> row_seen(static_cast<std::size_t>(tiles_m), 0);
  std::vector<char> col_seen(static_cast<std::size_t>(tiles_n), 0);

  std::int64_t cost = 0;
  for (std::int64_t begin = 0; begin < tiles; begin += window) {
    std::fill(row_seen.begin(), row_seen.end(), 0);
    std::fill(col_seen.begin(), col_seen.end(), 0);
    const std::int64_t end = std::min(tiles, begin + window);
    for (std::int64_t i = begin; i < end; ++i) {
      const auto [tm, tn] = ordering.coord(i);
      if (!row_seen[static_cast<std::size_t>(tm)]) {
        row_seen[static_cast<std::size_t>(tm)] = 1;
        ++cost;
      }
      if (!col_seen[static_cast<std::size_t>(tn)]) {
        col_seen[static_cast<std::size_t>(tn)] = 1;
        ++cost;
      }
    }
  }
  return cost;
}

}  // namespace streamk::core
