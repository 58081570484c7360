#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

inline double median(const std::vector<double>& v) {
  return streamk::util::Summary::of(v).median;
}

/// The highest percentile that has at least `beyond` samples above it:
/// the value at sorted index n - 1 - beyond, and that index's percentile.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > beyond ? v.size() - 1 - beyond : 0;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

}  // namespace perfbench
