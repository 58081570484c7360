#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ops.hpp"

namespace perfbench {

/// One workload: the ops of a round (each op once, in a fixed order) and
/// the operands they share.  Not movable: ops borrow `weights`.
struct Workload {
  std::string name;
  SharedWeights weights;
  OpList ops;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
};

/// Builds `name`'s inputs from `seed` (same seed, same inputs).  Throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
