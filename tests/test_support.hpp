#pragma once

// Shared fixtures and helpers for the Stream-K test suite.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/data_parallel.hpp"
#include "core/decomposition.hpp"
#include "core/fixed_split.hpp"
#include "core/hybrid.hpp"
#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/executor.hpp"
#include "cpu/matrix.hpp"

namespace streamk::testing {

/// A compact set of problem shapes exercising the interesting regimes:
/// exact multiples, ragged edges in every dimension, strong-scaling
/// (tiny m*n, large k), wide/short, and single-tile problems.
inline std::vector<core::GemmShape> interesting_shapes() {
  return {
      {64, 64, 64},    // one tile, exact
      {64, 64, 1},     // k smaller than BLK_K
      {65, 63, 33},    // ragged everywhere
      {128, 128, 512}, // strong scaling: few tiles, deep k
      {256, 64, 96},   // tall
      {64, 256, 96},   // wide
      {96, 96, 96},    // non-multiple square
      {192, 160, 224}, // several tiles, ragged k
      {32, 32, 384},   // single small tile, deep k
      {1, 1, 1},       // degenerate minimum
      {7, 201, 95},    // skinny rows
  };
}

/// Block shapes covering exact and non-dividing quantizations.
inline std::vector<gpu::BlockShape> interesting_blocks() {
  return {{32, 32, 16}, {16, 32, 8}, {48, 16, 24}, {64, 64, 32}};
}

/// All decomposition variants to sweep for a given mapping, with
/// descriptive labels.
struct NamedDecomposition {
  std::string label;
  std::unique_ptr<core::Decomposition> decomposition;
};

inline std::vector<NamedDecomposition> all_decompositions(
    const core::WorkMapping& mapping) {
  std::vector<NamedDecomposition> out;
  out.push_back({"dp", std::make_unique<core::DataParallel>(mapping)});
  for (const std::int64_t s : {2, 3, 5}) {
    out.push_back({"split" + std::to_string(s),
                   std::make_unique<core::FixedSplit>(mapping, s)});
  }
  for (const std::int64_t g : {1LL, 2LL, 3LL, 4LL, 7LL, 16LL}) {
    out.push_back({"sk" + std::to_string(g),
                   std::make_unique<core::StreamKBasic>(mapping, g)});
    out.push_back(
        {"sk-ceil" + std::to_string(g),
         std::make_unique<core::StreamKBasic>(
             mapping, g, core::IterPartition::kCeilUniform)});
  }
  for (const std::int64_t p : {2LL, 4LL, 6LL}) {
    out.push_back({"hy1-p" + std::to_string(p),
                   std::make_unique<core::Hybrid>(
                       mapping, core::DecompositionKind::kHybridOneTile, p)});
    out.push_back({"hy2-p" + std::to_string(p),
                   std::make_unique<core::Hybrid>(
                       mapping, core::DecompositionKind::kHybridTwoTile, p)});
  }
  return out;
}

/// Runs one plain problem C = A.B through cpu::execute_plan.
template <typename In, typename Acc, typename Out>
void execute_matrices(const core::SchedulePlan& plan,
                      const cpu::Matrix<In>& a, const cpu::Matrix<In>& b,
                      cpu::Matrix<Out>& c,
                      const cpu::ExecutorOptions& options = {}) {
  const cpu::GemmProblem<In, Out> problem{a, b, c};
  cpu::execute_plan<In, Acc, Out>(plan, {&problem, 1}, options);
}

/// Compiles `decomposition` once, then runs it as execute_matrices does.
template <typename In, typename Acc, typename Out>
void execute_matrices(const core::Decomposition& decomposition,
                      const cpu::Matrix<In>& a, const cpu::Matrix<In>& b,
                      cpu::Matrix<Out>& c,
                      const cpu::ExecutorOptions& options = {}) {
  execute_matrices<In, Acc, Out>(core::compile_plan(decomposition), a, b, c,
                                 options);
}

template <typename T>
double max_abs_diff(const cpu::Matrix<T>& a, const cpu::Matrix<T>& b) {
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(a.at(i, j)) -
                                static_cast<double>(b.at(i, j))));
    }
  }
  return worst;
}

template <typename T>
bool bitwise_equal(const cpu::Matrix<T>& a, const cpu::Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      if (std::memcmp(&a.at(i, j), &b.at(i, j), sizeof(T)) != 0) return false;
    }
  }
  return true;
}

}  // namespace streamk::testing
