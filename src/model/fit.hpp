#pragma once

// Empirical fitting of the Appendix A.1 workload constants.
//
// "Parameters to the model are trivially chosen with empirical measurements
// and need only be done once per target architecture."  (Section 5.1)
//
// Given measured (grid size, per-CTA runtime) samples of basic Stream-K
// executions on one problem shape, the CTA time model is linear in
// {a, b, c, d} with regressors
//
//     x(g) = [ 1,  FixupPeers(g) > 1,  ItersPerCta(g),  FixupPeers(g) - 1 ]
//
// so ordinary least squares via the normal equations recovers the
// constants.  Regressor columns with no variance across the sample set
// (e.g. every sample has peers == 1, leaving b and d unobservable) are
// dropped and their constants reported as zero rather than producing a
// singular solve.

#include <span>
#include <vector>

#include "core/work_mapping.hpp"
#include "model/cost_model.hpp"

namespace streamk::model {

struct FitSample {
  std::int64_t grid = 0;
  double seconds = 0.0;  ///< runtime of one CTA at this grid size
};

/// Solves A x = y for a dense square system with partial-pivoting Gaussian
/// elimination.  `a` is row-major n x n.  Throws on singular systems.
void solve_dense(std::vector<double>& a, std::vector<double>& y,
                 std::size_t n);

/// Least-squares fit of the cost constants from Stream-K timings of a single
/// problem shape at multiple grid sizes.  Requires at least as many samples
/// as observable parameters.  Negative fitted constants are clamped to zero
/// (they are physical costs).
CostParams fit_cost_params(const core::WorkMapping& mapping,
                           std::span<const FitSample> samples);

}  // namespace streamk::model
