#pragma once

// Small threading helpers used by the CPU executor and tests.
//
// We deliberately keep parallelism explicit (LLNL HPC-tutorial style): the
// caller states how many workers to use, work is handed out through an
// atomic counter, and exceptions from workers are captured and rethrown on
// the calling thread instead of terminating the process.
//
// Regions dispatch onto the process-wide persistent runtime::WorkerPool:
// the calling thread claims indices itself and up to `workers - 1` idle
// pool workers help, so no call ever spawns a thread.

#include <cstddef>
#include <functional>

namespace streamk::util {

/// Runs `body(index)` for every index in [0, count) across at most
/// `workers` threads (never more than `count` -- a 2-CTA schedule with 16
/// workers occupies 2 threads, not 16).  `workers == 1` executes inline (no
/// pool dispatch).  Indices are claimed dynamically in
/// *descending* order; see cpu/executor.hpp for why descending order
/// matters to the GEMM fixup protocol.  The first exception thrown by any
/// worker is rethrown after the parallel region quiesces.
void parallel_for_descending(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             std::size_t workers);

/// Ascending-order variant for order-insensitive work.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers);

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t hardware_threads();

/// Default worker count for GEMM-family calls and the worker pool:
/// hardware_threads(), overridden by the STREAMK_WORKERS environment
/// variable when it holds a value >= 1.  Unset, non-numeric, or < 1 values
/// leave the hardware default in place; values above hardware_threads()
/// are honored (deliberate oversubscription stays available for testing).
/// Read per call so tests can toggle the variable without process
/// restarts.
std::size_t default_workers();

}  // namespace streamk::util
