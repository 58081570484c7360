#include "util/threading.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <thread>

#include "runtime/worker_pool.hpp"
#include "util/check.hpp"

namespace streamk::util {

namespace {

enum class Order { kAscending, kDescending };

void run_parallel(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers, Order order) {
  check(workers >= 1, "parallel_for needs at least one worker");
  if (count == 0) return;

  // Never occupy more threads than there are indices to claim.
  workers = std::min(workers, count);

  if (workers == 1) {
    if (order == Order::kAscending) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else {
      for (std::size_t i = count; i-- > 0;) body(i);
    }
    return;
  }

  runtime::global_pool().run_region(count, body, workers,
                                    order == Order::kAscending
                                        ? runtime::RegionOrder::kAscending
                                        : runtime::RegionOrder::kDescending);
}

}  // namespace

void parallel_for_descending(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             std::size_t workers) {
  run_parallel(count, body, workers, Order::kDescending);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers) {
  run_parallel(count, body, workers, Order::kAscending);
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_workers() {
  if (const char* env = std::getenv("STREAMK_WORKERS")) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &end, 10);
    // strtoll reports overflow by returning the clamped LLONG_MAX/MIN with
    // errno == ERANGE -- which would pass a bare `v >= 1` check and spawn
    // an absurd worker count.  Deliberate oversubscription stays supported,
    // but capped at 4x the hardware concurrency; anything past that (or
    // overflowed, or malformed) falls back to the default.
    const long long cap = 4 * static_cast<long long>(hardware_threads());
    if (end != env && *end == '\0' && errno != ERANGE && v >= 1 && v <= cap) {
      return static_cast<std::size_t>(v);
    }
  }
  return hardware_threads();
}

}  // namespace streamk::util
