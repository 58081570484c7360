// Unit tests for the persistent worker-pool runtime: region semantics
// (coverage, ordering, thread cap, exception propagation, nesting),
// TaskHandle futures (values, exceptions, work stealing), and pool
// lifecycle (shutdown draining, restart, degraded inline execution).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/worker_pool.hpp"
#include "util/check.hpp"
#include "util/threading.hpp"

namespace streamk {
namespace {

// ------------------------------------------------------------ regions

TEST(WorkerPoolRegion, CoversEveryIndexExactlyOnce) {
  runtime::WorkerPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_region(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8,
      runtime::RegionOrder::kAscending);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolRegion, SingleWorkerRunsInlineInOrder) {
  runtime::WorkerPool pool(4);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_region(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
      },
      1, runtime::RegionOrder::kDescending);
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(WorkerPoolRegion, CapsHelpersAtCountMinusOne) {
  // A 3-index region asked to use 16 workers must enqueue at most 2 helper
  // tasks (the old spawning backend spawned 15 threads here).  shutdown()
  // drains the queue, so tasks_executed() is exact afterwards.
  runtime::WorkerPool pool(8);
  pool.run_region(
      3, [](std::size_t) {}, 16, runtime::RegionOrder::kAscending);
  pool.shutdown();
  EXPECT_LE(pool.tasks_executed(), 2u);
}

TEST(WorkerPoolRegion, PropagatesFirstExceptionAfterDraining) {
  runtime::WorkerPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.run_region(
          100,
          [&](std::size_t i) {
            executed.fetch_add(1);
            if (i == 50) throw std::runtime_error("boom");
          },
          4, runtime::RegionOrder::kAscending),
      std::runtime_error);
  // Remaining tickets are still drained so dependent work is not stranded.
  EXPECT_EQ(executed.load(), 100);
}

TEST(WorkerPoolRegion, NestedRegionsOnOnePoolComplete) {
  // A region body opening another region on the same (tiny) pool must not
  // deadlock: every region's caller participates in its own draining.
  runtime::WorkerPool pool(1);
  std::atomic<int> cells{0};
  pool.run_region(
      4,
      [&](std::size_t) {
        pool.run_region(
            4, [&](std::size_t) { cells.fetch_add(1); }, 4,
            runtime::RegionOrder::kDescending);
      },
      4, runtime::RegionOrder::kDescending);
  EXPECT_EQ(cells.load(), 16);
}

TEST(WorkerPoolRegion, SaturatedPoolStillMakesProgress) {
  // Occupy the only worker indefinitely; the region must finish on the
  // calling thread alone.
  runtime::WorkerPool pool(1);
  std::promise<void> release;
  pool.submit([&] { release.get_future().wait(); });
  std::atomic<int> sum{0};
  pool.run_region(
      8, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); }, 4,
      runtime::RegionOrder::kAscending);
  EXPECT_EQ(sum.load(), 28);
  release.set_value();
  pool.shutdown();
}

// ------------------------------------------------------------ futures

TEST(WorkerPoolAsync, DeliversValue) {
  runtime::WorkerPool pool(2);
  auto handle = pool.async([] { return 41 + 1; });
  EXPECT_EQ(handle.get(), 42);
}

TEST(WorkerPoolAsync, RethrowsExceptionAtHandle) {
  runtime::WorkerPool pool(2);
  auto handle = pool.async([]() -> int { throw std::runtime_error("nope"); });
  EXPECT_THROW(handle.get(), std::runtime_error);
}

TEST(WorkerPoolAsync, InvalidHandleThrowsInsteadOfCrashing) {
  runtime::TaskHandle<int> never_assigned;
  EXPECT_FALSE(never_assigned.valid());
  EXPECT_THROW(never_assigned.get(), std::logic_error);

  runtime::WorkerPool pool(1);
  auto handle = pool.async([] { return 1; });
  EXPECT_EQ(handle.get(), 1);
  EXPECT_FALSE(handle.valid());          // get() consumed it
  EXPECT_THROW(handle.get(), std::logic_error);
  EXPECT_THROW(handle.wait(), std::logic_error);
}

TEST(WorkerPoolAsync, GetStealsUnclaimedJob) {
  // With the only worker blocked, get() must claim and run the job inline
  // instead of deadlocking on the queue.
  runtime::WorkerPool pool(1);
  std::promise<void> release;
  pool.submit([&] { release.get_future().wait(); });
  auto handle = pool.async([] { return std::this_thread::get_id(); });
  EXPECT_EQ(handle.get(), std::this_thread::get_id());
  release.set_value();
  pool.shutdown();
}

TEST(WorkerPoolAsync, PoolWorkerRunsJobWhenIdle) {
  runtime::WorkerPool pool(2);
  const std::thread::id self = std::this_thread::get_id();
  auto handle = pool.async([] { return std::this_thread::get_id(); });
  // Give a worker the chance to claim it; get() still succeeds either way.
  const std::thread::id ran_on = handle.get();
  if (ran_on != self) SUCCEED() << "claimed by a pool worker";
}

// ------------------------------------------------------------ lifecycle

TEST(WorkerPoolLifecycle, ShutdownDrainsQueueThenJoins) {
  runtime::WorkerPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(pool.thread_count(), 0u);
}

TEST(WorkerPoolLifecycle, StoppedPoolDegradesToInline) {
  runtime::WorkerPool pool(1);
  pool.shutdown();
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);  // ran synchronously on this thread
  auto handle = pool.async([] { return 7; });
  EXPECT_EQ(handle.get(), 7);
  std::atomic<int> sum{0};
  pool.run_region(
      4, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i) + 1); }, 4,
      runtime::RegionOrder::kDescending);
  EXPECT_EQ(sum.load(), 10);
}

TEST(WorkerPoolLifecycle, RestartAfterShutdownServesWork) {
  runtime::WorkerPool pool(2);
  pool.shutdown();
  EXPECT_EQ(pool.thread_count(), 0u);
  pool.restart(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  auto handle = pool.async([] { return 11; });
  EXPECT_EQ(handle.get(), 11);
  std::atomic<int> hits{0};
  pool.run_region(
      16, [&](std::size_t) { hits.fetch_add(1); }, 4,
      runtime::RegionOrder::kAscending);
  EXPECT_EQ(hits.load(), 16);
}

TEST(WorkerPoolLifecycle, ShutdownIsIdempotent) {
  runtime::WorkerPool pool(2);
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(pool.thread_count(), 0u);
}

// ------------------------------------------------------------ util port

TEST(ParallelForPort, DispatchesOntoGlobalPoolAndCoversAllIndices) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForPort, DescendingSingleWorkerOrderPreserved) {
  std::vector<std::size_t> order;
  util::parallel_for_descending(
      6, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
}

TEST(ParallelForPort, RejectsZeroWorkers) {
  EXPECT_THROW(util::parallel_for(4, [](std::size_t) {}, 0),
               util::CheckError);
}

}  // namespace
}  // namespace streamk
