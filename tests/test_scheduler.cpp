// Unit tests for the fork-join work-stealing scheduler.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace par = dovetail::par;

namespace {

// Restores the default pool size when a test that resized it ends.
struct worker_count_guard {
  ~worker_count_guard() {
    par::scheduler::set_num_workers(par::scheduler::default_num_workers());
  }
};

// Fibonacci with a fork at every level from n = 10 up.
std::uint64_t fib_forked(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  if (n < 10) return fib_forked(n - 1) + fib_forked(n - 2);
  std::uint64_t x = 0, y = 0;
  par::pardo([&] { x = fib_forked(n - 1); }, [&] { y = fib_forked(n - 2); });
  return x + y;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

TEST(Scheduler, StartsWithAtLeastOneWorker) {
  EXPECT_GE(par::num_workers(), 1);
}

TEST(Scheduler, PardoRunsBothBranches) {
  int a = 0, b = 0;
  par::pardo([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, NestedPardoComputesFibonacci) {
  // fib with explicit forking exercises deep nesting and stealing.
  EXPECT_EQ(fib_forked(28), 317811u);
}

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, ParallelForEmptyAndSingleton) {
  int count = 0;
  par::parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  par::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, ParallelForGranularityOne) {
  std::atomic<long> sum{0};
  par::parallel_for(
      0, 1000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); }, 1);
  EXPECT_EQ(sum.load(), 499500);
}

TEST(Scheduler, ExceptionFromRightBranchPropagates) {
  EXPECT_THROW(
      par::pardo([] {}, [] { throw std::runtime_error("right"); }),
      std::runtime_error);
}

TEST(Scheduler, ExceptionFromLeftBranchPropagates) {
  EXPECT_THROW(
      par::pardo([] { throw std::runtime_error("left"); }, [] {}),
      std::runtime_error);
}

TEST(Scheduler, ExceptionStillJoinsRightBranch) {
  std::atomic<bool> right_ran{false};
  try {
    par::pardo([] { throw std::runtime_error("left"); },
               [&] { right_ran = true; });
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(right_ran.load());
}

TEST(Scheduler, SetNumWorkersRestartsPool) {
  par::scheduler::set_num_workers(1);
  EXPECT_EQ(par::num_workers(), 1);
  std::atomic<long> sum{0};
  par::parallel_for(0, 10000,
                    [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 49995000);
  par::scheduler::set_num_workers(par::scheduler::default_num_workers());
  EXPECT_GE(par::num_workers(), 1);
  sum = 0;
  par::parallel_for(0, 10000,
                    [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 49995000);
}

// DOVETAIL_NUM_THREADS is parsed strictly. Only default_num_workers() is
// called, so no pool (and no thread) is started; the variable is restored
// afterwards, since the suite may run with it set.
TEST(Scheduler, NumThreadsEnvIsValidated) {
  const char* name = "DOVETAIL_NUM_THREADS";
  std::optional<std::string> saved;
  if (const char* v = std::getenv(name)) saved = v;
  const auto workers_for = [name](const char* value) {
    ::setenv(name, value, 1);
    return par::scheduler::default_num_workers();
  };
  EXPECT_EQ(workers_for("1"), 1);
  EXPECT_EQ(workers_for("4"), 4);
  EXPECT_EQ(workers_for("1024"), 1024);
  for (const char* bad :
       {"", "0", "-3", "+4", " 4", "4abc", "abc", "4.0", "1025", "100000",
        "99999999999999999999"}) {
    EXPECT_THROW(workers_for(bad), std::invalid_argument) << "'" << bad << "'";
  }
  try {
    workers_for("4abc");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DOVETAIL_NUM_THREADS=\"4abc\""),
              std::string::npos)
        << e.what();
  }
  ::unsetenv(name);
  EXPECT_GE(par::scheduler::default_num_workers(), 1);
  if (saved) ::setenv(name, saved->c_str(), 1);
}

TEST(Scheduler, ManyForksStressTest) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> leaves{0};
    par::parallel_for(
        0, 2000, [&](std::size_t) { leaves.fetch_add(1); }, 1);
    ASSERT_EQ(leaves.load(), 2000);
  }
}

// A pool worker or a thread inside a parallel region must not tear the pool
// down: the first would join itself, the second would free deques that
// still hold tasks. Both are refused before anything changes.
TEST(Scheduler, SetNumWorkersInsideARegionThrows) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  std::atomic<int> refused{0};
  const auto resize = [&refused] {
    try {
      par::scheduler::set_num_workers(2);
    } catch (const std::logic_error&) {
      refused.fetch_add(1);
    }
  };
  // Left waits for right, so right runs on a pool worker.
  std::atomic<bool> right_done{false};
  std::atomic<int> right_worker{-1};
  par::pardo(
      [&] {
        resize();
        while (!right_done.load()) std::this_thread::yield();
      },
      [&] {
        right_worker = par::scheduler::worker_id();
        resize();
        right_done = true;
      });
  EXPECT_EQ(refused.load(), 2);
  EXPECT_GE(right_worker.load(), 1);
  EXPECT_LT(right_worker.load(), 4);
  EXPECT_EQ(par::num_workers(), 4);
  EXPECT_EQ(fib_forked(20), 6765u);
}

// Threads from outside the pool each own a caller deque while they fork
// (or run serially when every caller deque is taken); none shares a deque.
TEST(Scheduler, ForeignCallersForkConcurrently) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  // array<int>, one element per thread: distinct memory locations.
  std::array<int, kThreads> wrong{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &wrong] {
      for (int r = 0; r < kRounds; ++r) {
        if (fib_forked(20) != 6765u) ++wrong[t];
        std::vector<std::uint8_t> hits(4000 + static_cast<std::size_t>(t));
        par::parallel_for(
            0, hits.size(), [&hits](std::size_t i) { ++hits[i]; }, 16);
        if (!std::all_of(hits.begin(), hits.end(),
                         [](std::uint8_t h) { return h == 1; }))
          ++wrong[t];
        if (par::scheduler::worker_id() != -1) ++wrong[t];  // slot released
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  EXPECT_EQ(par::scheduler::worker_id(), -1);
}

// Idle workers park instead of polling: a sequential phase after a parallel
// region costs the process (almost) no CPU.
TEST(Scheduler, IdleWorkersDoNotBurnCpu) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  std::atomic<long> sum{0};
  par::parallel_for(
      0, 4096, [&](std::size_t i) { sum += static_cast<long>(i); }, 1);
  ASSERT_EQ(sum.load(), 4096L * 4095 / 2);
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burned = process_cpu_seconds() - before;
  EXPECT_LT(burned, 5e-3) << "CPU seconds spent while idle";
}

// Lost-wakeup guard: many short regions, each started while the workers
// are parking or parked.
TEST(Scheduler, ShortRegionsBetweenSleepsAllComplete) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  for (int r = 0; r < 2000; ++r) {
    std::atomic<int> ran{0};
    par::parallel_for(0, 64, [&](std::size_t) { ran.fetch_add(1); }, 1);
    ASSERT_EQ(ran.load(), 64) << "region " << r;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// A chain of forks deeper than the deque ring, with no thief free to drain
// it: the forks past the ring's capacity run inline, and nothing is lost.
TEST(Scheduler, ForkNestingDeeperThanTheRingRunsInline) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(2);
  struct chain {
    static std::size_t go(std::size_t depth, std::atomic<std::size_t>& rights) {
      if (depth == 0) return 0;
      std::size_t below = 0;
      par::pardo([&] { below = go(depth - 1, rights); },
                 [&] { rights.fetch_add(1); });
      return below + 1;
    }
  };
  constexpr std::size_t kDepth = par::scheduler::deque_capacity + 64;
  std::atomic<std::size_t> rights{0};
  std::size_t levels = 0;
  // The one pool worker steals the blocker and holds it until the chain is
  // done, so the chain's forks pile up in the caller's deque.
  std::atomic<bool> blocker_running{false}, release{false};
  par::pardo(
      [&] {
        while (!blocker_running.load()) std::this_thread::yield();
        levels = chain::go(kDepth, rights);
        release = true;
      },
      [&] {
        blocker_running = true;
        while (!release.load()) std::this_thread::yield();
      });
  EXPECT_EQ(levels, kDepth);
  EXPECT_EQ(rights.load(), kDepth);
}
