// Unit tests for the fork-join work-stealing scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace par = dovetail::par;

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
  struct fib_t {
    static std::uint64_t go(int n) {
      if (n < 2) return static_cast<std::uint64_t>(n);
      std::uint64_t x = 0, y = 0;
      if (n < 16) return go(n - 1) + go(n - 2);
      par::pardo([&] { x = go(n - 1); }, [&] { y = go(n - 2); });
      return x + y;
    }
  };
  EXPECT_EQ(fib_t::go(28), 317811u);
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
