// The pass planner (core/pass_plan.hpp) and the kernels that call it:
// the plan respects every limit and makes the fewest passes they allow;
// DTSort with planned digits wider than 8 bits and the front door's
// planned 11-bit LSD passes stay byte-identical to std::stable_sort; a
// one-level plan runs one level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/core/pass_plan.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/record.hpp"

namespace dt = dovetail;
namespace gen = dovetail::gen;
using dt::detail::digit_plan;
using dt::detail::digit_rule;
using dt::detail::pass_request;
using dt::detail::plan_digits;

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Bits an MSD kernel must resolve to bring n evenly spread records to θ.
int msd_need(std::size_t n, std::size_t theta, int bits) {
  int c = 0;
  while (n > (theta << c)) ++c;
  return std::min(bits, c);
}

// Whether a digit of d bits is within every limit of `rule` for `r`.
bool allowed(const digit_rule& rule, const pass_request& r, int d) {
  if (d > rule.widest && d > rule.base) return false;
  if (rule.sampled && d > dt::detail::sampling_digit_cap(r.n)) return false;
  if (d <= rule.base) return true;
  if (r.n * r.record_bytes < rule.wide_min_bytes) return false;
  const std::size_t buckets = std::size_t{1} << d;
  const auto g = dt::detail::distribution_blocks(r.n, buckets, r.workers);
  return g.nblocks * buckets * dt::detail::kRecordsPerMatrixCell <= r.n;
}

TEST(PlanDigits, TableRespectsLimitsAndMinimisesPasses) {
  struct kernel {
    digit_rule rule;
    bool lsd;  // no base case: every pass resolves key bits
  };
  const kernel kernels[] = {{dt::detail::kLsdDigits, true},
                            {dt::detail::kDtsortDigits, false},
                            {dt::detail::kInplaceDigits, false}};
  for (const auto& [rule, lsd] : kernels) {
    for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 16,
                          std::size_t{1'000'000}, std::size_t{10'000'000},
                          std::size_t{100'000'000}}) {
      for (int bits : {16, 30, 32, 64}) {
        for (std::size_t theta : {std::size_t{1} << 10, std::size_t{1} << 14,
                                  std::size_t{1} << 16}) {
          for (std::size_t rec : {std::size_t{8}, std::size_t{16}}) {
            for (int workers : {1, 4}) {
              const pass_request r{n, bits, lsd ? 0 : theta, rec, workers};
              const digit_plan p = plan_digits(rule, r);
              SCOPED_TRACE(testing::Message()
                           << "base " << rule.base << " n " << n << " bits "
                           << bits << " theta " << theta << " rec " << rec
                           << " workers " << workers << " -> digit "
                           << p.digit << " passes " << p.passes);
              const int need = lsd ? bits : msd_need(n, theta, bits);
              // The digit is within the kernel cap, Thm 4.5's cap (for
              // DTSort) and the counting-matrix limit.
              EXPECT_TRUE(allowed(rule, r, p.digit));
              EXPECT_LE(p.digit, rule.widest);
              if (rule.sampled) {
                EXPECT_LE(p.digit, dt::detail::sampling_digit_cap(n));
              }
              // The passes resolve the bits they must.
              EXPECT_EQ(p.passes, need == 0 ? 0 : ceil_div(need, p.digit));
              // No digit within the limits makes fewer passes.
              for (int d = 1; d <= 16 && need > 0; ++d) {
                if (allowed(rule, r, d)) {
                  EXPECT_GE(ceil_div(need, d), p.passes) << "digit " << d;
                }
              }
              // The narrowest such digit, never below the base width
              // unless a limit forces it (or the key is narrower).
              if (p.digit > rule.base && p.passes > 0) {
                EXPECT_GT(ceil_div(need, p.digit - 1), p.passes);
              }
              if (p.digit < rule.base) {
                EXPECT_TRUE(!allowed(rule, r, rule.base) ||
                            (!lsd && p.digit == bits));
              }
            }
          }
        }
      }
    }
  }
}

TEST(PlanDigits, PinnedPlans) {
  using dt::detail::kDtsortDigits;
  using dt::detail::kInplaceDigits;
  using dt::detail::kLsdDigits;
  const auto plan = [](const digit_rule& rule, pass_request r) {
    const digit_plan p = plan_digits(rule, r);
    return std::pair<int, int>(p.digit, p.passes);
  };
  using pp = std::pair<int, int>;
  // DTSort at n = 1e7, θ = 2^14: γ = 10 and one level.
  for (int w : {1, 4}) {
    EXPECT_EQ(plan(kDtsortDigits, {10'000'000, 64, 1 << 14, 16, w}), pp(10, 1));
    EXPECT_EQ(plan(kDtsortDigits, {10'000'000, 32, 1 << 14, 8, w}), pp(10, 1));
    // Small requests keep γ = 8.
    EXPECT_EQ(plan(kDtsortDigits, {1 << 16, 64, 1 << 14, 16, w}), pp(8, 1));
    EXPECT_EQ(plan(kDtsortDigits, {1'000'000, 64, 1 << 14, 16, w}), pp(8, 1));
  }
  // Front-door LSD on 32-bit keys: 3 passes of 11/11/10 bits from 2^20
  // kv32 records (8 MiB) on, 4 passes of 8 bits below.
  for (int w : {1, 4}) {
    EXPECT_EQ(plan(kLsdDigits, {10'000'000, 32, 0, 8, w}), pp(11, 3));
    EXPECT_EQ(plan(kLsdDigits, {1 << 20, 32, 0, 8, w}), pp(11, 3));
    EXPECT_EQ(plan(kLsdDigits, {(1 << 20) - 1, 32, 0, 8, w}), pp(8, 4));
    // Widths where wider digits save no pass stay at 8 bits.
    EXPECT_EQ(plan(kLsdDigits, {10'000'000, 16, 0, 8, w}), pp(8, 2));
    EXPECT_EQ(plan(kLsdDigits, {10'000'000, 24, 0, 8, w}), pp(8, 3));
  }
  // 64 workers make a 64 x 2^11 counting matrix too big for 2^20 records.
  EXPECT_EQ(plan(kLsdDigits, {1 << 20, 32, 0, 8, 64}), pp(8, 4));
  // The in-place kernel's digit is min(bits, 10) at every size.
  for (std::size_t n : {std::size_t{5000}, std::size_t{1} << 20,
                        std::size_t{100'000'000}}) {
    for (int bits : {1, 5, 10, 11, 30, 64}) {
      EXPECT_EQ(plan_digits(kInplaceDigits, {n, bits, 1 << 12, 4, 4}).digit,
                std::min(bits, 10))
          << n << " " << bits;
    }
  }
}

// DTSort's base case aims for leaves of about 8 records: ceil(log2(n/8))
// bits (at least 4) over the fewest levels of at most 11 bits, clamped to
// the range; never below 4 bits for a wider range, so each level leaves at
// most 60 bits to the rank leaves and keeps its histogram at or below one
// cell per record.
TEST(FinishDigit, TableAtTheBoundaries) {
  using dt::detail::finish_digit;
  using dt::detail::kFinishLeaf;
  struct row {
    std::size_t n;
    int range1, range11, range54;
  };
  const row rows[] = {{kFinishLeaf + 1, 1, 4, 4},
                      {std::size_t{1} << 9, 1, 6, 6},
                      {std::size_t{1} << 11, 1, 8, 8},
                      {9'766, 1, 11, 11},  // 1e7 records in 1,024 buckets
                      {std::size_t{1} << 14, 1, 11, 11},
                      {(std::size_t{1} << 14) + 1, 1, 6, 6},
                      {std::size_t{1} << 15, 1, 6, 6},
                      {std::size_t{1} << 16, 1, 7, 7},
                      {std::size_t{1} << 20, 1, 9, 9}};
  for (const row& r : rows) {
    EXPECT_EQ(finish_digit(r.n, 1), r.range1) << r.n;
    EXPECT_EQ(finish_digit(r.n, 11), r.range11) << r.n;
    EXPECT_EQ(finish_digit(r.n, 54), r.range54) << r.n;
  }
  EXPECT_EQ(finish_digit((std::size_t{1} << 11) - 1, 54), 8);
  EXPECT_EQ(finish_digit((std::size_t{1} << 11) + 1, 54), 9);
  // Leaf-sized segments whose keys span more than kFinishLeafKeyBits.
  EXPECT_EQ(finish_digit(2, 64), 4);
  EXPECT_EQ(finish_digit(kFinishLeaf, 61), 4);
  for (std::size_t n = 2; n <= (std::size_t{1} << 16); n = n * 3 / 2 + 1) {
    for (int range = 1; range <= 64; ++range) {
      const int d = finish_digit(n, range);
      EXPECT_GE(d, 1);
      EXPECT_LE(d, std::min(range, dt::detail::kFinishWidest));
      EXPECT_LE(range - d, dt::detail::kFinishLeafKeyBits);
      if (n > kFinishLeaf) {
        EXPECT_LE(std::size_t{1} << d, n);
      }
    }
    // Evenly spread full-width keys: every level splits its segment into
    // 2^d equal buckets until they are leaves, of at most 16 records on
    // average, and from 64 records on of at least 4 (not 1-2).
    double m = static_cast<double>(n);
    while (m > static_cast<double>(kFinishLeaf))
      m /= static_cast<double>(std::size_t{1}
                               << finish_digit(static_cast<std::size_t>(m), 64));
    EXPECT_LE(m, 16.0) << n;
    if (n >= 64) {
      EXPECT_GE(m, 4.0) << n;
    }
  }
}

// DTSort's planned γ for this call, computed under the same worker cap.
template <typename Rec>
digit_plan dtsort_plan(std::size_t n, std::size_t theta, int threads) {
  const dt::par::scoped_worker_limit cap(threads);
  return plan_digits(
      dt::detail::kDtsortDigits,
      {n, static_cast<int>(sizeof(Rec::key) * 8), theta, sizeof(Rec),
       dt::par::effective_workers()});
}

template <typename Rec>
void expect_dtsort_matches_stable_sort(const gen::distribution& dist) {
  const std::size_t n = std::size_t{1} << 18;
  const std::size_t theta = 512;
  const auto input = gen::generate_records<Rec>(dist, n, 11);
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  for (int threads : {1, 0}) {
    // Shrinking θ makes the planner pick γ > 8 at this small n.
    ASSERT_GT(dtsort_plan<Rec>(n, theta, threads).digit, 8);
    auto v = input;
    dt::sort_options o;
    o.base_case = theta;
    o.num_threads = threads;
    dt::dovetail_sort(std::span<Rec>(v), [](const Rec& r) { return r.key; },
                      o);
    EXPECT_EQ(std::memcmp(v.data(), ref.data(), n * sizeof(Rec)), 0)
        << dist.name << " num_threads " << threads;
  }
}

TEST(PlannedDtsort, WideDigitsMatchStableSort) {
  for (const gen::distribution& d :
       {gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"},
        gen::distribution{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
        gen::distribution{gen::dist_kind::exponential, 5, "Exp-5"},
        gen::distribution{gen::dist_kind::bexp, 10, "BExp-10"}}) {
    expect_dtsort_matches_stable_sort<dt::kv32>(d);
    expect_dtsort_matches_stable_sort<dt::kv64>(d);
  }
}

TEST(PlannedDtsort, OneLevelPlanRecordsDepthOne) {
  // Hashed-uniform 64-bit keys, θ = 768: the plan is γ = 9 and one level
  // (γ = 8 would leave 256 buckets of ~1024 records, above θ: two levels).
  const std::size_t n = std::size_t{1} << 18;
  const std::size_t theta = 768;
  const auto input = gen::generate_records<dt::kv64>(
      {gen::dist_kind::uniform, 1e9, "Unif-1e9"}, n, 3);
  for (int threads : {1, 0}) {
    const digit_plan p = dtsort_plan<dt::kv64>(n, theta, threads);
    ASSERT_EQ(p.passes, 1);
    ASSERT_EQ(p.digit, 9);
    auto v = input;
    dt::sort_stats st;
    dt::sort_options o;
    o.base_case = theta;
    o.num_threads = threads;
    o.stats = &st;
    dt::dovetail_sort(std::span<dt::kv64>(v), dt::key_of_kv64, o);
    EXPECT_EQ(st.max_depth.load(), 1u) << "num_threads " << threads;
    EXPECT_EQ(st.num_distributions.load(), 1u) << "num_threads " << threads;
  }
}

TEST(PlannedLsd, FrontDoorElevenBitPassesMatchStableSort) {
  // Hashed-uniform 32-bit keys route to LSD. From 2^20 kv32 records the
  // plan is three 11-bit passes; one record fewer keeps four 8-bit ones.
  // The plan reads the worker count, so the pool is pinned to 4 workers.
  struct restore_pool {
    ~restore_pool() {
      dt::par::scheduler::set_num_workers(
          dt::par::scheduler::default_num_workers());
    }
  } restore;
  dt::par::scheduler::set_num_workers(4);
  for (std::size_t n : {std::size_t{1} << 20, (std::size_t{1} << 20) - 1}) {
    const auto input = gen::generate_records<dt::kv32>(
        {gen::dist_kind::uniform, 1e9, "Unif-1e9"}, n, 5);
    auto ref = input;
    std::stable_sort(
        ref.begin(), ref.end(),
        [](const dt::kv32& a, const dt::kv32& b) { return a.key < b.key; });
    for (int threads : {1, 0}) {
      auto v = input;
      dt::sort_stats st;
      dt::auto_sort_options o;
      o.num_threads = threads;
      o.stats = &st;
      ASSERT_EQ(dt::sort(std::span<dt::kv32>(v), dt::key_of_kv32, o),
                dt::sort_kernel::lsd);
      EXPECT_EQ(std::memcmp(v.data(), ref.data(), n * sizeof(dt::kv32)), 0)
          << n << " records, num_threads " << threads;
      const std::uint64_t passes = st.scatter_direct_calls.load() +
                                   st.scatter_buffered_calls.load();
      EXPECT_EQ(passes, n == (std::size_t{1} << 20) ? 3u : 4u)
          << n << " records, num_threads " << threads;
    }
  }
}

}  // namespace
