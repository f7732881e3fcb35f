// Tests for the work instrumentation, which empirically validate the
// paper's Sec 4 theorems at test scale:
//   Thm 4.4/4.5: distribution work ~ n * #levels on uniform inputs;
//   Thm 4.6:     exponential frequency inputs -> almost all records heavy;
//   Thm 4.7:     few distinct keys -> O(n) total distribution work.
// Plus the one rule every field obeys — a fetch_add counter or a CAS-max
// mark — checked through reset() and through foreign threads sharing one
// object.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

TEST(SortStats, CountersPopulatedOnLargeSort) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"},
                                       200000, 1);
  sort_stats st;
  sort_options opt;
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  EXPECT_GE(st.distributed_records.load(), v.size());  // at least one level
  EXPECT_GT(st.num_distributions.load(), 0u);
  EXPECT_GT(st.sampled_keys.load(), 0u);
  EXPECT_GE(st.max_depth.load(), 1u);
  // Conservation: every record ends in exactly one terminal state per the
  // level it leaves the recursion (base case, heavy bucket, overflow, or
  // a zero-bit/light leaf). Terminal counts cannot exceed what was routed.
  EXPECT_LE(st.heavy_records.load(), st.distributed_records.load());
}

TEST(SortStats, UniformWideRangeHasNoHeavyRecords) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"},
                                       300000, 2);
  sort_stats st;
  sort_options opt;
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  // All keys essentially distinct: nothing should be detected heavy.
  EXPECT_LT(st.heavy_records.load(), v.size() / 100);
}

TEST(SortStats, FewDistinctKeysLinearWork) {
  // Thm 4.7: with few distinct keys, nearly everything becomes heavy at
  // the root and total distribution work stays ~n (one level).
  const std::size_t n = 400000;
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 20, "u"}, n,
                                       3);
  sort_stats st;
  sort_options opt;
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  EXPECT_GT(st.heavy_records.load(), n * 9 / 10);
  EXPECT_LT(st.distributed_records.load(), n + n / 2);  // ~one level
  std::vector<kv32> sorted = v;
  for (std::size_t i = 1; i < sorted.size(); ++i)
    ASSERT_LE(sorted[i - 1].key, sorted[i].key);
}

TEST(SortStats, HeavyDetectionReducesWorkVsPlain) {
  // The measurable version of Fig 4(a): on a heavy-duplicate input, the
  // plain variant distributes strictly more record-levels.
  const std::size_t n = 500000;
  auto base = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                          n, 4);
  sort_stats with, without;
  {
    auto v = base;
    sort_options o;
    o.stats = &with;
    dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
  }
  {
    auto v = base;
    sort_options o;
    o.stats = &without;
    o.detect_heavy = false;
    dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
  }
  EXPECT_GT(with.heavy_records.load(), 0u);
  EXPECT_EQ(without.heavy_records.load(), 0u);
  EXPECT_LT(with.distributed_records.load(),
            without.distributed_records.load());
}

TEST(SortStats, DepthBoundedByBitsOverGamma) {
  const std::size_t n = 300000;
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"}, n,
                                       5);
  sort_stats st;
  sort_options opt;
  opt.gamma = 8;
  opt.base_case = 64;  // force deep recursion
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  // 32-bit keys, 8-bit digits: at most ceil(32/8) + 1 slack levels.
  EXPECT_LE(st.max_depth.load(), 5u);
  EXPECT_GE(st.max_depth.load(), 2u);
}

TEST(SortStats, OverflowRecordsCounted) {
  // Keys in [0, 100) plus a handful of huge outliers, too rare for the
  // sampler to see: they must be routed through the overflow bucket. (With
  // frequent outliers the sampled max would legitimately cover them — that
  // case is exercised by SmallKeyRangeUsesOverflowPath in the sort tests.)
  const std::size_t n = 200000;
  std::vector<kv32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t k = static_cast<std::uint32_t>(par::hash64(i) % 100);
    v[i] = {k, static_cast<std::uint32_t>(i)};
  }
  v[12345].key = 0xF0000001u;
  v[54321].key = 0xF0000002u;
  v[123456].key = 0xF0000003u;
  sort_stats st;
  sort_options opt;
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  EXPECT_GE(st.overflow_records.load(), 3u);
  EXPECT_LT(st.overflow_records.load(), n / 10);
  for (std::size_t i = 1; i < n; ++i) ASSERT_LE(v[i - 1].key, v[i].key);
}

TEST(SortStats, MergedRecordsOnlyWhenHeavyExists) {
  const std::size_t n = 300000;
  auto light = gen::generate_records<kv32>(
      {gen::dist_kind::uniform, 1e9, "u"}, n, 6);
  sort_stats st;
  sort_options opt;
  opt.stats = &st;
  dovetail_sort(std::span<kv32>(light), key_of_kv32, opt);
  const auto merged_light = st.merged_records.load();

  auto heavy = gen::generate_records<kv32>(
      {gen::dist_kind::zipfian, 1.5, "z"}, n, 7);
  st.reset();
  dovetail_sort(std::span<kv32>(heavy), key_of_kv32, opt);
  EXPECT_GT(st.merged_records.load(), merged_light);
}

TEST(SortStats, ResetClearsEverything) {
  // A string sort with a tiny base case bumps the engine, workspace and
  // wide-refine counters and raises every mark; reset() must bring every
  // byte back to a default-constructed object's.
  const auto keys = gen::generate_lcp_string_keys(
      {gen::dist_kind::zipfian, 1.2, "z"}, 20000, 8, 40);
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  opt.policy.wide_segment_base_case = 64;
  auto v = keys;
  dovetail::sort(std::span<std::string>(v), opt);
  EXPECT_GT(st.refine_rounds.load(), 0u);
  EXPECT_GT(st.wide_max_byte_offset.load(), 0u);
  EXPECT_GT(st.chosen_parallelism.load(), 0u);
  EXPECT_GT(st.peak_workspace(), 0u);
  st.distributed_records = 5;
  st.max_depth = 7;
  st.service_requests = 9;

  st.reset();
  const sort_stats fresh;
  EXPECT_EQ(std::memcmp(static_cast<const void*>(&st),
                        static_cast<const void*>(&fresh), sizeof(sort_stats)),
            0);
}

TEST(SortStats, ForeignThreadsShareOneObject) {
  // Four foreign threads each run a one-thread dovetail_sort into ONE
  // stats object: every counter is a fetch_add and every mark a CAS-max,
  // so the shared object equals the sum (max) of the same sorts run
  // serially into private objects.
  constexpr int kThreads = 4;
  std::vector<std::vector<kv32>> inputs;
  for (int t = 0; t < kThreads; ++t)
    inputs.push_back(gen::generate_records<kv32>(
        {gen::dist_kind::zipfian, 1.2, "z"}, 60000 + 10000 * t,
        static_cast<std::uint64_t>(20 + t)));
  const auto run = [&](int t, sort_stats& st) {
    auto v = inputs[static_cast<std::size_t>(t)];
    sort_options opt;
    opt.num_threads = 1;
    opt.stats = &st;
    dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  };
  const auto fields = [](const sort_stats& st) {
    return std::vector<std::uint64_t>{
        st.distributed_records.load(), st.heavy_records.load(),
        st.base_case_records.load(),   st.overflow_records.load(),
        st.merged_records.load(),      st.sampled_keys.load(),
        st.num_distributions.load(),   st.scatter_direct_calls.load(),
        st.scatter_buffered_calls.load()};
  };

  std::vector<std::uint64_t> sums(fields(sort_stats{}).size());
  std::uint64_t max_depth = 0;
  for (int t = 0; t < kThreads; ++t) {
    sort_stats st;
    run(t, st);
    const auto f = fields(st);
    for (std::size_t i = 0; i < f.size(); ++i) sums[i] += f[i];
    max_depth = std::max(max_depth, st.max_depth.load());
  }

  sort_stats shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { run(t, shared); });
  for (auto& th : threads) th.join();
  EXPECT_EQ(fields(shared), sums);
  EXPECT_EQ(shared.max_depth.load(), max_depth);
  EXPECT_GT(sums[0], 0u);
}
