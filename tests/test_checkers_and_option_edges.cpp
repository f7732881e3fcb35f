// Tests for the public verification helpers, plus remaining sort_options
// edge values (minimal base case, degenerate gamma vs key width, custom
// sample strides).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/checkers.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

TEST(Checkers, DetectsSortedAndUnsorted) {
  std::vector<std::uint32_t> v = {1, 2, 2, 3, 10};
  auto id = [](const std::uint32_t& k) { return k; };
  EXPECT_TRUE(is_sorted_by_key(std::span<const std::uint32_t>(v), id));
  v[3] = 0;
  EXPECT_FALSE(is_sorted_by_key(std::span<const std::uint32_t>(v), id));
}

TEST(Checkers, EmptyAndSingletonAreSorted) {
  std::vector<std::uint32_t> v;
  auto id = [](const std::uint32_t& k) { return k; };
  EXPECT_TRUE(is_sorted_by_key(std::span<const std::uint32_t>(v), id));
  v = {42};
  EXPECT_TRUE(is_sorted_by_key(std::span<const std::uint32_t>(v), id));
}

TEST(Checkers, FingerprintIsOrderIndependent) {
  auto a = gen::generate_keys<std::uint64_t>(
      {gen::dist_kind::zipfian, 1.1, "z"}, 50000, 5);
  auto b = a;
  std::reverse(b.begin(), b.end());
  auto id = [](const std::uint64_t& k) { return k; };
  EXPECT_EQ(key_multiset_fingerprint(std::span<const std::uint64_t>(a), id),
            key_multiset_fingerprint(std::span<const std::uint64_t>(b), id));
  b[17] ^= 1;  // change one key
  EXPECT_NE(key_multiset_fingerprint(std::span<const std::uint64_t>(a), id),
            key_multiset_fingerprint(std::span<const std::uint64_t>(b), id));
}

TEST(Checkers, SortedPermutationEndToEnd) {
  auto before = gen::generate_records<kv32>(
      {gen::dist_kind::exponential, 5, "e"}, 80000, 6);
  auto after = before;
  dovetail_sort(std::span<kv32>(after), key_of_kv32);
  EXPECT_TRUE(is_sorted_permutation_of(std::span<const kv32>(before),
                                       std::span<const kv32>(after),
                                       key_of_kv32));
  // Breaking the permutation (dropping a record) must be caught.
  auto truncated = after;
  truncated.pop_back();
  EXPECT_FALSE(is_sorted_permutation_of(std::span<const kv32>(before),
                                        std::span<const kv32>(truncated),
                                        key_of_kv32));
}

// ---------------------------------------------------------------------------

TEST(OptionEdges, MinimalBaseCase) {
  sort_options o;
  o.base_case = 2;  // recurse as deep as the digits allow
  o.gamma = 4;
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                       30000, 7);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
}

TEST(OptionEdges, GammaLargerThanKeyWidth) {
  sort_options o;
  o.gamma = 12;  // > 8 significant bits below
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(par::hash64(i) & 0xFF),
            static_cast<std::uint32_t>(i)};
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
}

TEST(OptionEdges, StatsWithAblateSkipMergeStillCounts) {
  // The merge-skip ablation must not corrupt the other counters.
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                       100000, 9);
  sort_stats st;
  sort_options o;
  o.ablate_skip_merge = true;
  o.stats = &st;
  dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
  EXPECT_GT(st.distributed_records.load(), 0u);
  EXPECT_EQ(st.merged_records.load(), 0u);  // merge skipped
  EXPECT_GT(st.heavy_records.load(), 0u);   // detection still ran
}

TEST(OptionEdges, AllZeroKeys) {
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {0, static_cast<std::uint32_t>(i)};
  dovetail_sort(std::span<kv32>(v), key_of_kv32);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, 0u);
    ASSERT_EQ(v[i].value, i);  // stability on the degenerate range
  }
}
