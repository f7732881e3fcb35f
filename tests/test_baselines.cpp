// Correctness tests for all baseline sorters (PLIS-like MSD radix, LSD
// radix, in-place unstable radix, samplesort stable/unstable).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/baselines/msd_radix_sort.hpp"
#include "dovetail/baselines/sample_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

namespace {

template <typename Rec, typename SortFn>
void check_stable_sorter(SortFn&& sort_fn, const gen::distribution& d,
                         std::size_t n, std::uint64_t seed) {
  auto v = gen::generate_records<Rec>(d, n, seed);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  sort_fn(std::span<Rec>(v), [](const Rec& r) { return r.key; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(v[i].key, ref[i].key) << i;
    ASSERT_EQ(v[i].value, ref[i].value) << "stability broken at " << i;
  }
}

template <typename Rec, typename SortFn>
void check_unstable_sorter(SortFn&& sort_fn, const gen::distribution& d,
                           std::size_t n, std::uint64_t seed) {
  auto v = gen::generate_records<Rec>(d, n, seed);
  auto key = [](const Rec& r) { return r.key; };
  const std::uint64_t fingerprint =
      dtt::multiset_hash(std::span<const Rec>(v), key);
  sort_fn(std::span<Rec>(v), key);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const Rec>(v), key));
  EXPECT_EQ(dtt::multiset_hash(std::span<const Rec>(v), key), fingerprint);
}

const gen::distribution kCases[] = {
    {gen::dist_kind::uniform, 1e9, "Unif-1e9"},
    {gen::dist_kind::uniform, 10, "Unif-10"},
    {gen::dist_kind::exponential, 7, "Exp-7"},
    {gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
    {gen::dist_kind::bexp, 100, "BExp-100"},
};

}  // namespace

TEST(MsdRadixSort, StableOnAllDistributions32) {
  for (const auto& d : kCases)
    check_stable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          baseline::msd_radix_sort(s, key);
        },
        d, 120000, 41);
}

TEST(MsdRadixSort, StableOnAllDistributions64) {
  for (const auto& d : kCases)
    check_stable_sorter<kv64>(
        [](std::span<kv64> s, auto key) {
          baseline::msd_radix_sort(s, key);
        },
        d, 120000, 42);
}

TEST(MsdRadixSort, SmallGammaDeepRecursion) {
  for (const auto& d : kCases)
    check_stable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          baseline::msd_radix_sort(s, key, {.gamma = 3, .base_case = 16});
        },
        d, 60000, 43);
}

TEST(MsdRadixSort, EdgeSizes) {
  for (std::size_t n : {0ul, 1ul, 2ul, 100ul}) {
    auto v = gen::generate_records<kv32>(kCases[0], n, 44);
    baseline::msd_radix_sort(std::span<kv32>(v),
                             [](const kv32& r) { return r.key; });
    EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
}

TEST(LsdRadixSort, StableOnAllDistributions32) {
  for (const auto& d : kCases)
    check_stable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          baseline::lsd_radix_sort(s, key);
        },
        d, 120000, 45);
}

TEST(LsdRadixSort, StableOnAllDistributions64) {
  for (const auto& d : kCases)
    check_stable_sorter<kv64>(
        [](std::span<kv64> s, auto key) {
          baseline::lsd_radix_sort(s, key);
        },
        d, 80000, 46);
}

TEST(LsdRadixSort, DigitWidthSweep) {
  for (int gamma : {1, 4, 7, 11, 16})
    check_stable_sorter<kv32>(
        [gamma](std::span<kv32> s, auto key) {
          baseline::lsd_radix_sort(s, key, {.gamma = gamma});
        },
        kCases[3], 50000, 47);
}

TEST(LsdRadixSort, OddNumberOfPassesCopiesBack) {
  // 3 passes of 8 bits over 24-bit keys ends in the temp buffer; result
  // must still land in the input array.
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(par::hash64(i) & 0xFFFFFF),
            static_cast<std::uint32_t>(i)};
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const kv32& a, const kv32& b) { return a.key < b.key; });
  baseline::lsd_radix_sort(std::span<kv32>(v), key_of_kv32, {.gamma = 8});
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
}

TEST(InplaceRadixSort, CorrectOnAllDistributions32) {
  for (const auto& d : kCases)
    check_unstable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          inplace_sort(s, key);
        },
        d, 120000, 48);
}

TEST(InplaceRadixSort, CorrectOnAllDistributions64) {
  for (const auto& d : kCases)
    check_unstable_sorter<kv64>(
        [](std::span<kv64> s, auto key) {
          inplace_sort(s, key);
        },
        d, 80000, 49);
}

TEST(InplaceRadixSort, UsesNoExtraBufferForRecords) {
  // Sanity: sorting a view leaves all records within the same storage
  // (by definition of the API); just verify the permutation property.
  check_unstable_sorter<kv32>(
      [](std::span<kv32> s, auto key) {
        inplace_sort(s, key, {.gamma = 4, .base_case = 32});
      },
      kCases[4], 60000, 50);
}

TEST(SampleSort, UnstableVariantCorrect) {
  for (const auto& d : kCases)
    check_unstable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          baseline::sample_sort_by_key(s, key, {.stable = false});
        },
        d, 150000, 51);
}

TEST(SampleSort, StableVariantIsStable) {
  for (const auto& d : kCases)
    check_stable_sorter<kv32>(
        [](std::span<kv32> s, auto key) {
          baseline::sample_sort_by_key(s, key, {.stable = true});
        },
        d, 150000, 52);
}

TEST(SampleSort, StableVariant64) {
  for (const auto& d : kCases)
    check_stable_sorter<kv64>(
        [](std::span<kv64> s, auto key) {
          baseline::sample_sort_by_key(s, key, {.stable = true});
        },
        d, 100000, 53);
}

TEST(SampleSort, EqualityBucketsAllEqualInput) {
  std::vector<kv32> v(100000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {99u, static_cast<std::uint32_t>(i)};
  baseline::sample_sort_by_key(std::span<kv32>(v), key_of_kv32,
                               {.stable = true});
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, 99u);
    ASSERT_EQ(v[i].value, i);  // equality bucket preserves order
  }
}

TEST(SampleSort, FewDistinctKeys) {
  check_stable_sorter<kv32>(
      [](std::span<kv32> s, auto key) {
        baseline::sample_sort_by_key(s, key, {.stable = true});
      },
      {gen::dist_kind::uniform, 3, "Unif-3"}, 120000, 54);
}

TEST(SampleSort, BucketCountSweep) {
  for (std::size_t nb : {2ul, 8ul, 64ul, 300ul})
    check_stable_sorter<kv32>(
        [nb](std::span<kv32> s, auto key) {
          baseline::sample_sort_by_key(
              s, key, {.stable = true, .num_buckets = nb, .base_case = 512});
        },
        kCases[3], 80000, 55);
}

TEST(SampleSort, GenericComparatorNonIntegerOrder) {
  // Descending comparator: exercises the pure-comparison interface.
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(par::hash64(i) % 1000),
            static_cast<std::uint32_t>(i)};
  baseline::sample_sort(
      std::span<kv32>(v),
      [](const kv32& a, const kv32& b) { return a.key > b.key; },
      {.stable = true});
  for (std::size_t i = 1; i < v.size(); ++i) {
    ASSERT_GE(v[i - 1].key, v[i].key);
    if (v[i - 1].key == v[i].key) { ASSERT_LT(v[i - 1].value, v[i].value); }
  }
}
