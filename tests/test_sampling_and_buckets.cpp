// Tests for the heavy-key sampling scheme and the bucket-id assignment
// table (Alg 2, steps 1 and GetBucketId).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/core/bucket_table.hpp"
#include "dovetail/core/sampling.hpp"
#include "dovetail/parallel/random.hpp"

using dovetail::bucket_table;
using dovetail::sample_keys;
namespace par = dovetail::par;

namespace {
constexpr auto ident = [](const std::uint64_t& k) { return k; };
}

TEST(Sampling, EmptyInput) {
  std::vector<std::uint64_t> v;
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 100,
                       8, true, 1);
  EXPECT_TRUE(r.heavy_keys.empty());
  EXPECT_EQ(r.num_samples, 0u);
}

TEST(Sampling, DetectsDominantKey) {
  // 60% of records share one key: must be detected for any sane seed.
  const std::size_t n = 100000;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = (i % 10 < 6) ? 777u : par::rand_at(3, i);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 999ull}) {
    auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull,
                         4096, 12, true, seed);
    EXPECT_TRUE(std::find(r.heavy_keys.begin(), r.heavy_keys.end(), 777u) !=
                r.heavy_keys.end())
        << "seed " << seed;
  }
}

TEST(Sampling, DetectsSeveralHeavyKeys) {
  const std::size_t n = 200000;
  std::vector<std::uint64_t> v(n);
  // Keys 10, 20, 30 at ~20% each, rest unique-ish.
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: v[i] = 10; break;
      case 1: v[i] = 20; break;
      case 2: v[i] = 30; break;
      default: v[i] = par::rand_at(5, i) | (1ull << 40);
    }
  }
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 8192,
                       13, true, 7);
  for (std::uint64_t k : {10ull, 20ull, 30ull})
    EXPECT_TRUE(std::find(r.heavy_keys.begin(), r.heavy_keys.end(), k) !=
                r.heavy_keys.end())
        << k;
}

TEST(Sampling, HeavyKeysAreSortedAndUnique) {
  const std::size_t n = 50000;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % 7;
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 4096,
                       8, true, 11);
  EXPECT_TRUE(std::is_sorted(r.heavy_keys.begin(), r.heavy_keys.end()));
  EXPECT_TRUE(std::adjacent_find(r.heavy_keys.begin(), r.heavy_keys.end()) ==
              r.heavy_keys.end());
  EXPECT_FALSE(r.heavy_keys.empty());  // 7 distinct keys: all heavy
}

TEST(Sampling, HeavyKeysExistInInput) {
  const std::size_t n = 30000;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = par::rand_range(17, i, 50);  // 50 distinct keys
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 2048,
                       8, true, 19);
  for (auto k : r.heavy_keys)
    EXPECT_TRUE(std::find(v.begin(), v.end(), k) != v.end()) << k;
}

TEST(Sampling, MaskIsApplied) {
  std::vector<std::uint64_t> v(1000, 0xFF00FF00FF00FF00ull);
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, 0xFFFFull,
                       256, 4, true, 23);
  EXPECT_EQ(r.max_sample, 0xFF00ull);
}

TEST(Sampling, UniformInputYieldsFewHeavyKeys) {
  const std::size_t n = 100000;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = par::rand_at(29, i);
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 4096,
                       12, true, 31);
  EXPECT_LT(r.heavy_keys.size(), 4u);  // all-distinct keys: none heavy whp
}

TEST(Sampling, DisabledDetectionStillReportsRange) {
  std::vector<std::uint64_t> v(10000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 1000;
  auto r = sample_keys(std::span<const std::uint64_t>(v), ident, ~0ull, 2048,
                       8, false, 37);
  EXPECT_TRUE(r.heavy_keys.empty());
  EXPECT_GT(r.max_sample, 900u);  // near the true max of 999
  EXPECT_LE(r.max_sample, 999u);
}

TEST(Sampling, SubsampleStrideIsClampedLog2N) {
  // The paper's "every (log n)-th sample", clamped to [4, 24].
  EXPECT_EQ(dovetail::subsample_stride(0), 4u);
  EXPECT_EQ(dovetail::subsample_stride(2), 4u);
  EXPECT_EQ(dovetail::subsample_stride(std::size_t{1} << 10), 10u);
  EXPECT_EQ(dovetail::subsample_stride((std::size_t{1} << 10) + 1), 11u);
  EXPECT_EQ(dovetail::subsample_stride(std::size_t{1} << 40), 24u);
}

// ---------------------------------------------------------------------------

TEST(BucketTable, NoHeavyKeys) {
  bucket_table bt({}, 4, 16);
  EXPECT_EQ(bt.num_buckets(), 17u);  // 16 light + overflow
  EXPECT_EQ(bt.overflow_id(), 16u);
  for (std::size_t z = 0; z < 16; ++z) {
    EXPECT_EQ(bt.light_id(z), z);
    EXPECT_EQ(bt.lookup(z << 4 | 3), z);
  }
}

TEST(BucketTable, HeavyBucketsFollowTheirZoneLight) {
  // zones of 4 bits; heavy keys 0x12, 0x15 (zone 1) and 0x30 (zone 3).
  std::vector<std::uint64_t> heavy = {0x12, 0x15, 0x30};
  bucket_table bt(heavy, 4, 16);
  EXPECT_EQ(bt.num_heavy(), 3u);
  EXPECT_EQ(bt.num_buckets(), 16u + 3u + 1u);
  EXPECT_EQ(bt.light_id(0), 0u);
  EXPECT_EQ(bt.light_id(1), 1u);
  EXPECT_EQ(bt.lookup(0x12), 2u);  // right after zone-1 light
  EXPECT_EQ(bt.lookup(0x15), 3u);  // key order within zone
  EXPECT_EQ(bt.light_id(2), 4u);
  EXPECT_EQ(bt.light_id(3), 5u);
  EXPECT_EQ(bt.lookup(0x30), 6u);
  EXPECT_EQ(bt.light_id(4), 7u);
  // Non-heavy key in a zone with heavy keys maps to the light bucket.
  EXPECT_EQ(bt.lookup(0x13), 1u);
  EXPECT_EQ(bt.overflow_id(), 19u);  // 16 light + 3 heavy
}

TEST(BucketTable, ZoneOrderInvariant) {
  // Bucket ids are NOT monotone in raw key order — within a zone, the light
  // bucket always precedes the heavy buckets (the final key-order
  // interleaving is DTMerge's job). The invariants are:
  //   (a) ids ascend strictly with the zone,
  //   (b) within a zone, light id < every heavy id,
  //   (c) heavy ids within a zone ascend with the heavy key.
  std::vector<std::uint64_t> heavy = {5, 100, 101, 250};
  bucket_table bt(heavy, 4, 16);
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::uint64_t z = k >> 4;
    const std::uint32_t id = bt.lookup(k);
    // (a): every id of zone z lies before zone z+1's light id.
    if (z + 1 < 16) {
      EXPECT_LT(id, bt.light_id(z + 1)) << k;
    }
    // (b): any key's id is at least its zone's light id.
    EXPECT_GE(id, bt.light_id(z)) << k;
  }
  // (b) strict for heavy keys; (c) ascending within zone 6 (100, 101).
  EXPECT_GT(bt.lookup(5), bt.light_id(0));
  EXPECT_GT(bt.lookup(100), bt.light_id(6));
  EXPECT_EQ(bt.lookup(101), bt.lookup(100) + 1);
}

TEST(BucketTable, ManyHeavyKeysHashTableProbing) {
  // Enough heavy keys to force probing collisions.
  std::vector<std::uint64_t> heavy;
  for (std::uint64_t k = 0; k < 512; k += 2) heavy.push_back(k);
  bucket_table bt(heavy, 5, 16);  // zones of 32 keys
  for (std::uint64_t k = 0; k < 512; ++k) {
    if (k % 2 == 0) {
      // heavy: not the light bucket
      EXPECT_NE(bt.lookup(k), bt.light_id(k >> 5)) << k;
    } else {
      EXPECT_EQ(bt.lookup(k), bt.light_id(k >> 5)) << k;
    }
  }
}

TEST(BucketTable, ShiftZeroSingleZone) {
  bucket_table bt({}, 0, 1);
  EXPECT_EQ(bt.num_buckets(), 2u);
  EXPECT_EQ(bt.lookup(0), 0u);
}
