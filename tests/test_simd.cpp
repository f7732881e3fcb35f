// Tests for util/simd.hpp: the runtime ISA switch, the vectorized
// histograms, and the in-register sorting networks.
//
// The binding contract throughout is BYTE-IDENTITY with the scalar paths:
// histograms are exact integer sums and pure-key networks produce the
// unique sorted sequence — so every assertion here compares against a plain
// scalar reference, both with the vector units enabled and with
// force_scalar(true). Under -DDOVETAIL_DISABLE_SIMD (the CI scalar build)
// the network entry points simply return false and the same assertions
// cover the fallback behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "dovetail/util/simd.hpp"

namespace {

namespace simd = dovetail::simd;

// RAII so a failing assertion cannot leak force_scalar(true) into the
// next test.
struct scalar_guard {
  explicit scalar_guard(bool on) { simd::force_scalar(on); }
  ~scalar_guard() { simd::force_scalar(false); }
};

TEST(SimdLevel, ForceScalarFlipsTheSwitch) {
  EXPECT_STRNE(simd::isa_name(simd::level()), "");
  {
    scalar_guard g(true);
    EXPECT_EQ(simd::level(), simd::isa::scalar);
    EXPECT_STREQ(simd::isa_name(simd::level()), "scalar");
  }
#if !defined(DOVETAIL_DISABLE_SIMD)
  // On this repo's CI hardware the vector level is avx2; a scalar-only
  // machine legitimately reports scalar, so only pin the name mapping.
  EXPECT_STREQ(simd::isa_name(simd::isa::avx2), "avx2");
#endif
}

// --- pure-key networks -----------------------------------------------------

template <typename K>
void check_network(std::size_t n, std::uint64_t seed, K max_val) {
  std::mt19937_64 rng(seed);
  std::vector<K> v(n);
  for (K& x : v) x = static_cast<K>(rng());
  // Salt in boundary values: the padding lanes carry the max key value, so
  // real max-valued records must still come out in front of the pads.
  for (std::size_t i = 0; i < n; i += 5) v[i] = max_val;
  for (std::size_t i = 2; i < n; i += 7) v[i] = 0;
  std::vector<K> want = v;
  std::sort(want.begin(), want.end());

  std::vector<K> got = v;
  if (simd::network_sort(std::span<K>(got))) {
    EXPECT_EQ(got, want) << "n=" << n << " seed=" << seed;
  } else {
    // Declined (scalar level or span too long): input untouched.
    EXPECT_EQ(got, v) << "n=" << n << " seed=" << seed;
  }
}

TEST(SimdNetwork, U32AllSizesMatchStdSort) {
  for (std::size_t n = 0; n <= 32; ++n)
    for (std::uint64_t seed = 0; seed < 8; ++seed)
      check_network<std::uint32_t>(n, seed, 0xFFFFFFFFu);
}

TEST(SimdNetwork, U64AllSizesMatchStdSort) {
  for (std::size_t n = 0; n <= 16; ++n)
    for (std::uint64_t seed = 0; seed < 8; ++seed)
      check_network<std::uint64_t>(n, seed, ~std::uint64_t{0});
}

TEST(SimdNetwork, DeclinesOversizedAndScalar) {
  std::vector<std::uint32_t> big(33, 1);
  EXPECT_FALSE(simd::network_sort(std::span<std::uint32_t>(big)));
  std::vector<std::uint64_t> big64(17, 1);
  EXPECT_FALSE(simd::network_sort(std::span<std::uint64_t>(big64)));

  scalar_guard g(true);
  std::vector<std::uint32_t> v{3, 1, 2};
  EXPECT_FALSE(simd::network_sort(std::span<std::uint32_t>(v)));
  // The level gate precedes the trivial-size fast path: a forced-scalar
  // process declines everything, n < 2 included.
  std::vector<std::uint32_t> one{7};
  EXPECT_FALSE(simd::network_sort(std::span<std::uint32_t>(one)));
}

TEST(SimdNetwork, AllMaxValuesSurvivePadding) {
  // Every element equals the padding value: the pads must not displace any
  // real record. Exercises each words regime (1..4 vectors).
  for (const std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{9},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{24}, std::size_t{25},
                              std::size_t{32}}) {
    std::vector<std::uint32_t> v(n, 0xFFFFFFFFu);
    if (simd::network_sort(std::span<std::uint32_t>(v))) {
      for (const std::uint32_t x : v) ASSERT_EQ(x, 0xFFFFFFFFu) << n;
    }
  }
  for (const std::size_t n : {std::size_t{3}, std::size_t{5}, std::size_t{9},
                              std::size_t{13}, std::size_t{16}}) {
    std::vector<std::uint64_t> v(n, ~std::uint64_t{0});
    if (simd::network_sort(std::span<std::uint64_t>(v))) {
      for (const std::uint64_t x : v) ASSERT_EQ(x, ~std::uint64_t{0}) << n;
    }
  }
}

// --- histograms ------------------------------------------------------------

void check_histogram_u16(std::size_t n, std::size_t num_buckets,
                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint16_t> ids(n);
  for (auto& x : ids)
    x = static_cast<std::uint16_t>(rng() % num_buckets);
  std::vector<std::size_t> want(num_buckets, 0);
  for (const std::uint16_t id : ids) ++want[id];

  for (const bool scalar : {false, true}) {
    scalar_guard g(scalar);
    std::vector<std::size_t> got(num_buckets, 0);
    simd::histogram_u16(ids.data(), n, got.data(), num_buckets);
    ASSERT_EQ(got, want) << "n=" << n << " buckets=" << num_buckets
                         << " scalar=" << scalar;
  }
}

TEST(SimdHistogram, U16MatchesScalarReference) {
  // Sizes straddle the sub-histogram gate (n >= 4 * buckets) and the
  // 16-lane main-loop tail.
  for (const std::size_t nb : {std::size_t{2}, std::size_t{256},
                               std::size_t{2048}}) {
    check_histogram_u16(0, nb, 1);
    check_histogram_u16(7, nb, 2);
    check_histogram_u16(4 * nb - 1, nb, 3);
    check_histogram_u16(4 * nb + 13, nb, 4);
    check_histogram_u16(65537, nb, 5);
  }
}

template <typename K>
void check_histogram_digit(std::size_t n, int shift, K mask,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<K> keys(n);
  for (auto& x : keys) x = static_cast<K>(rng());
  const std::size_t num_buckets = static_cast<std::size_t>(mask) + 1;
  std::vector<std::size_t> want(num_buckets, 0);
  for (const K k : keys) ++want[(k >> shift) & mask];

  for (const bool scalar : {false, true}) {
    scalar_guard g(scalar);
    std::vector<std::size_t> got(num_buckets, 0);
    simd::histogram_digit(keys.data(), n, shift, mask, got.data());
    ASSERT_EQ(got, want) << "n=" << n << " shift=" << shift
                         << " scalar=" << scalar;
  }
}

TEST(SimdHistogram, DigitU32MatchesScalarReference) {
  for (const int shift : {0, 8, 24})
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{15}, std::size_t{1023},
          std::size_t{100003}})
      check_histogram_digit<std::uint32_t>(n, shift, 0xFFu, 11 + shift);
  // Sub-histogram gate boundary at 11-bit radix (2048 buckets).
  check_histogram_digit<std::uint32_t>(4 * 2048 + 9, 16, 0x7FFu, 17);
}

TEST(SimdHistogram, DigitU64MatchesScalarReference) {
  for (const int shift : {0, 32, 56})
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{9}, std::size_t{1023},
          std::size_t{100003}})
      check_histogram_digit<std::uint64_t>(n, shift, std::uint64_t{0xFF},
                                           23 + shift);
}

}  // namespace
