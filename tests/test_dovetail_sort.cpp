// Correctness tests for DovetailSort: sortedness, permutation, stability,
// option ablations, adversarial and degenerate inputs, both key widths,
// with and without values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using dovetail::dovetail_sort;
using dovetail::kv32;
using dovetail::kv64;
using dovetail::sort_options;
namespace gen = dovetail::gen;

namespace {

// Small parameters force deep recursion even on small test inputs.
sort_options deep_options() {
  sort_options o;
  o.gamma = 4;
  o.base_case = 32;
  return o;
}

template <typename Rec>
void check_against_reference(std::vector<Rec> data, const sort_options& opt) {
  auto key = [](const Rec& r) { return r.key; };
  std::vector<Rec> ref = data;
  std::stable_sort(ref.begin(), ref.end(), [&](const Rec& a, const Rec& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<Rec>(data), key, opt);
  ASSERT_EQ(data.size(), ref.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i].key, ref[i].key) << "at index " << i;
    ASSERT_EQ(data[i].value, ref[i].value) << "stability broken at " << i;
  }
}

}  // namespace

TEST(DovetailSort, EmptyAndTiny) {
  std::vector<std::uint32_t> v;
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_TRUE(v.empty());
  v = {5};
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_EQ(v, (std::vector<std::uint32_t>{5}));
  v = {9, 3};
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_EQ(v, (std::vector<std::uint32_t>{3, 9}));
}

TEST(DovetailSort, AllEqualKeysPreserveOrder) {
  std::vector<kv32> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = {42, (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, AlreadySortedAndReversed) {
  std::vector<kv32> v(20000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {(std::uint32_t)i, (std::uint32_t)i};
  check_against_reference(v, deep_options());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {(std::uint32_t)(v.size() - i), (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysAtTypeExtremes) {
  std::vector<kv32> v;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    v.push_back({0u, 3 * i});
    v.push_back({0xFFFFFFFFu, 3 * i + 1});
    v.push_back({0x80000000u, 3 * i + 2});
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysAtTypeExtremes64) {
  std::vector<kv64> v;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    v.push_back({0ull, 3 * i});
    v.push_back({~0ull, 3 * i + 1});
    v.push_back({1ull << 63, 3 * i + 2});
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, TwoDistinctKeysHeavy) {
  std::vector<kv32> v(40000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {i % 3 == 0 ? 7u : 123456789u, (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, SingleHeavyKeyAmongUniform) {
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 2 == 0)
      v[i] = {55555u, (std::uint32_t)i};
    else
      v[i] = {(std::uint32_t)dovetail::par::hash64(i), (std::uint32_t)i};
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, DefaultOptionsLargeUniform) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"},
                                       200000, 3);
  check_against_reference(v, {});
}

TEST(DovetailSort, DefaultOptionsLargeZipf) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                       200000, 4);
  check_against_reference(v, {});
}

TEST(DovetailSort, DeepRecursionZipf64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::zipfian, 1.0, "z"},
                                       100000, 5);
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, BExpAdversarial32) {
  for (double t : {10.0, 100.0, 300.0}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::bexp, t, "b"},
                                         80000, 6);
    check_against_reference(v, deep_options());
  }
}

TEST(DovetailSort, BExpAdversarial64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::bexp, 50, "b"},
                                       80000, 7);
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, PlainModeNoHeavyDetection) {
  auto o = deep_options();
  o.detect_heavy = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                       100000, 8);
  check_against_reference(v, o);
}

TEST(DovetailSort, PlMergeMode) {
  auto o = deep_options();
  o.use_dt_merge = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                       100000, 9);
  check_against_reference(v, o);
}

TEST(DovetailSort, NoRangeDetection) {
  auto o = deep_options();
  o.skip_leading_bits = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::exponential, 10, "e"},
                                       100000, 10);
  check_against_reference(v, o);
}

TEST(DovetailSort, SmallKeyRangeUsesOverflowPath) {
  // Keys in [0, 100): leading bits skipped; a few outliers go to the
  // overflow bucket.
  std::vector<kv32> v(60000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint32_t k = (std::uint32_t)(dovetail::par::hash64(i) % 100);
    if (i % 9999 == 0) k = 0xFFFF0000u + (std::uint32_t)i;  // outliers
    v[i] = {k, (std::uint32_t)i};
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysOnlyInterface) {
  auto keys = gen::generate_keys<std::uint32_t>(
      {gen::dist_kind::exponential, 5, "e"}, 150000, 11);
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  dovetail_sort(std::span<std::uint32_t>(keys));
  EXPECT_EQ(keys, ref);
}

TEST(DovetailSort, DeterministicAcrossRuns) {
  auto v1 = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                        50000, 12);
  auto v2 = v1;
  dovetail_sort(std::span<kv32>(v1), dovetail::key_of_kv32, deep_options());
  dovetail_sort(std::span<kv32>(v2), dovetail::key_of_kv32, deep_options());
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), v2.begin()));
}

TEST(DovetailSort, GammaSweepCorrect) {
  auto base = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                          60000, 13);
  for (int gamma : {2, 3, 5, 8, 10, 12}) {
    sort_options o;
    o.gamma = gamma;
    o.base_case = 64;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, ThetaSweepCorrect) {
  auto base = gen::generate_records<kv32>(
      {gen::dist_kind::exponential, 7, "e"}, 60000, 14);
  for (std::size_t theta : {2ul, 16ul, 256ul, 4096ul, 1ul << 16}) {
    sort_options o;
    o.gamma = 6;
    o.base_case = theta;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, SeedVariationStillCorrect) {
  auto base = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                          60000, 15);
  for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
    sort_options o = deep_options();
    o.seed = seed;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, OddSizesAroundPowersOfTwo) {
  for (std::size_t n :
       {31ul, 32ul, 33ul, 1023ul, 1024ul, 1025ul, 65535ul, 65537ul}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                         n, 16 + n);
    check_against_reference(v, deep_options());
  }
}

// ---------------------------------------------------------------------------
// Radix finish: subproblems of at most θ records finish with a sequential
// MSD radix sort over the twin buffer (detail::radix_finish). It must give
// exactly std::stable_sort's bytes for every θ and worker count, on the
// segment shapes it special-cases: all-equal keys (no scatter), one-bit
// ranges at either end of the word, full-width keys (many levels), and
// buckets of at most 16 records (rank leaves, where ties must keep their
// input order).

namespace {

struct i64rec {
  std::int64_t key;
  std::uint64_t value;
};

struct f64rec {
  double key;
  std::uint64_t value;
};

template <typename Rec, typename KeyFn>
void expect_stable_sort_bytes(const std::vector<Rec>& input, const KeyFn& key,
                              const char* what) {
  using K = std::remove_cvref_t<std::invoke_result_t<KeyFn, const Rec&>>;
  std::vector<Rec> ref = input;
  std::stable_sort(ref.begin(), ref.end(), [&](const Rec& a, const Rec& b) {
    return dovetail::key_codec<K>::encode(key(a)) <
           dovetail::key_codec<K>::encode(key(b));
  });
  for (int threads : {1, 0}) {
    for (std::size_t theta : {2ul, 25ul, 256ul, 1ul << 14, 1ul << 16}) {
      sort_options o;
      o.base_case = theta;
      o.num_threads = threads;
      std::vector<Rec> got = input;
      dovetail_sort(std::span<Rec>(got), key, o);
      ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                               got.size() * sizeof(Rec)))
          << what << ": theta " << theta << ", num_threads " << threads;
    }
  }
}

constexpr std::size_t kFinishN = 150000;

template <typename Rec>
std::vector<Rec> with_keys(std::size_t n, auto key_at) {
  std::vector<Rec> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = {key_at(i), static_cast<decltype(Rec::value)>(i)};
  return v;
}

}  // namespace

TEST(RadixFinish, AllEqualKeySegments) {
  using dovetail::par::hash64;
  // 10000 keys, 15 copies each, scattered: base segments of equal keys,
  // small enough for a rank leaf.
  expect_stable_sort_bytes(
      with_keys<kv64>(kFinishN,
                      [](std::size_t i) { return hash64(i % 10000) >> 20; }),
      dovetail::key_of_kv64, "equal-key segments");
  // One key throughout.
  expect_stable_sort_bytes(
      with_keys<kv64>(kFinishN, [](std::size_t) { return 77ull; }),
      dovetail::key_of_kv64, "one key");
}

TEST(RadixFinish, KeysDifferingOnlyInBitZeroOrBit63) {
  using dovetail::par::hash64;
  expect_stable_sort_bytes(
      with_keys<kv64>(kFinishN,
                      [](std::size_t i) {
                        return 0x5555'0000'1234'0000ull | (hash64(i) & 1);
                      }),
      dovetail::key_of_kv64, "bit 0");
  expect_stable_sort_bytes(
      with_keys<kv64>(kFinishN,
                      [](std::size_t i) {
                        return 0x1234ull | (hash64(i) & 1) << 63;
                      }),
      dovetail::key_of_kv64, "bit 63");
}

TEST(RadixFinish, FullWidthHashedKeys64) {
  // DTSort's levels take at most 8 bits each at this n, so every base case
  // keeps over 40 unsorted bits: rank leaves on wide keys, or finish
  // levels before them.
  using dovetail::par::hash64;
  expect_stable_sort_bytes(
      with_keys<kv64>(kFinishN, [](std::size_t i) { return hash64(i); }),
      dovetail::key_of_kv64, "hashed kv64");
}

TEST(RadixFinish, BExp10Records64) {
  expect_stable_sort_bytes(
      gen::generate_records<kv64>({gen::dist_kind::bexp, 10, "b"}, kFinishN,
                                  21),
      dovetail::key_of_kv64, "BExp-10 kv64");
}

TEST(RadixFinish, UniformRecords32) {
  expect_stable_sort_bytes(
      gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"},
                                  kFinishN, 22),
      dovetail::key_of_kv32, "Unif-1e9 kv32");
}

TEST(RadixFinish, SignedAndDoubleKeysThroughTheCodec) {
  using dovetail::par::hash64;
  expect_stable_sort_bytes(
      with_keys<i64rec>(kFinishN,
                        [](std::size_t i) {
                          return static_cast<std::int64_t>(hash64(i)) >>
                                 (i % 40);
                        }),
      [](const i64rec& r) { return r.key; }, "signed");
  expect_stable_sort_bytes(
      with_keys<f64rec>(kFinishN,
                        [](std::size_t i) {
                          const double x =
                              static_cast<double>(hash64(i) % 20001) - 10000;
                          if (x == 0 && i % 2 == 1) return -0.0;
                          return i % 7 == 0 ? x * 1e-300 : x / 64;
                        }),
      [](const f64rec& r) { return r.key; }, "double");
}

TEST(RadixFinish, BaseCaseRecordsUnchanged) {
  // Routing into the base case is the sampled recursion's business, not
  // the finish's: for this fixed input and seed, 511151 records reached a
  // base case when it was still a comparison sort, and the rest went to
  // heavy buckets.
  const auto input = gen::generate_records<kv64>(
      {gen::dist_kind::zipfian, 1.2, "z"}, 1'000'000, 23);
  for (int threads : {1, 0}) {
    auto v = input;
    dovetail::sort_stats st;
    sort_options o;
    o.stats = &st;
    o.num_threads = threads;
    dovetail_sort(std::span<kv64>(v), dovetail::key_of_kv64, o);
    EXPECT_EQ(st.base_case_records.load(), 511151u)
        << "num_threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// detail::radix_finish called directly, on both sides of the (A, T) pair:
// with cur_is_a the records start and end in `cur`; otherwise they start
// in the T side and end in `oth`. Either way the output must be
// std::stable_sort's bytes by key.

namespace {

// A string record as radix_finish_words hands it over: its key is one
// cached codec word, word[f].
struct word_rec {
  std::uint64_t word[2];
  std::uint32_t index;
};

template <typename Rec, typename KeyFn>
void expect_finish_bytes(const std::vector<Rec>& input, const KeyFn& key,
                         const std::string& what) {
  std::vector<Rec> ref = input;
  std::stable_sort(ref.begin(), ref.end(), [&](const Rec& a, const Rec& b) {
    return key(a) < key(b);
  });
  const std::size_t n = input.size();
  for (const bool cur_is_a : {true, false}) {
    std::vector<Rec> cur = input;
    std::vector<Rec> oth(n);
    if (n != 0) std::memset(static_cast<void*>(oth.data()), 0xA5, n * sizeof(Rec));
    dovetail::detail::radix_finish(cur.data(), oth.data(), n, cur_is_a, key);
    const Rec* out = cur_is_a ? cur.data() : oth.data();
    ASSERT_EQ(0, n == 0 ? 0 : std::memcmp(out, ref.data(), n * sizeof(Rec)))
        << what << ", n " << n << ", cur_is_a " << cur_is_a;
  }
}

std::vector<std::size_t> finish_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 64; ++n) sizes.push_back(n);
  for (std::size_t n : {2047ul, 2048ul, 2049ul, 16384ul}) sizes.push_back(n);
  return sizes;
}

}  // namespace

TEST(RadixFinishDirect, EverySizeFullWidthAndTiedKeys64) {
  using dovetail::par::hash64;
  for (const std::size_t n : finish_sizes()) {
    // Full-width keys: a segment of at most 16 records spans more bits
    // than a rank leaf takes, so it runs one 4-bit level first.
    expect_finish_bytes(
        with_keys<kv64>(n, [n](std::size_t i) { return hash64(i + 7 * n); }),
        dovetail::key_of_kv64, "hashed kv64");
    // About three copies per key: ties inside every rank leaf.
    expect_finish_bytes(with_keys<kv64>(n,
                                        [n](std::size_t i) {
                                          return hash64(i + n) % (n / 3 + 1);
                                        }),
                        dovetail::key_of_kv64, "tied kv64");
    // Two keys, interleaved: every leaf is two long runs of ties.
    expect_finish_bytes(
        with_keys<kv64>(n,
                        [](std::size_t i) {
                          return (hash64(i) & 1) << 40 | 0x1234;
                        }),
        dovetail::key_of_kv64, "two keys kv64");
  }
}

TEST(RadixFinishDirect, EverySizeKv32) {
  using dovetail::par::hash64;
  for (const std::size_t n : finish_sizes()) {
    expect_finish_bytes(
        with_keys<kv32>(n,
                        [n](std::size_t i) {
                          return static_cast<std::uint32_t>(hash64(i ^ n));
                        }),
        dovetail::key_of_kv32, "hashed kv32");
    expect_finish_bytes(with_keys<kv32>(n,
                                        [n](std::size_t i) {
                                          return static_cast<std::uint32_t>(
                                              hash64(i) % (n / 4 + 1));
                                        }),
                        dovetail::key_of_kv32, "tied kv32");
  }
}

TEST(RadixFinishDirect, AllEqualAroundTheLeafSize) {
  for (std::size_t n = 12; n <= 21; ++n) {
    expect_finish_bytes(with_keys<kv64>(n, [](std::size_t) { return 5ull; }),
                        dovetail::key_of_kv64, "all equal kv64");
    expect_finish_bytes(
        with_keys<kv32>(n, [](std::size_t) { return 0xFFFFFFFFu; }),
        dovetail::key_of_kv32, "all equal kv32");
    // All equal but the last record, which sorts first.
    expect_finish_bytes(with_keys<kv64>(n,
                                        [n](std::size_t i) {
                                          return i + 1 == n ? 0ull : ~0ull;
                                        }),
                        dovetail::key_of_kv64, "one smaller key");
  }
}

TEST(RadixFinishDirect, KeysDifferingOnlyBelowTheDigit) {
  using dovetail::par::hash64;
  // 2^14 records over 31 bits: the one 11-bit level takes bits 20-30, and
  // records in one bucket differ only in bits 0-3, which their rank leaf
  // must order.
  for (const std::size_t n : {std::size_t{2049}, std::size_t{1} << 14}) {
    expect_finish_bytes(with_keys<kv64>(n,
                                        [](std::size_t i) {
                                          return (hash64(i) & 0x7FF) << 20 |
                                                 (hash64(~i) & 0xF);
                                        }),
                        dovetail::key_of_kv64, "low nibble kv64");
    expect_finish_bytes(
        with_keys<kv32>(n,
                        [](std::size_t i) {
                          return static_cast<std::uint32_t>(
                              (hash64(i) & 0x7FF) << 21 | (hash64(~i) & 1));
                        }),
        dovetail::key_of_kv32, "low bit kv32");
  }
}

// Segments the front door finishes whole (serial plans of at most 2^16
// records) and larger: two levels of finish digits sized for 8-record
// leaves, over generated keys.
TEST(RadixFinishDirect, MidSizeSegmentsOnGeneratedKeys) {
  for (const gen::distribution& d :
       {gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"},
        gen::distribution{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
        gen::distribution{gen::dist_kind::bexp, 10, "BExp-10"}}) {
    for (const std::size_t n :
         {(std::size_t{1} << 15) + 1, std::size_t{54'000},
          std::size_t{1} << 16, std::size_t{1} << 17}) {
      expect_finish_bytes(gen::generate_records<kv32>(d, n, 5),
                          dovetail::key_of_kv32, d.name + " kv32");
      expect_finish_bytes(gen::generate_records<kv64>(d, n, 6),
                          dovetail::key_of_kv64, d.name + " kv64");
    }
  }
}

TEST(RadixFinishDirect, WordKeysAsTheStringFinishPassesThem) {
  using dovetail::par::hash64;
  for (const std::size_t n : finish_sizes()) {
    std::vector<word_rec> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Word 1 from a handful of 7-byte codec words: long runs of ties.
      const std::uint64_t w = 0x6162636465666700ull + (hash64(i) % 5) * 0x100;
      v[i] = {{hash64(i), w | (i % 2)}, static_cast<std::uint32_t>(i)};
    }
    expect_finish_bytes(v, [](const word_rec& r) { return r.word[1]; },
                        "word[1]");
    expect_finish_bytes(v, [](const word_rec& r) { return r.word[0]; },
                        "word[0]");
  }
}
