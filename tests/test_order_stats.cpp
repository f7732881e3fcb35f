// Tests for the order-statistics & grouped-query engine
// (core/order_stats.hpp + core/group_by.hpp). The defining contract:
// every query result is a slice of the stable full sort — so every check
// here compares byte-for-byte against a std::stable_sort-derived
// reference, per codec kind (u32 / i64 / f64 / u128 / string), plus the
// observability (buckets_pruned) and workspace-reuse
// contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

namespace {

// The reference every query is defined against.
template <typename Rec, typename Less>
std::vector<Rec> stable_ref(const std::vector<Rec>& v, const Less& less) {
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), less);
  return ref;
}

// Exhaustive equivalence sweep for one input: top_k both sides across the
// k edge cases (0, 1, mid, n-1, n, k > n), nth_element with its partition
// property, partial_sort including the m == n full-sort route.
template <typename Rec, typename KeyFn, typename Less>
void check_queries(const std::vector<Rec>& input, const KeyFn& key,
                   const Less& less) {
  const std::size_t n = input.size();
  ASSERT_GE(n, 3u);
  const auto ref = stable_ref(input, less);
  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{64}, n / 7, n - 1, n,
        n + 13}) {
    const std::size_t kk = std::min(k, n);
    {
      auto v = input;
      const auto out = top_k(std::span<Rec>(v), k, key);
      ASSERT_EQ(out.size(), kk) << "k=" << k;
      for (std::size_t i = 0; i < kk; ++i)
        ASSERT_TRUE(out[i] == ref[i]) << "k=" << k << " i=" << i;
    }
    {
      auto v = input;
      const auto out = top_k(std::span<Rec>(v), k, key, rank_side::largest);
      ASSERT_EQ(out.size(), kk) << "k=" << k;
      for (std::size_t i = 0; i < kk; ++i)
        ASSERT_TRUE(out[i] == ref[n - kk + i]) << "k=" << k << " i=" << i;
    }
  }
  for (const std::size_t nth : {std::size_t{0}, n / 2, n - 1}) {
    auto v = input;
    const Rec& r = nth_element(std::span<Rec>(v), nth, key);
    ASSERT_TRUE(r == ref[nth]) << "nth=" << nth;
    for (std::size_t i = 0; i < nth; ++i)
      ASSERT_FALSE(less(v[nth], v[i])) << "nth=" << nth << " i=" << i;
    for (std::size_t i = nth + 1; i < n; ++i)
      ASSERT_FALSE(less(v[i], v[nth])) << "nth=" << nth << " i=" << i;
  }
  for (const std::size_t m : {n / 5, n}) {
    auto v = input;
    partial_sort(std::span<Rec>(v), m, key);
    for (std::size_t i = 0; i < m; ++i)
      ASSERT_TRUE(v[i] == ref[i]) << "m=" << m << " i=" << i;
    if (m > 0) {
      for (std::size_t i = m; i < n; ++i)
        ASSERT_FALSE(less(v[i], v[m - 1])) << "m=" << m << " i=" << i;
    }
  }
}

template <typename K>
auto tkv_less() {
  return [](const tkv<K>& a, const tkv<K>& b) { return a.key < b.key; };
}

}  // namespace

// ---------------------------------------------------------------------------
// Equivalence vs the stable-sort reference, per codec kind

TEST(OrderStats, EquivalenceU32Records) {
  for (const auto& d : std::vector<gen::distribution>{
           {gen::dist_kind::uniform, 1e9, "u"},
           {gen::dist_kind::zipfian, 1.2, "z"},
           {gen::dist_kind::bexp, 100, "b"}}) {
    auto v = gen::generate_records<kv32>(d, 60000, 31);
    check_queries(v, key_of_kv32, [](const kv32& a, const kv32& b) {
      return a.key < b.key;
    });
  }
}

TEST(OrderStats, EquivalenceU64PlainKeys) {
  auto v = gen::generate_keys<std::uint64_t>(
      {gen::dist_kind::exponential, 5, "e"}, 60000, 32);
  check_queries(
      v, [](const std::uint64_t& k) -> const std::uint64_t& { return k; },
      std::less<std::uint64_t>{});
  // The plain-key overloads (no key functor) route identically.
  auto w = v;
  const auto out = top_k(std::span<std::uint64_t>(w), 100);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end());
  for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(out[i], ref[i]);
  auto w2 = v;
  EXPECT_EQ(nth_element(std::span<std::uint64_t>(w2), v.size() / 3),
            ref[v.size() / 3]);
  auto w3 = v;
  partial_sort(std::span<std::uint64_t>(w3), 500);
  for (std::size_t i = 0; i < 500; ++i) ASSERT_EQ(w3[i], ref[i]);
}

TEST(OrderStats, EquivalenceI64SignFlip) {
  auto v = gen::generate_typed_records<std::int64_t>(
      {gen::dist_kind::uniform, 1e7, "u"}, 60000, 33);
  check_queries(v, key_of_tkv<std::int64_t>, tkv_less<std::int64_t>());
}

TEST(OrderStats, EquivalenceF64TotalOrder) {
  auto v = gen::generate_typed_records<double>(
      {gen::dist_kind::zipfian, 0.8, "z"}, 60000, 34);
  check_queries(v, key_of_tkv<double>, tkv_less<double>());
}

TEST(OrderStats, EquivalenceU128Wide) {
  auto v = gen::generate_wide_records<unsigned __int128>(
      {gen::dist_kind::zipfian, 1.0, "z"}, 50000, 35, /*hi_bits=*/8);
  check_queries(v, key_of_tkv<unsigned __int128>,
                tkv_less<unsigned __int128>());
}

TEST(OrderStats, EquivalenceStringKeys) {
  auto v = gen::generate_string_keys({gen::dist_kind::zipfian, 1.0, "z"},
                                     20000, 36);
  check_queries(
      v, [](const std::string& s) -> const std::string& { return s; },
      std::less<std::string>{});
}

TEST(OrderStats, EquivalenceUrlStringKeys) {
  // The URL corpus: near-constant word 0 (the scheme), host-level LCP
  // groups — the shape that forces the wide driver past word 0.
  auto v = gen::generate_url_keys({gen::dist_kind::zipfian, 1.2, "z"},
                                  20000, 37);
  check_queries(
      v, [](const std::string& s) -> const std::string& { return s; },
      std::less<std::string>{});
}

TEST(OrderStats, EquivalenceNonTriviallyCopyableRecords) {
  // std::pair records take the encode-once (encoded, index) route even
  // for a narrow key — the record-kernel path of the sort/query router.
  using rec = std::pair<std::uint32_t, std::uint32_t>;
  auto keys = gen::generate_keys<std::uint32_t>(
      {gen::dist_kind::uniform, 1e5, "u"}, 50000, 38);
  std::vector<rec> v(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    v[i] = {keys[i], static_cast<std::uint32_t>(i)};
  check_queries(
      v, [](const rec& r) { return r.first; },
      [](const rec& a, const rec& b) { return a.first < b.first; });
}

// ---------------------------------------------------------------------------
// Stability, tiny inputs, errors

TEST(OrderStats, TopKTiesAreStable) {
  // 50 distinct keys over 100k records: every top-k window is wall-to-wall
  // ties; value = input index proves the slice is the STABLE prefix.
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 50, "u"},
                                       100000, 41);
  const auto ref = stable_ref(v, [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  for (const std::size_t k : {std::size_t{1}, std::size_t{777},
                              std::size_t{5000}}) {
    auto w = v;
    const auto out = top_k(std::span<kv32>(w), k, key_of_kv32);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i].key, ref[i].key) << i;
      ASSERT_EQ(out[i].value, ref[i].value) << i;
    }
    auto w2 = v;
    const auto hi = top_k(std::span<kv32>(w2), k, key_of_kv32,
                          rank_side::largest);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(hi[i].key, ref[v.size() - k + i].key) << i;
      ASSERT_EQ(hi[i].value, ref[v.size() - k + i].value) << i;
    }
  }
}

TEST(OrderStats, TinyInputs) {
  std::vector<std::uint32_t> empty;
  EXPECT_EQ(top_k(std::span<std::uint32_t>(empty), 5).size(), 0u);
  partial_sort(std::span<std::uint32_t>(empty), 5);
  std::vector<std::uint32_t> one{42};
  const auto out = top_k(std::span<std::uint32_t>(one), 3);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(nth_element(std::span<std::uint32_t>(one), 0), 42u);
}

TEST(OrderStats, NthElementThrowsOutOfRange) {
  std::vector<std::uint32_t> v{3, 1, 2};
  EXPECT_THROW(nth_element(std::span<std::uint32_t>(v), 3),
               std::out_of_range);
  std::vector<std::uint32_t> empty;
  EXPECT_THROW(nth_element(std::span<std::uint32_t>(empty), 0),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Percentiles

TEST(OrderStats, PercentilesNearestRank) {
  auto keys = gen::generate_keys<std::uint64_t>(
      {gen::dist_kind::zipfian, 1.0, "z"}, 80000, 51);
  auto ref = keys;
  std::stable_sort(ref.begin(), ref.end());
  const std::vector<double> qs{0.99, 0.0, 0.5, 0.25, 1.0, 0.5, 0.9};
  const auto before = keys;
  const auto got = percentiles(std::span<const std::uint64_t>(keys),
                               std::span<const double>(qs));
  EXPECT_EQ(keys, before);  // input untouched
  ASSERT_EQ(got.size(), qs.size());
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto r = static_cast<std::size_t>(
        std::llround(qs[i] * static_cast<double>(n - 1)));
    EXPECT_EQ(got[i], ref[r]) << "q=" << qs[i];
  }
}

TEST(OrderStats, PercentilesTypedAndStringKeys) {
  {
    auto keys = gen::generate_typed_keys<double>(
        {gen::dist_kind::uniform, 1e6, "u"}, 40000, 52);
    auto ref = keys;
    std::stable_sort(ref.begin(), ref.end());
    const auto got =
        percentiles(std::span<const double>(keys), {0.5, 0.99});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], ref[static_cast<std::size_t>(std::llround(
                          0.5 * static_cast<double>(keys.size() - 1)))]);
    EXPECT_EQ(got[1], ref[static_cast<std::size_t>(std::llround(
                          0.99 * static_cast<double>(keys.size() - 1)))]);
  }
  {
    auto keys = gen::generate_string_keys({gen::dist_kind::uniform, 1e5, "u"},
                                          15000, 53);
    auto ref = keys;
    std::stable_sort(ref.begin(), ref.end());
    const auto got =
        percentiles(std::span<const std::string>(keys), {0.0, 0.9, 1.0});
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], ref.front());
    EXPECT_EQ(got[1], ref[static_cast<std::size_t>(std::llround(
                          0.9 * static_cast<double>(keys.size() - 1)))]);
    EXPECT_EQ(got[2], ref.back());
  }
}

TEST(OrderStats, PercentilesValidation) {
  std::vector<std::uint32_t> v{1, 2, 3};
  EXPECT_THROW(percentiles(std::span<const std::uint32_t>(v), {1.5}),
               std::invalid_argument);
  EXPECT_THROW(percentiles(std::span<const std::uint32_t>(v), {-0.1}),
               std::invalid_argument);
  std::vector<std::uint32_t> empty;
  EXPECT_THROW(percentiles(std::span<const std::uint32_t>(empty), {0.5}),
               std::invalid_argument);
  EXPECT_TRUE(percentiles(std::span<const std::uint32_t>(empty),
                          std::span<const double>{})
                  .empty());
}

// ---------------------------------------------------------------------------
// Observability: pruning counters, workspace reuse

TEST(OrderStats, PruningIsObserved) {
  auto v = gen::generate_keys<std::uint64_t>(
      {gen::dist_kind::uniform, 1e9, "u"}, 200000, 61);
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  auto w = v;
  top_k(std::span<std::uint64_t>(w), 16, rank_side::smallest, opt);
  EXPECT_GT(st.buckets_pruned.load(), 0u);
  EXPECT_GT(st.records_pruned.load(), 0u);
  // k << n: almost everything is pruned after the first pass.
  EXPECT_GT(st.records_pruned.load(), v.size() / 2);
  // The wide path prunes too.
  sort_stats st2;
  auto_sort_options opt2;
  opt2.stats = &st2;
  auto ws = gen::generate_wide_records<unsigned __int128>(
      {gen::dist_kind::uniform, 1e9, "u"}, 100000, 62, /*hi_bits=*/32);
  dovetail::nth_element(std::span<tkv<unsigned __int128>>(ws), 50000,
                        key_of_tkv<unsigned __int128>, opt2);
  EXPECT_GT(st2.buckets_pruned.load(), 0u);
}

TEST(OrderStats, ZeroAllocWarmReuse) {
  auto base = gen::generate_records<kv64>({gen::dist_kind::uniform, 1e9, "u"},
                                          120000, 64);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  const auto run = [&] {
    auto v = base;
    top_k(std::span<kv64>(v), 100, key_of_kv64, rank_side::smallest, opt);
    auto w = base;
    dovetail::nth_element(std::span<kv64>(w), base.size() / 2, key_of_kv64,
                          opt);
  };
  run();  // warm-up: the workspace grows to the query footprint
  run();
  const std::uint64_t allocs = st.workspace_allocations.load();
  run();
  run();
  EXPECT_EQ(st.workspace_allocations.load(), allocs)
      << "warm repeated queries must lease, not allocate";
  EXPECT_GT(st.workspace_reuses.load(), 0u);
}

// ---------------------------------------------------------------------------
// group_by: byte-identical to sort-then-scan, per codec kind

namespace {

template <typename K>
void check_group_by_matches_sort_scan(std::vector<K> keys) {
  const std::size_t n = keys.size();
  std::vector<std::uint32_t> values(n);
  std::iota(values.begin(), values.end(), 0u);
  // Reference: a stable sort-then-scan that never touches dovetail code.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return keys[a] < keys[b];
  });
  std::vector<K> ref_keys(n);
  std::vector<std::uint32_t> ref_values(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref_keys[i] = keys[idx[i]];
    ref_values[i] = static_cast<std::uint32_t>(idx[i]);
  }
  std::vector<std::size_t> ref_offsets{0};
  for (std::size_t i = 1; i < n; ++i)
    if (!(ref_keys[i - 1] == ref_keys[i])) ref_offsets.push_back(i);
  ref_offsets.push_back(n);

  const auto view =
      group_by(std::span<K>(keys), std::span<std::uint32_t>(values));
  ASSERT_EQ(keys, ref_keys);
  ASSERT_EQ(values, ref_values);
  ASSERT_EQ(view.offsets, ref_offsets);
  ASSERT_EQ(view.num_groups(), ref_offsets.size() - 1);
  for (std::size_t g = 0; g < view.num_groups(); ++g) {
    ASSERT_TRUE(view.key(g) == ref_keys[ref_offsets[g]]);
    ASSERT_EQ(view.group(g).size(), view.group_size(g));
  }
}

}  // namespace

TEST(GroupBy, MatchesSortThenScanU32) {
  check_group_by_matches_sort_scan(gen::generate_keys<std::uint32_t>(
      {gen::dist_kind::zipfian, 1.2, "z"}, 80000, 71));
}

TEST(GroupBy, MatchesSortThenScanI64) {
  check_group_by_matches_sort_scan(gen::generate_typed_keys<std::int64_t>(
      {gen::dist_kind::uniform, 1e4, "u"}, 80000, 72));
}

TEST(GroupBy, MatchesSortThenScanF64) {
  check_group_by_matches_sort_scan(gen::generate_typed_keys<double>(
      {gen::dist_kind::exponential, 7, "e"}, 60000, 73));
}

TEST(GroupBy, MatchesSortThenScanU128) {
  std::vector<unsigned __int128> keys(60000);
  {
    auto recs = gen::generate_wide_records<unsigned __int128>(
        {gen::dist_kind::zipfian, 1.2, "z"}, keys.size(), 74, /*hi_bits=*/8);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = recs[i].key;
  }
  check_group_by_matches_sort_scan(std::move(keys));
}

TEST(GroupBy, MatchesSortThenScanString) {
  check_group_by_matches_sort_scan(gen::generate_string_keys(
      {gen::dist_kind::zipfian, 1.2, "z"}, 20000, 75));
}

TEST(GroupBy, FingerprintModeGroupsExactly) {
  auto keys = gen::generate_keys<std::uint32_t>(
      {gen::dist_kind::zipfian, 1.2, "z"}, 100000, 76);
  std::vector<std::uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  std::map<std::uint32_t, std::size_t> expect;
  for (const auto k : keys) ++expect[k];
  const auto orig_keys = keys;
  const auto view =
      group_by(std::span<std::uint32_t>(keys), std::span<std::uint32_t>(values),
               {}, group_order::fingerprint);
  // Every key forms exactly one group of the right size, stable within.
  ASSERT_EQ(view.num_groups(), expect.size());
  std::set<std::uint32_t> seen;
  for (std::size_t g = 0; g < view.num_groups(); ++g) {
    const std::uint32_t k = view.key(g);
    ASSERT_TRUE(seen.insert(k).second) << "key " << k << " in two groups";
    ASSERT_EQ(view.group_size(g), expect[k]);
    const auto vals = view.group(g);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      ASSERT_EQ(orig_keys[vals[i]], k);  // value = original index of key k
      if (i > 0) {
        ASSERT_LT(vals[i - 1], vals[i]);  // stable within group
      }
    }
  }
  // Deterministic: a second run over the same input groups identically.
  auto keys2 = orig_keys;
  std::vector<std::uint32_t> values2(keys2.size());
  std::iota(values2.begin(), values2.end(), 0u);
  group_by(std::span<std::uint32_t>(keys2), std::span<std::uint32_t>(values2),
           {}, group_order::fingerprint);
  EXPECT_EQ(keys, keys2);
  EXPECT_EQ(values, values2);
}

TEST(GroupBy, KeysOnlyOverloadAndEdges) {
  {
    std::vector<std::uint32_t> empty;
    const auto view = group_by(std::span<std::uint32_t>(empty));
    EXPECT_EQ(view.num_groups(), 0u);
    EXPECT_EQ(view.offsets, std::vector<std::size_t>{0});
  }
  {
    std::vector<std::uint32_t> same(1000, 7);
    const auto view = group_by(std::span<std::uint32_t>(same));
    ASSERT_EQ(view.num_groups(), 1u);
    EXPECT_EQ(view.key(0), 7u);
    EXPECT_EQ(view.group_size(0), 1000u);
  }
  {
    auto keys = gen::generate_keys<std::uint64_t>(
        {gen::dist_kind::uniform, 1e3, "u"}, 50000, 77);
    auto ref = keys;
    std::stable_sort(ref.begin(), ref.end());
    const auto view = group_by(std::span<std::uint64_t>(keys));
    EXPECT_EQ(keys, ref);
    for (std::size_t g = 0; g < view.num_groups(); ++g) {
      for (std::size_t i = view.offsets[g] + 1; i < view.offsets[g + 1]; ++i)
        ASSERT_EQ(keys[i], view.key(g));
      if (g + 1 < view.num_groups()) {
        ASSERT_LT(view.key(g), view.key(g + 1));
      }
    }
    // Fingerprint keys-only: same multiset, contiguous groups.
    auto keys2 = ref;
    const auto fview = group_by(std::span<std::uint64_t>(keys2), {},
                                group_order::fingerprint);
    EXPECT_EQ(fview.offsets.back(), keys2.size());
    auto resorted = keys2;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, ref);
  }
}

TEST(GroupBy, ThrowsOnSizeMismatch) {
  std::vector<std::uint32_t> keys(10);
  std::vector<std::uint32_t> values(9);
  EXPECT_THROW(group_by(std::span<std::uint32_t>(keys),
                        std::span<std::uint32_t>(values)),
               std::invalid_argument);
}
