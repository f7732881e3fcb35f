// Tests for the order-statistics & grouped-query engine
// (core/order_stats.hpp + core/group_by.hpp). The defining contract:
// every query result is a slice of the stable full sort — so every check
// here compares byte-for-byte against a std::stable_sort-derived
// reference, per codec kind (u32 / i64 / f64 / u128 / string), plus the
// observability (buckets_pruned) and workspace-reuse
// contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/scheduler.hpp"
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

// `v` in a canonical order: by key, then by the payload where records
// carry one (generated records hold their input index, so the order is
// total). Two arrays hold the same multiset of records iff their
// canonical forms are equal.
template <typename Rec, typename Less>
std::vector<Rec> canonical(std::vector<Rec> v, const Less& less) {
  std::sort(v.begin(), v.end(), [&](const Rec& a, const Rec& b) {
    if (less(a, b)) return true;
    if (less(b, a)) return false;
    if constexpr (requires { a.value; }) {
      return a.value < b.value;
    } else if constexpr (requires { a.second; }) {
      return a.second < b.second;
    } else {
      return false;
    }
  });
  return v;
}

// Exhaustive equivalence sweep for one input: top_k both sides across the
// k edge cases (0, 1, mid, n-1, n, k > n), nth_element with its partition
// property, partial_sort including the m == n full-sort route. Every query
// must also leave the whole array a permutation of the input.
template <typename Rec, typename KeyFn, typename Less>
void check_queries(const std::vector<Rec>& input, const KeyFn& key,
                   const Less& less) {
  const std::size_t n = input.size();
  ASSERT_GE(n, 3u);
  const auto ref = stable_ref(input, less);
  const auto multiset = canonical(input, less);
  const auto same_records = [&](const std::vector<Rec>& v) {
    return canonical(v, less) == multiset;
  };
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
      ASSERT_TRUE(same_records(v)) << "top_k k=" << k;
    }
    {
      auto v = input;
      const auto out = top_k(std::span<Rec>(v), k, key, rank_side::largest);
      ASSERT_EQ(out.size(), kk) << "k=" << k;
      for (std::size_t i = 0; i < kk; ++i)
        ASSERT_TRUE(out[i] == ref[n - kk + i]) << "k=" << k << " i=" << i;
      ASSERT_TRUE(same_records(v)) << "top_k largest k=" << k;
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
    ASSERT_TRUE(same_records(v)) << "nth_element nth=" << nth;
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
    ASSERT_TRUE(same_records(v)) << "partial_sort m=" << m;
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
// The threshold step (rank_selector::try_threshold): windows within the
// first or last n/64 ranks of a segment of at least kCarveMin records are
// served by one read pass over a sampled pivot.

namespace {

using u128 = unsigned __int128;

// Every test that resizes the global pool restores it on exit.
struct worker_count_guard {
  ~worker_count_guard() {
    par::scheduler::set_num_workers(par::scheduler::default_num_workers());
  }
};

enum class shape {
  unif,
  zipf,
  ties50,
  two_keys,
  all_equal,
  ascending,
  descending,
  heavy_pivot
};

constexpr shape kShapes[] = {shape::unif,       shape::zipf,
                             shape::ties50,     shape::two_keys,
                             shape::all_equal,  shape::ascending,
                             shape::descending, shape::heavy_pivot};

const char* shape_name(shape s) {
  switch (s) {
    case shape::unif: return "Unif-1e9";
    case shape::zipf: return "Zipf-1.2";
    case shape::ties50: return "Unif-50";
    case shape::two_keys: return "two keys";
    case shape::all_equal: return "all equal";
    case shape::ascending: return "ascending";
    case shape::descending: return "descending";
    case shape::heavy_pivot: return "heavy key at the pivot";
  }
  return "?";
}

// Whether the step serves windows reaching t ranks from one end of this
// shape: the sample predicts too many candidates when a key holding a
// large share of the records sits at the pivot (two keys, all equal, and
// the heavy-pivot shape, built for it).
bool takes_threshold(shape s, std::size_t n, std::size_t t) {
  return n >= detail::kCarveMin && t <= n / detail::kThresholdReach &&
         s != shape::two_keys && s != shape::all_equal &&
         s != shape::heavy_pivot;
}

// 64-bit keys of the shape, every one of which keeps its shape below 2^32
// (kv32 records take the low 32 bits).
std::vector<std::uint64_t> shape_keys(shape s, std::size_t n) {
  switch (s) {
    case shape::unif:
      return gen::generate_keys<std::uint64_t>(
          {gen::dist_kind::uniform, 1e9, "u"}, n, 81);
    case shape::zipf:
      return gen::generate_keys<std::uint64_t>(
          {gen::dist_kind::zipfian, 1.2, "z"}, n, 82);
    case shape::ties50:
      return gen::generate_keys<std::uint64_t>(
          {gen::dist_kind::uniform, 50, "u"}, n, 83);
    default: break;
  }
  std::vector<std::uint64_t> k(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = par::hash64(i + 84);
    switch (s) {
      case shape::two_keys: k[i] = (h & 1) != 0 ? 7 : 3; break;
      case shape::all_equal: k[i] = 42; break;
      case shape::ascending: k[i] = i; break;
      case shape::descending: k[i] = n - i; break;
      default:
        // A fifth of the records on one key just above the smallest few,
        // a fifth on one just below the largest few: the pivot lands on
        // a heavy key from either end.
        k[i] = h % 10 < 2   ? 10
               : h % 10 < 4 ? std::uint64_t{1} << 31
                            : 100 + (h >> 8) % (std::uint64_t{1} << 30);
    }
  }
  if (s == shape::heavy_pivot) {
    for (std::uint64_t j = 0; j < 3; ++j) {
      k[j * (n / 3)] = 1 + j;
      k[j * (n / 3) + 1] = (std::uint64_t{1} << 31) + 1 + j;
    }
  }
  return k;
}

template <typename Rec>
Rec make_rec(std::uint64_t k, std::size_t i) {
  if constexpr (std::is_same_v<Rec, std::string>) {
    // URL-shaped; fixed-width hex keeps the string order the key order.
    constexpr char hexd[] = "0123456789abcdef";
    std::string url = "https://";
    for (int sh = 60; sh >= 0; sh -= 4) url += hexd[(k >> sh) & 0xF];
    return url + ".example.com/item";
  } else if constexpr (std::is_same_v<Rec, tkv<u128>>) {
    // Equal 64-bit keys stay equal; word 1 is not in word-0 order.
    return {(static_cast<u128>(k) << 64) | par::hash64(k),
            static_cast<std::uint32_t>(i)};
  } else {
    return {static_cast<decltype(Rec::key)>(k),
            static_cast<decltype(Rec::value)>(i)};
  }
}

template <typename Rec>
auto rec_less() {
  if constexpr (std::is_same_v<Rec, std::string>) {
    return std::less<std::string>{};
  } else {
    return [](const Rec& a, const Rec& b) { return a.key < b.key; };
  }
}

// Order-independent fingerprint of the whole array: equal multisets of
// records give equal fingerprints.
template <typename Rec>
std::uint64_t fingerprint(const std::vector<Rec>& v) {
  std::uint64_t f = 0;
  for (const Rec& r : v) {
    if constexpr (std::is_same_v<Rec, std::string>) {
      f += par::hash64(std::hash<std::string>{}(r));
    } else {
      std::uint64_t h = par::hash64(static_cast<std::uint64_t>(r.key) ^
                                    par::hash64(r.value));
      if constexpr (sizeof(r.key) > 8)
        h = par::hash64(h ^ static_cast<std::uint64_t>(r.key >> 64));
      f += h;
    }
  }
  return f;
}

// A key functor that counts the reads of each slot of `base`. The step
// reads every record once and then only its candidates, while every other
// path reads each slot at least twice (the min/max scan, then a count or
// distribution pass) or prunes nothing (a segment tied on its word).
template <typename Rec>
struct counted_key {
  const Rec* base;
  std::uint32_t* reads;
  std::size_t n;
  auto operator()(const Rec& r) const {
    const std::size_t at = (reinterpret_cast<std::uintptr_t>(&r) -
                            reinterpret_cast<std::uintptr_t>(base)) /
                           sizeof(Rec);
    if (at < n)
      std::atomic_ref<std::uint32_t>(reads[at]).fetch_add(
          1, std::memory_order_relaxed);
    return r.key;
  }
};

// One query of the sweep: top_k on either side, or nth_element (at n - 2).
struct threshold_query {
  enum { smallest, largest, nth } kind;
  std::size_t k;
  // How far the window reaches into the array from its nearer end.
  [[nodiscard]] std::size_t reach() const { return kind == nth ? 2 : k; }
};

// Runs `q` on a copy of `input`. Returns the array and, for records whose
// key reads can be counted, whether the threshold step ran.
template <typename Rec>
std::pair<std::vector<Rec>, bool> run_threshold_query(
    const std::vector<Rec>& input, const threshold_query& q) {
  const std::size_t n = input.size();
  std::vector<Rec> v = input;
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  const auto query = [&](const auto& key) {
    switch (q.kind) {
      case threshold_query::smallest:
        top_k(std::span<Rec>(v), q.k, key, rank_side::smallest, opt);
        break;
      case threshold_query::largest:
        top_k(std::span<Rec>(v), q.k, key, rank_side::largest, opt);
        break;
      case threshold_query::nth:
        dovetail::nth_element(std::span<Rec>(v), n - 2, key, opt);
        break;
    }
  };
  if constexpr (std::is_same_v<Rec, std::string>) {
    query([](const std::string& s) -> const std::string& { return s; });
    return {std::move(v), false};
  } else {
    std::vector<std::uint32_t> reads(n, 0);
    query(counted_key<Rec>{v.data(), reads.data(), n});
    const bool read_once =
        std::find(reads.begin(), reads.end(), 1u) != reads.end();
    return {std::move(v), read_once && st.records_pruned.load() > 0};
  }
}

// The sweep for one record type. Every query's window must be the stable
// sort's slice at 1 and 4 workers, and the array a permutation of the
// input. Where the step ran, the whole array must be the same at pool
// sizes 1-4. String keys take the encode-once route, whose key functor
// runs once per record before any selection, so for them the test cannot
// see which path ran and checks the windows and the permutation only.
template <typename Rec>
void check_threshold_select(std::size_t n) {
  constexpr bool countable = !std::is_same_v<Rec, std::string>;
  worker_count_guard guard;
  const auto less = rec_less<Rec>();
  std::vector<threshold_query> queries;
  for (const std::size_t k : {std::size_t{1}, std::size_t{64}, n / 64,
                              n / 64 + 1}) {
    queries.push_back({threshold_query::smallest, k});
    queries.push_back({threshold_query::largest, k});
  }
  queries.push_back({threshold_query::nth, 1});
  for (const shape s : kShapes) {
    const std::vector<std::uint64_t> keys = shape_keys(s, n);
    std::vector<Rec> input(n);
    for (std::size_t i = 0; i < n; ++i) input[i] = make_rec<Rec>(keys[i], i);
    const auto ref = stable_ref(input, less);
    const std::uint64_t fp = fingerprint(input);
    for (const threshold_query& q : queries) {
      const bool expect_step = takes_threshold(s, n, q.reach());
      std::vector<Rec> first;
      for (const int p : {1, 4, 2, 3}) {
        if (p < 4 && p > 1 && !(countable && expect_step)) continue;
        par::scheduler::set_num_workers(p);
        const auto [v, stepped] = run_threshold_query(input, q);
        const std::string what = std::string(shape_name(s)) +
                                 " n=" + std::to_string(n) +
                                 " kind=" + std::to_string(q.kind) +
                                 " k=" + std::to_string(q.k) +
                                 " p=" + std::to_string(p);
        const std::size_t lo = q.kind == threshold_query::smallest ? 0
                               : q.kind == threshold_query::largest
                                   ? n - q.k
                                   : n - 2;
        const std::size_t hi = q.kind == threshold_query::largest ? n
                               : q.kind == threshold_query::nth ? n - 1
                                                                : q.k;
        for (std::size_t i = lo; i < hi; ++i)
          ASSERT_TRUE(v[i] == ref[i]) << what << " i=" << i;
        ASSERT_EQ(fingerprint(v), fp) << what << ": not a permutation";
        if constexpr (countable) {
          ASSERT_EQ(stepped, expect_step) << what;
          if (stepped) {
            if (p == 1)
              first = v;
            else
              ASSERT_TRUE(v == first) << what << ": differs from p=1";
          }
        }
      }
    }
  }
}

}  // namespace

TEST(OrderStats, ThresholdSelectKv32) {
  for (const std::size_t n :
       {detail::kCarveMin - 1, detail::kCarveMin, std::size_t{100000},
        (std::size_t{1} << 19) + 1})
    check_threshold_select<kv32>(n);
}

TEST(OrderStats, ThresholdSelectKv64) {
  for (const std::size_t n :
       {detail::kCarveMin - 1, detail::kCarveMin, std::size_t{100000},
        (std::size_t{1} << 19) + 1})
    check_threshold_select<kv64>(n);
}

TEST(OrderStats, ThresholdSelectU128) {
  for (const std::size_t n :
       {detail::kCarveMin - 1, detail::kCarveMin, std::size_t{100000},
        (std::size_t{1} << 19) + 1})
    check_threshold_select<tkv<u128>>(n);
}

TEST(OrderStats, ThresholdSelectUrlStrings) {
  for (const std::size_t n :
       {detail::kCarveMin - 1, detail::kCarveMin, std::size_t{100000},
        (std::size_t{1} << 19) + 1})
    check_threshold_select<std::string>(n);
}

TEST(OrderStats, ThresholdSelectThrowingKeyLeavesDataUnchanged) {
  // The key throws halfway through the threshold step's read pass (after
  // the sample's reads): nothing has been written to the array yet.
  worker_count_guard guard;
  const std::size_t n = 100000;
  const auto input = gen::generate_records<kv64>(
      {gen::dist_kind::uniform, 1e9, "u"}, n, 85);
  const auto ref = stable_ref(input, [](const kv64& a, const kv64& b) {
    return a.key < b.key;
  });
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  for (const int p : {1, 4}) {
    par::scheduler::set_num_workers(p);
    auto v = input;
    std::atomic<std::size_t> calls{0};
    const std::size_t throw_at = detail::kThresholdSamples + n / 2;
    const auto flaky = [&](const kv64& r) {
      if (calls.fetch_add(1, std::memory_order_relaxed) + 1 == throw_at)
        throw std::runtime_error("key");
      return r.key;
    };
    EXPECT_THROW(top_k(std::span<kv64>(v), 100, flaky, rank_side::smallest,
                       opt),
                 std::runtime_error)
        << "p=" << p;
    EXPECT_TRUE(v == input) << "p=" << p;
    const auto out =
        top_k(std::span<kv64>(v), 100, key_of_kv64, rank_side::smallest, opt);
    for (std::size_t i = 0; i < 100; ++i)
      ASSERT_TRUE(out[i] == ref[i]) << "p=" << p << " i=" << i;
  }
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
