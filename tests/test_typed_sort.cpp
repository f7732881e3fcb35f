// The typed front door (core/auto_sort.hpp + core/key_codec.hpp):
//   * dovetail::sort cross-checked against std::stable_sort (encoded-key
//     comparator, exact record equality) for int32_t, int64_t, float,
//     double and pair<uint32_t, uint32_t> keys — the acceptance matrix —
//     over duplicate-heavy distributions with edge values injected, across
//     sizes that exercise every dispatch branch;
//   * plain typed spans, including std::pair elements (the non-trivially-
//     copyable encode-once path) and NaN-bearing float spans;
//   * sort_by_key: stability, SoA key/value agreement with the equivalent
//     AoS sort, size-mismatch error;
//   * rank: exactly the stable permutation, input never mutated;
//   * warm-workspace reuse: repeated sort / sort_by_key / rank through one
//     workspace reach a zero-fresh-allocation steady state (the
//     test_workspace.cpp property, extended to the new entry points);
//   * codec kind and encoded width as compile-time key traits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

namespace {

template <typename K>
std::uint64_t enc(const K& k) {
  return static_cast<std::uint64_t>(key_codec<K>::encode(k));
}

// The stable reference: std::stable_sort by the encoded key (NaN-safe,
// -0.0/-+0.0 ordered like the kernels order them).
template <typename T>
std::vector<tkv<T>> stable_reference(std::vector<tkv<T>> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const tkv<T>& a, const tkv<T>& b) {
                     return enc(a.key) < enc(b.key);
                   });
  return v;
}

template <typename T>
void expect_exact(const std::vector<tkv<T>>& got,
                  const std::vector<tkv<T>>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(enc(got[i].key), enc(ref[i].key)) << "key at " << i;
    ASSERT_EQ(got[i].value, ref[i].value) << "stability at " << i;
  }
}

// Typed edge values worth injecting into every run.
template <typename T>
std::vector<T> edge_keys() {
  if constexpr (std::is_integral_v<T>) {
    return {std::numeric_limits<T>::min(), T(-1), T(0), T(1),
            std::numeric_limits<T>::max()};
  } else {
    return {-std::numeric_limits<T>::infinity(),
            std::numeric_limits<T>::lowest(), T(-0.0), T(0.0),
            std::numeric_limits<T>::denorm_min(),
            std::numeric_limits<T>::infinity()};
  }
}

template <typename T>
std::vector<tkv<T>> typed_input(const gen::distribution& d, std::size_t n,
                                std::uint64_t seed) {
  auto v = gen::generate_typed_records<T>(d, n, seed);
  // Splice the edge values in at deterministic positions (values stay the
  // index so the stability witness is intact).
  const auto edges = edge_keys<T>();
  for (std::size_t j = 0; j < edges.size() && j < v.size(); ++j)
    v[(j * 977) % v.size()].key = edges[j];
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Acceptance matrix: sort on every required key type, every dispatch size.

template <typename T>
void acceptance_sweep() {
  const gen::distribution dists[] = {
      {gen::dist_kind::uniform, 1e7, "Unif-1e7"},
      {gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
      {gen::dist_kind::uniform, 10, "Unif-10"},
  };
  // 300 stays under the serial threshold; 3000 and 60000 cross it and give
  // the radix kernels room.
  for (const std::size_t n : {std::size_t{300}, std::size_t{3000},
                              std::size_t{60000}}) {
    for (const auto& d : dists) {
      auto v = typed_input<T>(d, n, 42);
      const auto ref = stable_reference(v);
      sort(std::span<tkv<T>>(v), key_of_tkv<T>);
      expect_exact(v, ref);
    }
  }
  // Presorted and reverse-sorted typed inputs keep the cheap branches
  // working through the codec (encoded order == key order).
  auto asc = typed_input<T>(dists[0], 20000, 7);
  std::stable_sort(asc.begin(), asc.end(),
                   [](const tkv<T>& a, const tkv<T>& b) {
                     return enc(a.key) < enc(b.key);
                   });
  for (std::size_t i = 0; i < asc.size(); ++i)
    asc[i].value = static_cast<std::uint32_t>(i);
  auto asc_ref = asc;
  EXPECT_EQ(sort(std::span<tkv<T>>(asc), key_of_tkv<T>),
            sort_kernel::run_merge);
  expect_exact(asc, asc_ref);
}

TEST(TypedSortAcceptance, Int32) { acceptance_sweep<std::int32_t>(); }
TEST(TypedSortAcceptance, Int64) { acceptance_sweep<std::int64_t>(); }
TEST(TypedSortAcceptance, Float) { acceptance_sweep<float>(); }
TEST(TypedSortAcceptance, Double) { acceptance_sweep<double>(); }

TEST(TypedSortAcceptance, PairU32U32) {
  using P = std::pair<std::uint32_t, std::uint32_t>;
  // Records whose key FUNCTION returns a pair (trivially copyable record,
  // fused path)...
  struct edge {
    std::uint32_t dst, src, idx;
  };
  const auto key = [](const edge& e) { return P{e.dst, e.src}; };
  std::vector<edge> edges(50000);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i] = {static_cast<std::uint32_t>(par::rand_range(3, i, 500)),
                static_cast<std::uint32_t>(par::rand_range(5, i, 500)),
                static_cast<std::uint32_t>(i)};
  auto ref = edges;
  std::stable_sort(ref.begin(), ref.end(), [&](const edge& a, const edge& b) {
    return key(a) < key(b);
  });
  sort(std::span<edge>(edges), key);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(edges[i].dst, ref[i].dst);
    ASSERT_EQ(edges[i].src, ref[i].src);
    ASSERT_EQ(edges[i].idx, ref[i].idx);  // stability
  }
  // ...and a plain span of pairs. Under libstdc++ std::pair is not
  // trivially copyable, so this takes the encode-once + gather path; a
  // stdlib with trivially-copyable pairs may fuse instead — the non-TC
  // path is covered deterministically by NonTriviallyCopyableRecords
  // below, which does not depend on the stdlib.
  auto pairs = gen::generate_typed_keys<P>(
      {gen::dist_kind::zipfian, 1.1, "Zipf-1.1"}, 40000, 11);
  auto pref = pairs;
  std::stable_sort(pref.begin(), pref.end());
  sort(std::span<P>(pairs));
  EXPECT_EQ(pairs, pref);
}

TEST(TypedSortAcceptance, NonTriviallyCopyableRecords) {
  // Guaranteed non-trivially-copyable on every stdlib (std::string
  // member), with an UNSIGNED key: the front door must route this to the
  // encode-once + gather path (scratch_array's vector branch +
  // write_back's move branch) instead of tripping the radix kernels'
  // trivially-copyable static_assert.
  struct named {
    std::uint32_t id;
    std::string name;
  };
  static_assert(!std::is_trivially_copyable_v<named>);
  std::vector<named> v(20000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(par::rand_range(7, i, 300)),
            std::to_string(i)};
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const named& a, const named& b) { return a.id < b.id; });
  sort(std::span<named>(v), [](const named& r) { return r.id; });
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].id, ref[i].id) << i;
    ASSERT_EQ(v[i].name, ref[i].name) << i;  // stability, payload intact
  }
  // A float key on the same shape exercises the non-identity codec on
  // the same route.
  std::vector<named> w(5000);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = {static_cast<std::uint32_t>(i), std::to_string(i % 40)};
  sort(std::span<named>(w),
       [](const named& r) { return -static_cast<float>(r.name.size()); });
  for (std::size_t i = 1; i < w.size(); ++i)
    ASSERT_LE(w[i].name.size(), w[i - 1].name.size());
}

TEST(TypedSort, PlainSpansAndNanPolicy) {
  auto ints = gen::generate_typed_keys<std::int64_t>(
      {gen::dist_kind::exponential, 7, "Exp-7"}, 30000, 3);
  auto iref = ints;
  std::stable_sort(iref.begin(), iref.end());
  sort(std::span<std::int64_t>(ints));
  EXPECT_EQ(ints, iref);

  // Floats with NaNs of both signs: sorted by the documented total order,
  // bit patterns preserved.
  std::vector<float> f = gen::generate_typed_keys<float>(
      {gen::dist_kind::uniform, 1e5, "Unif-1e5"}, 20000, 5);
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = 0; i < f.size(); i += 97) f[i] = i % 2 ? qnan : -qnan;
  std::vector<std::uint32_t> eref(f.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    eref[i] = key_codec<float>::encode(f[i]);
  std::sort(eref.begin(), eref.end());
  sort(std::span<float>(f));
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_EQ(key_codec<float>::encode(f[i]), eref[i]) << i;
  // Negative NaNs landed first, positive NaNs last.
  EXPECT_TRUE(std::isnan(f.front()));
  EXPECT_TRUE(std::isnan(f.back()));
  EXPECT_TRUE(std::signbit(f.front()));
  EXPECT_FALSE(std::signbit(f.back()));
}

TEST(TypedSort, EmptyAndSingle) {
  std::vector<float> e;
  EXPECT_NO_THROW(sort(std::span<float>(e)));
  std::vector<std::int32_t> one{-5};
  sort(std::span<std::int32_t>(one));
  EXPECT_EQ(one[0], -5);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> p1{{3, 4}};
  sort(std::span<std::pair<std::uint32_t, std::uint32_t>>(p1));
  EXPECT_EQ(p1[0].first, 3u);
  EXPECT_TRUE(rank(std::span<const float>(e)).empty());
  std::vector<row28> v0;
  std::vector<std::uint32_t> k0;
  EXPECT_NO_THROW(sort_by_key(std::span<std::uint32_t>(k0),
                              std::span<row28>(v0)));
}

// ---------------------------------------------------------------------------
// sort_by_key.

TEST(SortByKey, StableAndMatchesAoS) {
  const std::size_t n = 60000;
  const auto aos = gen::generate_records<kv32w>(
      {gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, n, 9);
  // Split SoA: keys + 28-byte rows (value = input index).
  std::vector<std::uint32_t> keys(n);
  std::vector<row28> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = aos[i].key;
    rows[i].value = aos[i].value;
    for (int j = 0; j < 6; ++j) rows[i].payload[j] = aos[i].payload[j];
  }
  auto ref = aos;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const kv32w& a, const kv32w& b) {
                     return a.key < b.key;
                   });
  sort_by_key(std::span<std::uint32_t>(keys), std::span<row28>(rows));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], ref[i].key) << i;
    ASSERT_EQ(rows[i].value, ref[i].value) << i;  // stability + pairing
    for (int j = 0; j < 6; ++j)
      ASSERT_EQ(rows[i].payload[j], ref[i].payload[j]);
  }
}

TEST(SortByKey, TypedKeysAndOddValueTypes) {
  // float keys carrying std::vector values (non-trivially-copyable V).
  const std::size_t n = 5000;
  auto keys = gen::generate_typed_keys<float>(
      {gen::dist_kind::uniform, 50, "Unif-50"}, n, 13);
  std::vector<std::vector<int>> vals(n);
  for (std::size_t i = 0; i < n; ++i)
    vals[i] = {static_cast<int>(i), static_cast<int>(i) * 2};
  auto kref = keys;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key_codec<float>::encode(kref[a]) <
                            key_codec<float>::encode(kref[b]);
                   });
  sort_by_key(std::span<float>(keys), std::span<std::vector<int>>(vals));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], kref[order[i]]);
    ASSERT_EQ(vals[i][0], static_cast<int>(order[i]));  // stable pairing
  }
}

TEST(SortByKey, SizeMismatchThrows) {
  std::vector<std::uint32_t> k(4);
  std::vector<std::uint32_t> v(5);
  EXPECT_THROW(sort_by_key(std::span<std::uint32_t>(k),
                           std::span<std::uint32_t>(v)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// rank.

TEST(Rank, ExactStablePermutationWithoutMutation) {
  const std::size_t n = 50000;
  const auto input = gen::generate_records<kv32>(
      {gen::dist_kind::zipfian, 1.3, "Zipf-1.3"}, n, 21);
  const auto snapshot = input;
  // The reference permutation via std::stable_sort over indices.
  std::vector<index_t> ref(n);
  std::iota(ref.begin(), ref.end(), index_t{0});
  std::stable_sort(ref.begin(), ref.end(), [&](index_t a, index_t b) {
    return input[a].key < input[b].key;
  });
  const auto got =
      rank(std::span<const kv32>(input), key_of_kv32);
  ASSERT_EQ(got, ref);
  // Input untouched, bit for bit.
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(input[i], snapshot[i]);
}

TEST(Rank, TypedKeysAndWideEncodings) {
  // double keys (64-bit encodings => wide pair records internally).
  const auto recs = gen::generate_typed_records<double>(
      {gen::dist_kind::exponential, 5, "Exp-5"}, 30000, 17);
  std::vector<index_t> ref(recs.size());
  std::iota(ref.begin(), ref.end(), index_t{0});
  std::stable_sort(ref.begin(), ref.end(), [&](index_t a, index_t b) {
    return key_codec<double>::encode(recs[a].key) <
           key_codec<double>::encode(recs[b].key);
  });
  EXPECT_EQ(rank(std::span<const tkv<double>>(recs), key_of_tkv<double>),
            ref);
  // Applying the rank of a plain span sorts it.
  auto keys = gen::generate_typed_keys<std::int32_t>(
      {gen::dist_kind::uniform, 1e3, "Unif-1e3"}, 20000, 19);
  const auto r = rank(std::span<const std::int32_t>(keys));
  std::vector<std::int32_t> gathered(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) gathered[i] = keys[r[i]];
  EXPECT_TRUE(std::is_sorted(gathered.begin(), gathered.end()));
}

// ---------------------------------------------------------------------------
// Warm-workspace reuse: the zero-fresh-allocation steady state of
// test_workspace.cpp, extended to the new entry points.

template <typename RunFn>
void expect_zero_alloc_steady_state(sort_stats& st, const RunFn& run) {
  int zero_streak = 0;
  std::uint64_t reuses_at_streak_start = 0;
  for (int iter = 0; iter < 25 && zero_streak < 5; ++iter) {
    const std::uint64_t before = st.workspace_allocations.load();
    if (zero_streak == 0) reuses_at_streak_start = st.workspace_reuses.load();
    run();
    zero_streak =
        st.workspace_allocations.load() == before ? zero_streak + 1 : 0;
  }
  EXPECT_EQ(zero_streak, 5) << "no zero-allocation steady state in 25 runs";
  EXPECT_GT(st.workspace_reuses.load(), reuses_at_streak_start);
}

TEST(TypedWorkspace, SortByKeyZeroAllocAfterWarmup) {
  const std::size_t n = 100000;
  const auto base_keys = gen::generate_typed_keys<std::int32_t>(
      {gen::dist_kind::zipfian, 1.1, "Zipf-1.1"}, n, 23);
  std::vector<row28> base_rows(n);
  for (std::size_t i = 0; i < n; ++i)
    base_rows[i].value = static_cast<std::uint32_t>(i);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  expect_zero_alloc_steady_state(st, [&] {
    auto k = base_keys;
    auto v = base_rows;
    sort_by_key(std::span<std::int32_t>(k), std::span<row28>(v), opt);
    ASSERT_TRUE(std::is_sorted(k.begin(), k.end()));
  });
}

TEST(TypedWorkspace, RankAndFusedSortZeroAllocAfterWarmup) {
  const std::size_t n = 100000;
  const auto recs = gen::generate_typed_records<double>(
      {gen::dist_kind::uniform, 1e5, "Unif-1e5"}, n, 29);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  // rank: the returned vector is the only per-call allocation; none of it
  // comes from the workspace.
  expect_zero_alloc_steady_state(st, [&] {
    const auto r = rank(std::span<const tkv<double>>(recs),
                        key_of_tkv<double>, opt);
    ASSERT_EQ(r.size(), n);
  });
  // Fused typed sort reuses the same arena.
  expect_zero_alloc_steady_state(st, [&] {
    auto v = recs;
    sort(std::span<tkv<double>>(v), key_of_tkv<double>, opt);
  });
}

// ---------------------------------------------------------------------------
// Codec facts are compile-time traits of the key type.

TEST(TypedCodec, KindAndWidthKnownAtCompileTime) {
  static_assert(wide_key_traits<float>::kind == codec_kind::float_total_order);
  static_assert(wide_key_traits<float>::encoded_bits == 32);
  static_assert(wide_key_traits<std::int64_t>::kind == codec_kind::sign_flip);
  static_assert(wide_key_traits<std::int64_t>::encoded_bits == 64);
  static_assert(wide_key_traits<std::uint32_t>::kind == codec_kind::identity);
  EXPECT_STREQ(codec_kind_name(codec_kind::composite), "composite");
}
