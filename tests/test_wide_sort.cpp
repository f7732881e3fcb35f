// Wide (multi-word) key engine tests — the codec word contracts of
// key_codec.hpp and the segmented-MSD refine driver of wide_sort.hpp
// through every public entry point:
//   * codec contract — word sequences order lexicographically iff the keys
//     order (pair<u64,u64>, __uint128_t, __int128, >64-bit tuples with a
//     word-straddling component), and the string prefix codec is an
//     order-preserving coarsening with big-endian bytes;
//   * sort correctness — record-exact vs std::stable_sort across all
//     dispatch sizes (0..50k spans every front-door branch) and across
//     segment shapes: all-equal word 0, all-distinct word 0 (singleton
//     segments, zero refinement), heavy duplicates, equal-prefix strings
//     resolved beyond the materialized prefix (embedded NULs included;
//     the adversarial corpus battery lives in test_string_engine.cpp);
//   * stability — duplicate wide keys keep increasing witness values;
//   * sort_by_key / rank on wide keys;
//   * zero-alloc warm reuse — a second identical wide sort performs no
//     workspace allocation (fused u128/pair paths and the string pair
//     path's leases);
//   * the wide_segment_base_case policy knob routes big segments back
//     through the front door (exercised with a tiny base case).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;

using u128 = unsigned __int128;
using pair64 = std::pair<std::uint64_t, std::uint64_t>;

namespace {

std::uint64_t rnd(std::uint64_t i) {
  return par::hash64(i * 0x9E3779B9ull + 13);
}

// Lexicographic comparison of two keys' word sequences.
template <typename K>
bool words_less(const K& a, const K& b) {
  using WT = wide_key_traits<K>;
  for (std::size_t w = 0; w < WT::word_count; ++w) {
    const auto wa = WT::word(a, w);
    const auto wb = WT::word(b, w);
    if (wa != wb) return wa < wb;
  }
  return false;
}

template <typename K>
bool words_equal(const K& a, const K& b) {
  using WT = wide_key_traits<K>;
  for (std::size_t w = 0; w < WT::word_count; ++w)
    if (WT::word(a, w) != WT::word(b, w)) return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Static contract.

static_assert(!sortable_key<pair64>);         // no longer a static_assert trap
static_assert(wide_sortable_key<pair64>);     // ...but a wide codec instead
static_assert(any_sortable_key<pair64>);
static_assert(wide_sortable_key<u128>);
static_assert(wide_sortable_key<__int128>);
static_assert(wide_sortable_key<std::string>);
static_assert(wide_sortable_key<std::string_view>);
static_assert(!sortable_key<std::string>);
// Narrow composites keep the PR-4 single-word form untouched.
static_assert(sortable_key<std::pair<std::uint32_t, std::uint32_t>>);
static_assert(!wide_sortable_key<std::pair<std::uint32_t, std::uint32_t>>);
// Word counts / logical widths.
static_assert(wide_key_traits<pair64>::word_count == 2);
static_assert(wide_key_traits<pair64>::encoded_bits == 128);
static_assert(wide_key_traits<u128>::word_count == 2);
static_assert(
    wide_key_traits<std::tuple<std::uint64_t, std::uint64_t,
                               std::uint32_t>>::word_count == 3);
static_assert(
    wide_key_traits<std::tuple<std::uint64_t, std::uint64_t,
                               std::uint32_t>>::encoded_bits == 160);
// A 96-bit mixed composite: 2 words, the u64 component straddles nothing,
// the low 32 bits share word 1 with it.
static_assert(
    wide_key_traits<std::pair<std::uint64_t, std::int32_t>>::word_count ==
    2);
static_assert(
    wide_key_traits<std::pair<std::uint64_t, std::int32_t>>::encoded_bits ==
    96);
// Single-word keys present a one-word view.
static_assert(wide_key_traits<std::uint32_t>::word_count == 1);
static_assert(wide_key_traits<float>::exhaustive);
// Codec kinds and cheapness surface through the wide view.
static_assert(wide_key_traits<pair64>::kind == codec_kind::composite);
static_assert(wide_key_traits<u128>::kind == codec_kind::identity);
static_assert(wide_key_traits<__int128>::kind == codec_kind::sign_flip);
static_assert(wide_key_traits<std::string>::kind ==
              codec_kind::string_prefix);
static_assert(wide_key_traits<pair64>::cheap);
static_assert(wide_key_traits<std::string>::cheap);
// The string codec is the only non-exhaustive built-in.
static_assert(!wide_key_traits<std::string>::exhaustive);
static_assert(wide_key_traits<pair64>::exhaustive);
// Still rejected outright: key types with no codec at all.
static_assert(!any_sortable_key<std::vector<int>>);
// A composite with a prefix-coded (variable-length) component is the
// genuinely unencodable case and stays a COMPILE-TIME error with the
// "cannot be bit-concatenated" static_assert; verified manually:
//   g++ -std=c++20 -Isrc -fsyntax-only -x c++ - <<< \
//     '#include "dovetail/core/key_codec.hpp"
//      int main() { (void)dovetail::key_codec<std::pair<
//        std::string, std::uint64_t>>::encode_word({"a", 1}, 0); }'

// ---------------------------------------------------------------------------
// Codec word contracts.

TEST(WideKeyCodec, PairU64WordsMatchLexOrder) {
  const std::uint64_t edges[] = {0u, 1u, 0x7FFFFFFFFFFFFFFFull,
                                 0x8000000000000000ull,
                                 0xFFFFFFFFFFFFFFFFull};
  std::vector<pair64> keys;
  for (const auto a : edges)
    for (const auto b : edges) keys.push_back({a, b});
  for (std::uint64_t i = 0; i < 20000; ++i)
    keys.push_back({rnd(2 * i) & 0xFF, rnd(2 * i + 1)});
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    const pair64& a = keys[i];
    const pair64& b = keys[i + 1];
    ASSERT_EQ(a < b, words_less(a, b));
    ASSERT_EQ(a == b, words_equal(a, b));
  }
  // High word dominates; ties break on the low word.
  EXPECT_TRUE(words_less<pair64>({1, ~0ull}, {2, 0}));
  EXPECT_TRUE(words_less<pair64>({2, 3}, {2, 4}));
}

TEST(WideKeyCodec, U128AndI128Words) {
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const u128 a = (static_cast<u128>(rnd(4 * i)) << 64) | rnd(4 * i + 1);
    const u128 b = (static_cast<u128>(rnd(4 * i + 2) & 0x3) << 64) |
                   rnd(4 * i + 3);
    ASSERT_EQ(a < b, words_less(a, b));
    const auto sa = static_cast<__int128>(a);
    const auto sb = static_cast<__int128>(b);
    ASSERT_EQ(sa < sb, words_less(sa, sb));
    ASSERT_EQ(-sa < sb, words_less(-sa, sb));
  }
  // Sign-flip edges: INT128_MIN encodes below zero encodes below max.
  const __int128 lo = static_cast<__int128>(static_cast<u128>(1) << 127);
  const __int128 hi = static_cast<__int128>((static_cast<u128>(1) << 127) - 1);
  EXPECT_TRUE(words_less<__int128>(lo, __int128{0}));
  EXPECT_TRUE(words_less<__int128>(__int128{0}, hi));
  EXPECT_TRUE(words_less<__int128>(__int128{-1}, __int128{0}));
}

TEST(WideKeyCodec, WideTupleStraddlesWordBoundaries) {
  // 160-bit tuple: word 0 = top 32 bits (the u64 hi's upper half), words
  // 1-2 carry the straddled remainder. Compare against std::tuple's own
  // lexicographic order.
  using T = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const T a{rnd(6 * i), rnd(6 * i + 1),
              static_cast<std::uint32_t>(rnd(6 * i + 2))};
    const T b{rnd(6 * i + 3) & 0xFFFF, rnd(6 * i + 4),
              static_cast<std::uint32_t>(rnd(6 * i + 5))};
    ASSERT_EQ(a < b, words_less(a, b));
    ASSERT_EQ(a == b, words_equal(a, b));
  }
  // Signed component participates with its sign-flip encoding.
  using S = std::pair<std::uint64_t, std::int32_t>;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const S a{rnd(3 * i) & 0x7, static_cast<std::int32_t>(rnd(3 * i + 1))};
    const S b{rnd(3 * i + 2) & 0x7,
              static_cast<std::int32_t>(rnd(3 * i + 1) + i % 3)};
    ASSERT_EQ(a < b, words_less(a, b));
  }
}

TEST(WideKeyCodec, StringPrefixIsOrderPreservingCoarsening) {
  // 7+1 packing: 7 content bytes big-endian in the high 56 bits (first
  // byte most significant), min(7, remaining length) in the low byte.
  EXPECT_EQ(key_codec<std::string>::encode_word(std::string("ab"), 0),
            0x6162000000000002ull);
  // Word 1 starts at byte 7: "abcdefghi" has 'h','i' left, count 2.
  EXPECT_EQ(key_codec<std::string>::encode_word(std::string("abcdefghi"), 1),
            0x6869000000000002ull);
  EXPECT_EQ(key_codec<std::string>::encode_word(std::string("x"), 1), 0u);
  // Exactly 7 bytes fills the window: count saturates at 7 and the word
  // reports "continues" — the next window then shows count 0.
  const std::uint64_t full =
      key_codec<std::string>::encode_word(std::string("abcdefg"), 0);
  EXPECT_EQ(full, 0x6162636465666707ull);
  EXPECT_TRUE(key_codec<std::string>::word_continues(full));
  EXPECT_FALSE(key_codec<std::string>::word_continues(
      key_codec<std::string>::encode_word(std::string("abcdefg"), 0, 7)));
  // The offset form re-windows the key: offset 7 word 0 == offset 0 word 1.
  EXPECT_EQ(
      key_codec<std::string>::encode_word(std::string("abcdefghi"), 0, 7),
      key_codec<std::string>::encode_word(std::string("abcdefghi"), 1));
  // A string ending inside a window sorts below any extension: the count
  // byte breaks the padded-content tie ("abc" < "abc\0" in key order).
  EXPECT_LT(key_codec<std::string>::encode_word(std::string("abc"), 0),
            key_codec<std::string>::encode_word(std::string("abc\0", 4), 0));
  // s < t  =>  words(s) <= words(t), across lengths, NULs and prefixes.
  std::vector<std::string> pool = {"",      "a",    std::string("a\0", 2),
                                   "ab",    "abc",  "abcdefgh",
                                   "abcdefghi", "abcdefghijklmnop",
                                   "abcdefghijklmnopq", "b"};
  for (std::uint64_t i = 0; i < 5000; ++i)
    pool.push_back(gen::string_key_from(rnd(i)));
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (std::size_t j = i + 1; j < std::min(pool.size(), i + 40); ++j) {
      const auto& s = pool[i];
      const auto& t = pool[j];
      if (s < t)
        ASSERT_FALSE(words_less(t, s)) << "'" << s << "' vs '" << t << "'";
      else if (t < s)
        ASSERT_FALSE(words_less(s, t)) << "'" << s << "' vs '" << t << "'";
    }
}

// ---------------------------------------------------------------------------
// Sort correctness: record-exact vs std::stable_sort.

namespace {

template <typename K>
void expect_matches_stable_sort(std::vector<tkv<K>> v,
                                const auto_sort_options& opt) {
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const tkv<K>& a, const tkv<K>& b) {
                     return a.key < b.key;
                   });
  dovetail::sort(std::span<tkv<K>>(v), key_of_tkv<K>, opt);
  ASSERT_EQ(v.size(), ref.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_TRUE(v[i].key == ref[i].key) << "key differs at " << i;
    ASSERT_EQ(v[i].value, ref[i].value) << "stability broken at " << i;
  }
}

const std::size_t kDispatchSizes[] = {0,   1,    2,    5,     100,
                                      511, 513,  4096, 20000, 50000};

}  // namespace

TEST(WideSort, U128AllDispatchSizesAndShapes) {
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const gen::distribution d{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
  for (const std::size_t n : kDispatchSizes) {
    for (const int hi_bits : {0, 8, 64}) {
      expect_matches_stable_sort<u128>(
          gen::generate_wide_records<u128>(d, n, 1, hi_bits), opt);
    }
  }
}

TEST(WideSort, PairU64AllDispatchSizesAndShapes) {
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const gen::distribution d{gen::dist_kind::uniform, 1e5, "Unif-1e5"};
  for (const std::size_t n : kDispatchSizes) {
    for (const int hi_bits : {0, 8, 64}) {
      expect_matches_stable_sort<pair64>(
          gen::generate_wide_records<pair64>(d, n, 2, hi_bits), opt);
    }
  }
}

TEST(WideSort, HeavyDuplicatesAndAllEqual) {
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  // 3 distinct keys over 40k records (heavy-duplicate regime at word 0).
  std::vector<tkv<u128>> v(40000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i].key = gen::wide_key_from<u128>(rnd(i) % 3, 64);
    v[i].value = static_cast<std::uint32_t>(i);
  }
  expect_matches_stable_sort<u128>(v, opt);
  // All keys fully equal: the sort must be the identity permutation.
  std::vector<tkv<u128>> eq(10000);
  for (std::size_t i = 0; i < eq.size(); ++i) {
    eq[i].key = (static_cast<u128>(42) << 64) | 7;
    eq[i].value = static_cast<std::uint32_t>(i);
  }
  sort_stats st;
  opt.stats = &st;
  dovetail::sort(std::span<tkv<u128>>(eq), key_of_tkv<u128>, opt);
  for (std::size_t i = 0; i < eq.size(); ++i)
    ASSERT_EQ(eq[i].value, i);
  opt.stats = nullptr;
}

TEST(WideSort, RefineStatsReflectSegmentStructure) {
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  // All-distinct word 0 (hi_bits = 64 over an effectively duplicate-free
  // stream — Unif-1e7 would produce ~125 birthday-coincident full keys at
  // this n, and duplicate keys legitimately form equal-word segments):
  // singleton segments only, so the word-0 pass finishes the sort with
  // zero refinement.
  const gen::distribution d{gen::dist_kind::uniform, 1e15, "Unif-1e15"};
  auto v = gen::generate_wide_records<u128>(d, 50000, 3, 64);
  dovetail::sort(std::span<tkv<u128>>(v), key_of_tkv<u128>, opt);
  EXPECT_EQ(st.refine_rounds.load(), 0u);
  EXPECT_EQ(st.wide_segments.load(), 0u);
  // All-equal word 0 (hi_bits = 0): exactly one top-level segment, one
  // refine round on the low word. The word-0 pass sees a constant key —
  // the run-merge kernel — and chosen_kernel must agree with the kernel
  // dovetail::sort RETURNS (the root dispatch), not with whatever the
  // refined segment's own dispatch chose.
  v = gen::generate_wide_records<u128>(d, 50000, 4, 0);
  const sort_kernel k =
      dovetail::sort(std::span<tkv<u128>>(v), key_of_tkv<u128>, opt);
  EXPECT_EQ(st.refine_rounds.load(), 1u);
  EXPECT_EQ(st.wide_segments.load(), 1u);
  EXPECT_EQ(st.codec_encoded_bits.load(), 128u);
  EXPECT_EQ(st.codec_kind_id.load(),
            1 + static_cast<std::uint64_t>(codec_kind::identity));
  EXPECT_EQ(st.entry_point.load(),
            1 + static_cast<std::uint64_t>(sort_entry::sort));
  EXPECT_EQ(k, sort_kernel::run_merge);
  ASSERT_TRUE(chosen_kernel_of(st).has_value());
  EXPECT_EQ(*chosen_kernel_of(st), k);
}

TEST(WideSort, TinyBaseCaseForcesFrontDoorRefinement) {
  // Shrink the comparison-sort base case so equal-prefix segments go back
  // through the radix front door even at test sizes.
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  opt.policy.wide_segment_base_case = 64;
  const gen::distribution d{gen::dist_kind::exponential, 7, "Exp-7"};
  for (const int hi_bits : {0, 4}) {
    expect_matches_stable_sort<u128>(
        gen::generate_wide_records<u128>(d, 30000, 5, hi_bits), opt);
  }
  EXPECT_GE(st.refine_rounds.load(), 1u);
}

TEST(WideSort, StringsFullLexicographicOrder) {
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const gen::distribution d{gen::dist_kind::zipfian, 1.0, "Zipf-1"};
  for (const std::size_t n : kDispatchSizes) {
    auto s = gen::generate_string_keys(d, n, 6);
    auto ref = s;
    std::stable_sort(ref.begin(), ref.end());
    dovetail::sort(std::span<std::string>(s), opt);
    ASSERT_EQ(s, ref) << "n=" << n;
  }
}

TEST(WideSort, StringEdgeCasesBeyondPrefix) {
  // Ties on the whole materialized prefix (14 content bytes) resolved
  // beyond it, embedded NULs, strict prefixes, and lengths straddling the
  // word boundary.
  std::vector<std::string> s = {
      "", "a", std::string("a\0", 2), std::string("a\0b", 3),
      "aaaaaaaaaaaaaa",        // exactly the materialized window
      "aaaaaaaaaaaaaaaa",      // two bytes past it
      "aaaaaaaaaaaaaaaaX",     // beyond-prefix difference...
      "aaaaaaaaaaaaaaaaA",     // ...in both directions
      "aaaaaaaaaaaaaa" + std::string("\0", 1),  // NUL just past the window
      "aaaaaaab", "aaaaaaa", "zzzz",
  };
  // Replicate with witness duplicates and shuffle deterministically.
  std::vector<std::string> v;
  for (int rep = 0; rep < 50; ++rep)
    for (const auto& x : s) v.push_back(x);
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rnd(i) % i]);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end());
  dovetail::sort(std::span<std::string>(v));
  ASSERT_EQ(v, ref);
}

TEST(WideSort, StringStabilityViaRank) {
  // Stability on strings is only observable through rank: equal keys must
  // keep increasing input indices.
  const gen::distribution d{gen::dist_kind::uniform, 100, "Unif-100"};
  const auto s = gen::generate_string_keys(d, 20000, 7, 4);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const auto perm = dovetail::rank(
      std::span<const std::string>(s.data(), s.size()), opt);
  std::vector<index_t> ref(s.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = i;
  std::stable_sort(ref.begin(), ref.end(),
                   [&](index_t a, index_t b) { return s[a] < s[b]; });
  ASSERT_EQ(perm, ref);
}

// ---------------------------------------------------------------------------
// SoA + argsort entry points.

TEST(WideSort, SortByKeyU128AndStrings) {
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  const gen::distribution d{gen::dist_kind::exponential, 5, "Exp-5"};
  {
    auto recs = gen::generate_wide_records<u128>(d, 30000, 8, 8);
    std::vector<u128> keys(recs.size());
    std::vector<std::uint32_t> vals(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      keys[i] = recs[i].key;
      vals[i] = static_cast<std::uint32_t>(i);
    }
    auto ref = recs;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const tkv<u128>& a, const tkv<u128>& b) {
                       return a.key < b.key;
                     });
    dovetail::sort_by_key(std::span<u128>(keys),
                          std::span<std::uint32_t>(vals), opt);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(keys[i] == ref[i].key);
      ASSERT_EQ(vals[i], ref[i].value);
    }
    EXPECT_EQ(st.entry_point.load(),
              1 + static_cast<std::uint64_t>(sort_entry::sort_by_key));
  }
  {
    auto keys = gen::generate_string_keys(d, 20000, 9);
    std::vector<std::uint32_t> vals(keys.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals[i] = static_cast<std::uint32_t>(i);
    std::vector<index_t> perm(keys.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](index_t a, index_t b) {
      return keys[a] < keys[b];
    });
    auto kref = keys;
    dovetail::sort_by_key(std::span<std::string>(keys),
                          std::span<std::uint32_t>(vals), opt);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(keys[i], kref[perm[i]]);
      ASSERT_EQ(vals[i], static_cast<std::uint32_t>(perm[i]));
    }
  }
}

TEST(WideSort, RankDoesNotMutateAndMatchesStableSort) {
  const gen::distribution d{gen::dist_kind::zipfian, 1.5, "Zipf-1.5"};
  const auto recs = gen::generate_wide_records<pair64>(d, 30000, 10, 8);
  const auto copy = recs;
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const auto perm = dovetail::rank(
      std::span<const tkv<pair64>>(recs.data(), recs.size()),
      key_of_tkv<pair64>, opt);
  ASSERT_EQ(recs.size(), copy.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    ASSERT_TRUE(recs[i].key == copy[i].key && recs[i].value == copy[i].value);
  std::vector<index_t> ref(recs.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = i;
  std::stable_sort(ref.begin(), ref.end(), [&](index_t a, index_t b) {
    return recs[a].key < recs[b].key;
  });
  ASSERT_EQ(perm, ref);
}

// ---------------------------------------------------------------------------
// Workspace discipline.

TEST(WideSort, ZeroAllocWarmReuse) {
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  const gen::distribution d{gen::dist_kind::uniform, 1e5, "Unif-1e5"};
  const auto pristine = gen::generate_wide_records<u128>(d, 60000, 11, 8);
  auto v = pristine;
  dovetail::sort(std::span<tkv<u128>>(v), key_of_tkv<u128>, opt);  // warm-up
  const std::uint64_t a0 = st.workspace_allocations.load();
  v = pristine;
  dovetail::sort(std::span<tkv<u128>>(v), key_of_tkv<u128>, opt);
  EXPECT_EQ(st.workspace_allocations.load(), a0)
      << "warm wide sort allocated from the workspace";
  // The pair path's leases (word-index pairs + segment tables) also reuse.
  const auto sp = gen::generate_string_keys(d, 20000, 12);
  auto s = sp;
  dovetail::sort(std::span<std::string>(s), opt);  // warm-up for this shape
  const std::uint64_t a1 = st.workspace_allocations.load();
  s = sp;
  dovetail::sort(std::span<std::string>(s), opt);
  EXPECT_EQ(st.workspace_allocations.load(), a1)
      << "warm string sort allocated workspace slabs";
  // The continuation recursion too: a long-common-prefix corpus with a
  // tiny base case drives several re-encode rounds through the same
  // leased tables (one worker refines serially, keeping every lease on
  // this workspace, so the count is deterministic), and a warm repeat must
  // add nothing.
  opt.policy.wide_segment_base_case = 64;
  opt.num_threads = 1;
  const auto lp = gen::generate_lcp_string_keys(d, 20000, 13, 64);
  s = lp;
  dovetail::sort(std::span<std::string>(s), opt);  // warm-up for this shape
  EXPECT_GE(st.wide_continuation_rounds.load(), 3u);
  EXPECT_EQ(st.wide_tiebreak_fallbacks.load(), 0u);
  const std::uint64_t a2 = st.workspace_allocations.load();
  s = lp;
  dovetail::sort(std::span<std::string>(s), opt);
  EXPECT_EQ(st.workspace_allocations.load(), a2)
      << "warm continuation sort allocated workspace slabs";
}
