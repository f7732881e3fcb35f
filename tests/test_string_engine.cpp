// Variable-length string engine tests — the adversarial corpus battery
// pinning the MSD continuation beyond the materialized prefix
// (wide_sort.hpp + key_codec.hpp's offset-codec form):
//   * corpora built to break a prefix-only engine — all-equal keys, keys
//     that are prefixes of each other ("a" < "ab" < "aba"), embedded NUL
//     and 0xFF bytes, empty strings, lengths straddling every word
//     boundary, shared prefixes longer than the materialized words, and
//     segments engineered to recurse >= 3 continuation rounds — each
//     checked byte-identical to std::stable_sort with
//     std::less<std::string>, plus stability on duplicates via rank;
//   * the continuation property — byte-identical to std::stable_sort
//     across dispatch sizes x {serial, num_threads = 4} x {cold, warm
//     pool};
//   * the no-fallback guarantee — sort_stats::wide_tiebreak_fallbacks is
//     0 whenever the continuation runs, even when equal-prefix segments
//     dwarf wide_segment_base_case;
//   * the comparison tie-break — the route for a non-exhaustive multi-word
//     key_codec WITHOUT the offset form (a user customization point):
//     dovetail::sort, top_k and stream_sorter over such a codec match
//     std::stable_sort byte for byte, and the two sorts count the
//     above-base-case segments it finishes in wide_tiebreak_fallbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/stream_sort.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"

using namespace dovetail;

namespace {

std::uint64_t rnd(std::uint64_t i) {
  return par::hash64(i * 0x51ED2701ull + 29);
}

// Deterministic Fisher-Yates so every corpus arrives unsorted.
void shuffle_strings(std::vector<std::string>& v, std::uint64_t salt = 0) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rnd(i + salt) % i]);
}

// Sort a copy through the front door and demand byte-identity with
// std::stable_sort under std::less<std::string>; then pin stability on
// duplicates through rank (equal keys must keep increasing input
// indices — the sorted strings alone cannot witness it).
void expect_full_lex(const std::vector<std::string>& input,
                     auto_sort_options opt) {
  auto v = input;
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end(), std::less<std::string>{});
  dovetail::sort(std::span<std::string>(v), opt);
  ASSERT_EQ(v, ref);
  const auto perm = dovetail::rank(
      std::span<const std::string>(input.data(), input.size()), opt);
  std::vector<index_t> rperm(input.size());
  for (std::size_t i = 0; i < rperm.size(); ++i) rperm[i] = i;
  std::stable_sort(rperm.begin(), rperm.end(), [&](index_t a, index_t b) {
    return input[a] < input[b];
  });
  ASSERT_EQ(perm, rperm);
}

}  // namespace

TEST(StringEngine, AllEqualKeys) {
  // One giant fully-equal segment, far above the base case: the
  // continuation must recognise "keys end inside the window" and stop
  // with zero comparison fallbacks and the identity permutation.
  const std::vector<std::string> v(30000, std::string(40, 'q'));
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  opt.policy.wide_segment_base_case = 64;
  auto s = v;
  dovetail::sort(std::span<std::string>(s), opt);
  EXPECT_EQ(s, v);
  EXPECT_EQ(st.wide_tiebreak_fallbacks.load(), 0u);
  const auto perm = dovetail::rank(
      std::span<const std::string>(v.data(), v.size()), opt);
  for (std::size_t i = 0; i < perm.size(); ++i) ASSERT_EQ(perm[i], i);
}

TEST(StringEngine, MutualPrefixChains) {
  // Chains where every key is a strict prefix of the next ("a" < "ab" <
  // "aba" < ...): the all-content-bytes-tie case only the count byte can
  // order. 45 chain links x 400 duplicate witnesses each.
  std::string link;
  std::vector<std::string> pool;
  for (int i = 0; i < 45; ++i) {
    pool.push_back(link);
    link += (i % 3 == 0) ? 'a' : (i % 3 == 1) ? 'b' : 'a';
  }
  std::vector<std::string> v;
  for (int rep = 0; rep < 400; ++rep)
    for (const auto& x : pool) v.push_back(x);
  shuffle_strings(v, 1);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.policy.wide_segment_base_case = 64;
  expect_full_lex(v, opt);
}

TEST(StringEngine, EmbeddedNulAndHighBytes) {
  // NUL must sort as a real byte (above end-of-string, below 0x01) and
  // 0xFF as the largest byte, at positions inside, at, and just past
  // every window edge of the 14-byte materialized prefix.
  std::vector<std::string> pool = {"", std::string(1, '\0'),
                                   std::string(2, '\0'), "\x01",
                                   std::string(1, '\xFF')};
  for (const std::size_t at : {std::size_t{0}, std::size_t{6},
                               std::size_t{7}, std::size_t{13},
                               std::size_t{14}, std::size_t{15},
                               std::size_t{27}, std::size_t{28}}) {
    std::string base(at, 'm');
    pool.push_back(base);
    pool.push_back(base + '\0');
    pool.push_back(base + '\0' + "tail");
    pool.push_back(base + '\x01');
    pool.push_back(base + '\xFF');
    pool.push_back(base + std::string("\xFF\xFF", 2));
    pool.push_back(base + 'n');
  }
  std::vector<std::string> v;
  for (int rep = 0; rep < 120; ++rep)
    for (const auto& x : pool) v.push_back(x);
  shuffle_strings(v, 2);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.policy.wide_segment_base_case = 64;
  expect_full_lex(v, opt);
}

TEST(StringEngine, LengthsStraddlingWordBoundaries) {
  // Every length 0..30 of the same repeated byte — covering both the
  // codec's 7-byte window edges (7/14/21/28) and the historical 8-byte
  // edges (7/8/9, 15/16/17, 23/24/25) — plus a diverging last byte per
  // length so content and count both decide somewhere.
  std::vector<std::string> pool;
  for (std::size_t len = 0; len <= 30; ++len) {
    pool.push_back(std::string(len, 'k'));
    if (len > 0) {
      pool.push_back(std::string(len - 1, 'k') + 'j');
      pool.push_back(std::string(len - 1, 'k') + 'l');
      pool.push_back(std::string(len - 1, 'k') + '\0');
    }
  }
  std::vector<std::string> v;
  for (int rep = 0; rep < 80; ++rep)
    for (const auto& x : pool) v.push_back(x);
  shuffle_strings(v, 3);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.policy.wide_segment_base_case = 64;
  expect_full_lex(v, opt);
}

TEST(StringEngine, SharedPrefixLongerThanMaterializedWords) {
  // A 40-byte shared prefix swallows the whole materialized window and
  // two continuation rounds before any byte can discriminate.
  const gen::distribution d{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
  const auto v = gen::generate_lcp_string_keys(d, 25000, 21, 40);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  expect_full_lex(v, opt);             // default base case: comparison finish
  opt.policy.wide_segment_base_case = 64;  // tiny base case: radix recursion
  expect_full_lex(v, opt);
}

TEST(StringEngine, DeepContinuationRecursion) {
  // Engineered depth: a 64-byte common prefix forces the driver through
  // >= 3 continuation rounds (splitting the window-straddling truncated
  // keys out just past the materialized prefix, skip-jumping the shared
  // middle, then splitting where the injective hex tail begins) — and no
  // above-base-case segment may ever reach a comparison sort.
  const gen::distribution d{gen::dist_kind::uniform, 1e7, "Unif-1e7"};
  const auto input = gen::generate_lcp_string_keys(d, 30000, 22, 64);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  opt.policy.wide_segment_base_case = 64;
  auto v = input;
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end());
  dovetail::sort(std::span<std::string>(v), opt);
  ASSERT_EQ(v, ref);
  EXPECT_GE(st.wide_continuation_rounds.load(), 3u);
  EXPECT_GE(st.wide_continuation_segments.load(), 3u);
  EXPECT_GE(st.wide_max_byte_offset.load(), 56u);
  EXPECT_EQ(st.wide_tiebreak_fallbacks.load(), 0u);
}

TEST(StringEngine, ContinuationMatchesStableSort) {
  // The continuation property: byte-identical output vs the
  // std::stable_sort reference across dispatch sizes x {serial,
  // num_threads = 4} x {cold, warm pool}. The pool loop runs each
  // configuration twice on the same workspace_pool — first pass cold
  // (arenas constructed), second warm (pure reuse).
  const gen::distribution d{gen::dist_kind::exponential, 7, "Exp-7"};
  const std::size_t sizes[] = {0, 1, 2, 5, 100, 513, 4096, 20000};
  for (const std::size_t n : sizes) {
    const auto input = gen::generate_lcp_string_keys(d, n, 23 + n, 24);
    auto ref = input;
    std::stable_sort(ref.begin(), ref.end());
    for (const int threads : {1, 4}) {
      sort_workspace ws;
      workspace_pool pool;
      for (const bool warm : {false, true}) {
        auto_sort_options opt;
        opt.workspace = &ws;
        opt.pool = &pool;
        opt.num_threads = threads;
        opt.policy.wide_segment_base_case = 256;
        auto cont = input;
        dovetail::sort(std::span<std::string>(cont), opt);
        ASSERT_EQ(cont, ref) << "continuation n=" << n << " threads="
                             << threads << " warm=" << warm;
      }
    }
  }
}

TEST(StringEngine, SortByKeyRoutesThroughContinuation) {
  // The SoA entry point takes the same continuation path and keeps the
  // value array aligned with the stable key permutation.
  const gen::distribution d{gen::dist_kind::uniform, 300, "Unif-300"};
  auto keys = gen::generate_lcp_string_keys(d, 20000, 31, 48);
  std::vector<std::uint32_t> vals(keys.size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::uint32_t>(i);
  std::vector<index_t> perm(keys.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::stable_sort(perm.begin(), perm.end(), [&](index_t a, index_t b) {
    return keys[a] < keys[b];
  });
  const auto kref = keys;
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  opt.policy.wide_segment_base_case = 64;
  dovetail::sort_by_key(std::span<std::string>(keys),
                        std::span<std::uint32_t>(vals), opt);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], kref[perm[i]]);
    ASSERT_EQ(vals[i], static_cast<std::uint32_t>(perm[i]));
  }
  EXPECT_EQ(st.wide_tiebreak_fallbacks.load(), 0u);
  EXPECT_GE(st.wide_continuation_rounds.load(), 1u);
}

// ---------------------------------------------------------------------------
// The comparison tie-break route.

namespace {

// A three-word key whose codec materializes only the two high words and
// has no offset form: equal-prefix segments can only be finished by the
// stable comparison sort on the true keys.
struct tail_key {
  std::uint64_t hi;
  std::uint64_t mid;
  std::uint64_t lo;
  friend bool operator<(const tail_key& a, const tail_key& b) {
    return std::tie(a.hi, a.mid, a.lo) < std::tie(b.hi, b.mid, b.lo);
  }
  friend bool operator==(const tail_key&, const tail_key&) = default;
};

struct tail_rec {
  tail_key key;
  std::uint32_t value;
  friend bool operator==(const tail_rec&, const tail_rec&) = default;
};

constexpr auto key_of_tail = [](const tail_rec& r) { return r.key; };

}  // namespace

template <>
struct dovetail::key_codec<tail_key> {
  static constexpr std::size_t encoded_words = 2;
  static constexpr bool exhaustive = false;
  static constexpr bool cheap = true;
  static std::uint64_t encode_word(const tail_key& k, std::size_t w) {
    return w == 0 ? k.hi : k.mid;
  }
};

TEST(StringEngine, PrefixCodecWithoutOffsetFormTieBreaks) {
  // 4 x 3 equal-prefix segments of ~1700 records each, far above the
  // base case, ordered only by the unmaterialized low word (with
  // duplicates, so stability is visible through `value`).
  constexpr std::size_t kN = 20000;
  std::vector<tail_rec> input(kN);
  for (std::size_t i = 0; i < kN; ++i)
    input[i] = {{rnd(i) % 4, rnd(i + kN) % 3, rnd(i + 2 * kN) % 5000},
                static_cast<std::uint32_t>(i)};
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const tail_rec& a, const tail_rec& b) {
                     return a.key < b.key;
                   });
  dispatch_policy policy;
  policy.wide_segment_base_case = 64;

  for (const int threads : {1, 4}) {
    sort_stats st;
    auto_sort_options opt;
    opt.policy = policy;
    opt.num_threads = threads;
    opt.stats = &st;
    auto v = input;
    dovetail::sort(std::span<tail_rec>(v), key_of_tail, opt);
    ASSERT_EQ(v, ref) << "sort threads=" << threads;
    EXPECT_GE(st.wide_tiebreak_fallbacks.load(), 1u);
    EXPECT_EQ(st.wide_continuation_rounds.load(), 0u);

    for (const std::size_t k : {std::size_t{1}, std::size_t{700}, kN / 2}) {
      auto t = input;
      const auto got = dovetail::top_k(std::span<tail_rec>(t), k, key_of_tail,
                                       rank_side::smallest, opt);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
          << "top_k k=" << k << " threads=" << threads;
    }

    sort_stats sst;
    stream_options sopt;
    sopt.policy = policy;
    sopt.num_threads = threads;
    sopt.stats = &sst;
    stream_sorter<tail_rec, decltype(key_of_tail)> s(sopt, key_of_tail);
    for (std::size_t lo = 0; lo < kN; lo += 7000)
      s.push(std::span<const tail_rec>(input.data() + lo,
                                       std::min(kN, lo + 7000) - lo));
    ASSERT_EQ(s.finish(), ref) << "stream_sorter threads=" << threads;
    EXPECT_GE(sst.wide_tiebreak_fallbacks.load(), 1u);
  }
}
