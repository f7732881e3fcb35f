// Variable-length string engine tests — the adversarial corpus battery
// pinning the MSD continuation beyond the materialized prefix
// (wide_sort.hpp + the offset form of key_codec.hpp's string codec):
//   * corpora built to break a prefix-only engine — all-equal keys, keys
//     that are prefixes of each other ("a" < "ab" < "aba"), embedded NUL
//     and 0xFF bytes, empty strings, lengths straddling every word
//     boundary, shared prefixes longer than the materialized words, and
//     segments engineered to recurse >= 3 continuation rounds — each
//     checked byte-identical to std::stable_sort with
//     std::less<std::string>, plus stability on duplicates via rank;
//   * the continuation property — byte-identical to std::stable_sort
//     across dispatch sizes x {serial, the pool} x {cold, warm pool};
//   * the no-fallback guarantee — sort_stats::wide_tiebreak_fallbacks is
//     0 whenever the continuation runs, even when equal-prefix segments
//     dwarf wide_segment_base_case;
//   * the comparison tie-break — the route for every non-exhaustive
//     multi-word key_codec but the string codec (a user customization
//     point): dovetail::sort, top_k and stream_sorter over such a codec
//     match std::stable_sort byte for byte, and all three count the
//     above-base-case segments it finishes in wide_tiebreak_fallbacks; a
//     case-folding codec on a string_view-convertible key, which declares
//     byte-offset members of its own, is ordered by its key's operator<,
//     not by raw bytes;
//   * queries over string keys — top_k and partial_sort continue past a
//     long shared prefix by radix, on the sort's own segment driver;
//   * the cached-word radix finish of segments at or below the base case
//     and the parallel continuation probes — segment sizes on both sides
//     of the insertion and base-case thresholds, long identical keys,
//     prefix chains and NUL / 0xFF bytes inside the finish, probes whose
//     earliest divergence sits in any one block, queries cutting a
//     finished segment, and refine counters that do not depend on the
//     worker count — byte-identical to std::stable_sort, with stability
//     witnessed by tagged records, serial and on the pool;
//   * std::string_view records (plain and in trivially copyable rows),
//     which take the same encode-once route as std::string and count the
//     same refine work; and a key functor that throws inside the
//     continuation, which leaves the input and the workspace usable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/stream_sort.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/scheduler.hpp"

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
  expect_full_lex(v, opt);             // default base case: radix finish
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
  // the pool} x {cold, warm pool}. The pool loop runs each
  // configuration twice on the same workspace_pool — first pass cold
  // (arenas constructed), second warm (pure reuse).
  const gen::distribution d{gen::dist_kind::exponential, 7, "Exp-7"};
  const std::size_t sizes[] = {0, 1, 2, 5, 100, 513, 4096, 20000};
  for (const std::size_t n : sizes) {
    const auto input = gen::generate_lcp_string_keys(d, n, 23 + n, 24);
    auto ref = input;
    std::stable_sort(ref.begin(), ref.end());
    for (const int threads : {1, 0}) {
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

TEST(StringEngine, QueriesContinueByRadixPastSharedPrefix) {
  // Rank-window queries run on the sort's segment driver: over 2^18 keys
  // that share a 64-byte prefix, top_k and partial_sort must reach the
  // distinguishing bytes through continuation rounds, pruning on the way,
  // instead of finishing the whole tied segment with one comparison sort.
  constexpr std::size_t kN = std::size_t{1} << 18;
  const std::string prefix(64, 'p');
  std::vector<std::string> input(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    constexpr char hexd[] = "0123456789abcdef";
    const std::uint64_t u = rnd(i) % (kN / 2);  // duplicate full keys
    input[i] = prefix;
    for (int sh = 60; sh >= 0; sh -= 4) input[i] += hexd[(u >> sh) & 0xF];
  }
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end());
  for (const int threads : {1, 0}) {
    for (const std::size_t m : {std::size_t{100}, kN / 2}) {
      sort_stats st;
      auto_sort_options opt;
      opt.num_threads = threads;
      opt.stats = &st;
      auto v = input;
      if (m == 100) {
        const auto got = dovetail::top_k(std::span<std::string>(v), m,
                                         rank_side::smallest, opt);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
            << "top_k threads=" << threads;
      } else {
        dovetail::partial_sort(std::span<std::string>(v), m, opt);
        ASSERT_TRUE(std::equal(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(m),
                               ref.begin()))
            << "partial_sort threads=" << threads;
      }
      EXPECT_GE(st.wide_continuation_rounds.load(), 1u) << "m=" << m;
      EXPECT_EQ(st.wide_tiebreak_fallbacks.load(), 0u) << "m=" << m;
      EXPECT_LT(st.base_case_records.load(), kN / 8) << "m=" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// The cached-word radix finish and the parallel probes.

namespace {

// A string key with an identity: sorting these through the front door
// takes the encode-once route (non-trivially copyable records), and the
// ids make stability visible — equal keys must keep increasing ids.
struct tagged {
  std::string key;
  std::uint32_t id;
  friend bool operator==(const tagged&, const tagged&) = default;
};

constexpr auto key_of_tagged = [](const tagged& t) -> const std::string& {
  return t.key;
};

std::vector<tagged> tag(const std::vector<std::string>& keys) {
  std::vector<tagged> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out[i] = {keys[i], static_cast<std::uint32_t>(i)};
  return out;
}

std::vector<tagged> stable_ref(std::vector<tagged> v) {
  std::stable_sort(v.begin(), v.end(), [](const tagged& a, const tagged& b) {
    return a.key < b.key;
  });
  return v;
}

// Sort `keys` as tagged records and as plain strings (plus rank) at 1 and
// 4 workers with the given base case; every output must equal the
// std::stable_sort reference.
void expect_stable_everywhere(const std::vector<std::string>& keys,
                              std::size_t base_case) {
  const auto recs = tag(keys);
  const auto ref = stable_ref(recs);
  for (const int threads : {1, 0}) {
    sort_workspace ws;
    auto_sort_options opt;
    opt.workspace = &ws;
    opt.num_threads = threads;
    opt.policy.wide_segment_base_case = base_case;
    auto v = recs;
    dovetail::sort(std::span<tagged>(v), key_of_tagged, opt);
    ASSERT_TRUE(v == ref) << "threads=" << threads;
    expect_full_lex(keys, opt);
  }
}

// Base-36 digits of x, at least `len` of them.
std::string digits(std::uint64_t x, std::size_t len) {
  std::string s;
  do {
    s += "0123456789abcdefghijklmnopqrstuvwxyz"[x % 36];
    x /= 36;
  } while (x != 0 || s.size() < len);
  return s;
}

}  // namespace

TEST(StringEngine, FinishSegmentSizesAroundThresholds) {
  // Equal-prefix groups of 24 (insertion sort), 25 (one radix level),
  // base_case (the largest finished segment) and base_case + 1 (one
  // continuation round first) records, tied on the first word only
  // (finished after the materialized prefix round) or through 21 bytes
  // (finished in a continuation round). Inside a group, tails of varying
  // length with duplicates, so runs of equal keys end inside windows.
  constexpr std::size_t kBase = 256;
  std::vector<std::string> keys;
  char g = 'A';
  for (const std::size_t tied : {std::size_t{7}, std::size_t{21}}) {
    for (const std::size_t size : {std::size_t{24}, std::size_t{25}, kBase,
                                   kBase + 1}) {
      const std::string prefix(tied, g++);
      for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t r = rnd(keys.size());
        keys.push_back(prefix + digits(r % (size / 3), r % 11));
      }
    }
  }
  shuffle_strings(keys, 4);
  expect_stable_everywhere(keys, kBase);
}

TEST(StringEngine, FinishWalksIdenticalKeysLongerThanThreeStrides) {
  // One small segment (below the base case) holding a run of identical
  // 50-byte keys (> 3 continuation strides past any offset), keys that
  // share 30 of those bytes and then differ, and a second segment made
  // only of identical long keys.
  const std::string common = "shared-prefix-" + std::string(36, 'z');
  std::vector<std::string> keys;
  for (int i = 0; i < 120; ++i) keys.push_back(common);
  for (int i = 0; i < 80; ++i)
    keys.push_back(common.substr(0, 30) + digits(rnd(i) % 9, 3));
  for (int i = 0; i < 150; ++i) keys.push_back("other-" + common);
  shuffle_strings(keys, 5);
  expect_stable_everywhere(keys, 512);
}

TEST(StringEngine, FinishOrdersPrefixChainsNulAndHighBytes) {
  // Everything below happens past byte 16 — inside the finish, after the
  // materialized prefix and the first continuation window: strict-prefix
  // chains, NUL against end-of-string, and 0xFF as the largest byte.
  const std::string head(16, 'h');
  std::vector<std::string> pool;
  std::string link;
  for (int i = 0; i < 30; ++i) {
    pool.push_back(head + link);
    link += static_cast<char>("a\0\xFF"[i % 3]);
  }
  for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                               std::size_t{6}, std::size_t{7},
                               std::size_t{13}}) {
    const std::string mid = head + std::string(at, 'm');
    pool.push_back(mid);
    pool.push_back(mid + '\0');
    pool.push_back(mid + std::string(2, '\0'));
    pool.push_back(mid + '\0' + "tail");
    pool.push_back(mid + '\x01');
    pool.push_back(mid + '\xFF');
    pool.push_back(mid + std::string("\xFF\xFF", 2));
  }
  std::vector<std::string> keys;
  for (int rep = 0; rep < 6; ++rep)
    for (const auto& x : pool) keys.push_back(x);
  shuffle_strings(keys, 6);
  expect_stable_everywhere(keys, 1024);
}

TEST(StringEngine, UrlKeysProbeAcrossManyBlocks) {
  // Zipf-1.2 URLs: the heaviest keys form equal-key segments of thousands
  // of records (several probe blocks each), which the probe must drop as
  // equal to the end; the rest finish below the base case.
  const gen::distribution d{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
  const auto keys = gen::generate_url_keys(d, std::size_t{1} << 16, 9);
  std::size_t top = 0;
  {
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      top = std::max(top, j - i);
    }
  }
  ASSERT_GE(top, 3 * detail::kProbeBlock + 1);
  expect_stable_everywhere(keys, 4096);
}

TEST(StringEngine, ProbeFindsTheEarliestDivergenceInAnyBlock) {
  // One tied segment of 4 refill blocks (block c covers keys [c*B, (c+1)*B)):
  // every key equals key 0 through byte 60 except the keys of ONE block,
  // which differ from it already at byte 20 (key 0 itself stays tied, so
  // in block 0 the differing keys are [1, B)). A refill that trusted any
  // single block's minimum would skip past byte 20 and mis-sort them, and
  // so would one that left the words of a block that finished scanning
  // before the split was found: the shared bytes vary, so the words the
  // slots held before the refill differ from the refilled ones.
  constexpr std::size_t kBlocks = 4;
  constexpr std::size_t kB = detail::kProbeBlock;
  constexpr std::size_t kN = kBlocks * kB;
  std::string shared(60, ' ');
  for (std::size_t j = 0; j < shared.size(); ++j)
    shared[j] = static_cast<char>('a' + j % 26);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::vector<std::string> keys(kN, shared);
    for (std::size_t i = 0; i < kN; ++i) {
      keys[i] += digits(rnd(i + 7 * b) % 50, 2);
      if (i >= std::max<std::size_t>(1, b * kB) && i < (b + 1) * kB)
        keys[i][20] = static_cast<char>('a' + rnd(i) % 20);
    }
    expect_stable_everywhere(keys, 64);
  }
}

TEST(StringEngine, QueriesCutAFinishedSegment) {
  // Groups below the base case, tied through 21 bytes; top_k and
  // nth_element windows that end or sit inside a group must return that
  // slice of the stable order (tagged ids included).
  constexpr std::size_t kBase = 512;
  std::vector<std::string> keys;
  for (char g = 'a'; g < 'a' + 8; ++g)
    for (std::size_t i = 0; i < 300; ++i)
      keys.push_back(std::string(21, g) + digits(rnd(keys.size()) % 90, 2));
  shuffle_strings(keys, 7);
  const auto recs = tag(keys);
  const auto ref = stable_ref(recs);
  for (const int threads : {1, 0}) {
    auto_sort_options opt;
    opt.num_threads = threads;
    opt.policy.wide_segment_base_case = kBase;
    for (const std::size_t k : {std::size_t{1}, std::size_t{150},
                                std::size_t{777}, std::size_t{2001}}) {
      auto v = recs;
      const auto got = dovetail::top_k(std::span<tagged>(v), k, key_of_tagged,
                                       rank_side::smallest, opt);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
          << "top_k k=" << k << " threads=" << threads;
      auto w = recs;
      const tagged& nth =
          dovetail::nth_element(std::span<tagged>(w), k, key_of_tagged, opt);
      ASSERT_TRUE(nth == ref[k]) << "nth k=" << k << " threads=" << threads;
    }
  }
}

TEST(StringEngine, RefineCountersDoNotDependOnWorkers) {
  // The schedule (parallel probes, parallel finishes) must not leak into
  // the refine counters: every wide_* counter equal on pools of 1, 2, 3
  // and 4 workers, on URLs and on deep shared prefixes.
  struct restore_pool {
    ~restore_pool() {
      par::scheduler::set_num_workers(par::scheduler::default_num_workers());
    }
  } restore;
  const gen::distribution zipf{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
  const gen::distribution unif{gen::dist_kind::uniform, 1e5, "Unif-1e5"};
  const std::vector<std::vector<std::string>> inputs = {
      gen::generate_url_keys(zipf, 50000, 10),
      gen::generate_lcp_string_keys(unif, 50000, 11, 40)};
  for (const auto& input : inputs) {
    auto ref = input;
    std::stable_sort(ref.begin(), ref.end());
    std::vector<std::uint64_t> first;
    for (const int threads : {1, 2, 3, 4}) {
      par::scheduler::set_num_workers(threads);
      sort_stats st;
      auto_sort_options opt;
      opt.stats = &st;
      opt.policy.wide_segment_base_case = 2048;
      auto v = input;
      dovetail::sort(std::span<std::string>(v), opt);
      ASSERT_EQ(v, ref) << "threads=" << threads;
      const std::vector<std::uint64_t> counters = {
          st.refine_rounds.load(), st.wide_segments.load(),
          st.wide_continuation_rounds.load(),
          st.wide_continuation_segments.load(),
          st.wide_max_byte_offset.load(), st.wide_tiebreak_fallbacks.load()};
      if (first.empty()) first = counters;
      EXPECT_EQ(counters, first) << "threads=" << threads;
    }
    EXPECT_GE(first[2], 1u);  // the continuation ran
  }
}

namespace {

// A string key inside a trivially copyable row: the router sends it to the
// encode-once route, exactly like a std::string.
struct view_row {
  std::string_view key;
  std::uint32_t id;
  friend bool operator==(const view_row&, const view_row&) = default;
};
static_assert(std::is_trivially_copyable_v<view_row>);

constexpr auto key_of_view_row = [](const view_row& r) { return r.key; };

std::vector<std::uint64_t> wide_counters(const sort_stats& st) {
  return {st.refine_rounds.load(),
          st.wide_segments.load(),
          st.wide_continuation_rounds.load(),
          st.wide_continuation_segments.load(),
          st.wide_max_byte_offset.load(),
          st.wide_tiebreak_fallbacks.load()};
}

}  // namespace

TEST(StringEngine, StringViewRecordsMatchStringRecords) {
  // The same keys as std::string_view and as std::string, under shared
  // prefixes of 0 to 80 bytes: sort, sort_by_key, rank and top_k return
  // the stable order (ids and values witness stability) and count the
  // same refine work on both key types.
  const gen::distribution d{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kTop = 3000;
  for (const std::size_t lcp : {std::size_t{0}, std::size_t{13},
                                std::size_t{40}, std::size_t{80}}) {
    const auto keys = gen::generate_lcp_string_keys(d, kN, 12, lcp);
    const std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<view_row> rows(kN);
    for (std::size_t i = 0; i < kN; ++i)
      rows[i] = {views[i], static_cast<std::uint32_t>(i)};
    const auto ref = stable_ref(tag(keys));
    std::vector<std::uint32_t> ref_ids(kN);
    for (std::size_t i = 0; i < kN; ++i) ref_ids[i] = ref[i].id;
    for (const int threads : {1, 0}) {
      sort_stats sv_st;
      sort_stats s_st;
      auto_sort_options opt;
      opt.num_threads = threads;
      opt.policy.wide_segment_base_case = 256;
      const auto on = [&](sort_stats& st) {
        auto_sort_options o = opt;
        o.stats = &st;
        return o;
      };
      const std::string where =
          "lcp=" + std::to_string(lcp) + " threads=" + std::to_string(threads);

      auto sv = views;
      dovetail::sort(std::span<std::string_view>(sv), on(sv_st));
      auto s = keys;
      dovetail::sort(std::span<std::string>(s), on(s_st));
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(sv[i], ref[i].key) << where << " i=" << i;
      EXPECT_EQ(wide_counters(sv_st), wide_counters(s_st)) << where;

      auto r = rows;
      dovetail::sort(std::span<view_row>(r), key_of_view_row, on(sv_st));
      auto t = tag(keys);
      dovetail::sort(std::span<tagged>(t), key_of_tagged, on(s_st));
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(r[i], (view_row{ref[i].key, ref[i].id})) << where;
      EXPECT_EQ(wide_counters(sv_st), wide_counters(s_st)) << where;

      auto kv = views;
      auto ks = keys;
      std::vector<std::uint32_t> vals(kN);
      for (std::size_t i = 0; i < kN; ++i) vals[i] = rows[i].id;
      auto svals = vals;
      dovetail::sort_by_key(std::span<std::string_view>(kv),
                            std::span<std::uint32_t>(vals), on(sv_st));
      dovetail::sort_by_key(std::span<std::string>(ks),
                            std::span<std::uint32_t>(svals), on(s_st));
      ASSERT_EQ(vals, ref_ids) << where;
      ASSERT_EQ(svals, ref_ids) << where;
      EXPECT_EQ(wide_counters(sv_st), wide_counters(s_st)) << where;

      const auto perm = dovetail::rank(
          std::span<const std::string_view>(views.data(), kN), on(sv_st));
      const auto sperm = dovetail::rank(
          std::span<const std::string>(keys.data(), kN), on(s_st));
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(perm[i], ref_ids[i]) << where << " i=" << i;
      EXPECT_EQ(perm, sperm) << where;
      EXPECT_EQ(wide_counters(sv_st), wide_counters(s_st)) << where;

      auto qr = rows;
      const auto got = dovetail::top_k(std::span<view_row>(qr), kTop,
                                       key_of_view_row, rank_side::smallest,
                                       on(sv_st));
      auto qt = tag(keys);
      dovetail::top_k(std::span<tagged>(qt), kTop, key_of_tagged,
                      rank_side::smallest, on(s_st));
      ASSERT_EQ(got.size(), kTop);
      for (std::size_t i = 0; i < kTop; ++i)
        ASSERT_EQ(got[i], (view_row{ref[i].key, ref[i].id})) << where;
      EXPECT_EQ(wide_counters(sv_st), wide_counters(s_st)) << where;
    }
  }
}

TEST(StringEngine, ThrowingKeyInTheContinuationLeavesInputUnchanged) {
  // Keys tied through 64 bytes, so every call after the n encode calls
  // comes from the continuation (the refill of a large segment or the
  // finish of a small one); the key functor throws on the first of them.
  constexpr std::size_t kN = 6000;
  std::vector<std::string> input(kN);
  for (std::size_t i = 0; i < kN; ++i)
    input[i] = std::string(64, 'p') + digits(rnd(i) % 2000, 3);
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end());
  for (const int threads : {1, 0}) {
    for (const std::size_t base_case : {std::size_t{64}, kN}) {
      sort_workspace ws;
      auto_sort_options opt;
      opt.workspace = &ws;
      opt.num_threads = threads;
      opt.policy.wide_segment_base_case = base_case;
      std::atomic<std::size_t> calls{0};
      const auto key = [&calls](const std::string& s) -> const std::string& {
        if (calls.fetch_add(1, std::memory_order_relaxed) >= kN)
          throw std::runtime_error("key functor failed");
        return s;
      };
      const std::string where = "threads=" + std::to_string(threads) +
                                " base_case=" + std::to_string(base_case);
      auto v = input;
      EXPECT_THROW(dovetail::sort(std::span<std::string>(v), key, opt),
                   std::runtime_error)
          << where;
      EXPECT_GT(calls.load(), kN) << where;
      EXPECT_EQ(v, input) << where;
      dovetail::sort(std::span<std::string>(v), opt);
      EXPECT_EQ(v, ref) << where;
    }
  }
}

TEST(StringEngine, KeyReturnedByValueInTheContinuation) {
  // A key functor that returns a copy of the record's std::string: every
  // key the continuation reads dies at the end of the read. Three groups
  // of ~2000 keys tie through 72 bytes (past the materialized prefix and
  // far past the small-string buffer), so base case 64 takes the parallel
  // refill of large segments and base case kN the sequential refill inside
  // the radix finish of one small segment; either must scan each key while
  // it is alive (run under ASan to see a dangling read).
  constexpr std::size_t kN = 6000;
  std::vector<std::string> keys(kN);
  for (std::size_t i = 0; i < kN; ++i)
    keys[i] = std::string(40, 'v') + digits(rnd(i) % 3, 1) +
              std::string(31, 'w') + digits(rnd(i + 1) % 500, 2);
  const auto input = tag(keys);
  const auto ref = stable_ref(input);
  const auto by_value = [](const tagged& t) { return t.key; };
  for (const int threads : {1, 0}) {
    for (const std::size_t base_case : {std::size_t{64}, kN}) {
      sort_workspace ws;
      auto_sort_options opt;
      opt.workspace = &ws;
      opt.num_threads = threads;
      opt.policy.wide_segment_base_case = base_case;
      auto v = input;
      dovetail::sort(std::span<tagged>(v), by_value, opt);
      EXPECT_TRUE(v == ref) << "threads=" << threads
                            << " base_case=" << base_case;
    }
  }
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

  for (const int threads : {1, 0}) {
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
      sort_stats qst;
      opt.stats = &qst;
      auto t = input;
      const auto got = dovetail::top_k(std::span<tail_rec>(t), k, key_of_tail,
                                       rank_side::smallest, opt);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
          << "top_k k=" << k << " threads=" << threads;
      EXPECT_GE(qst.wide_tiebreak_fallbacks.load(), 1u) << "top_k k=" << k;
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

namespace {

// ASCII case folding, the order of folded_key.
unsigned char fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u + 32) : u;
}

// A string key that converts to std::string_view but orders by its
// case-folded bytes: keys equal up to case are equivalent.
struct folded_key {
  std::string s;
  operator std::string_view() const noexcept { return s; }
  friend bool operator<(const folded_key& a, const folded_key& b) {
    return std::lexicographical_compare(
        a.s.begin(), a.s.end(), b.s.begin(), b.s.end(),
        [](char x, char y) { return fold(x) < fold(y); });
  }
};

}  // namespace

// A contract-abiding prefix codec over the folded bytes (the string
// codec's 7 content bytes + count byte, case-folded), declaring the
// members of a byte-offset form as well. Only string_prefix_codec's
// words are raw bytes; this key must be ordered by its operator<.
template <>
struct dovetail::key_codec<folded_key> {
  static constexpr std::size_t encoded_words = 2;
  static constexpr bool exhaustive = false;
  static constexpr bool cheap = true;
  static constexpr std::size_t continuation_words = 1;
  static constexpr std::size_t continuation_stride = 7;
  static std::uint64_t encode_word(const folded_key& k, std::size_t w,
                                   std::size_t byte_offset = 0) {
    const std::size_t base = byte_offset + 7 * w;
    std::uint64_t out = 0;
    for (std::size_t j = 0; j < 7; ++j)
      out = (out << 8) | (base + j < k.s.size() ? fold(k.s[base + j]) : 0u);
    const std::size_t rem = k.s.size() > base ? k.s.size() - base : 0;
    return (out << 8) | std::min<std::size_t>(rem, 7);
  }
  static constexpr bool word_continues(std::uint64_t word) {
    return (word & 0xFF) == 7;
  }
};

TEST(StringEngine, CaseFoldingCodecOrdersByItsKey) {
  // Groups tied through 14 and 20 bytes whose tails differ only in case
  // or in folded content ("...Zzc" sorts after "...zZa"), of 12 and 24
  // records (at or below the insertion threshold) and of 100 records
  // (above the base case of 64). Raw byte order would put every upper-
  // case byte first.
  const std::vector<std::string> tails = {"zza", "zzc", "zzb", "abcdefghij",
                                          "abcdefghik", "q"};
  std::vector<folded_key> input;
  char g = 'a';
  for (const std::size_t tied : {std::size_t{14}, std::size_t{20}}) {
    for (const std::size_t size :
         {std::size_t{12}, std::size_t{24}, std::size_t{100}}) {
      const std::string prefix(tied, g++);
      for (std::size_t i = 0; i < size; ++i) {
        std::string tail = tails[rnd(input.size()) % tails.size()];
        for (std::size_t j = 0; j < tail.size(); ++j)
          if (rnd(input.size() * 31 + j) % 2 == 0)
            tail[j] = static_cast<char>(tail[j] - 'a' + 'A');
        input.push_back({prefix + tail});
      }
    }
  }
  for (std::size_t i = input.size(); i > 1; --i)
    std::swap(input[i - 1].s, input[rnd(i + 8) % i].s);
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end());
  for (const int threads : {1, 0}) {
    auto_sort_options opt;
    opt.num_threads = threads;
    opt.policy.wide_segment_base_case = 64;
    auto v = input;
    dovetail::sort(std::span<folded_key>(v), opt);
    for (std::size_t i = 0; i < v.size(); ++i)
      ASSERT_EQ(v[i].s, ref[i].s) << "threads=" << threads << " i=" << i;
  }
}
