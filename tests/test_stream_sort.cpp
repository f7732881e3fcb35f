// Differential + property battery for the streaming serving layer
// (stream_sort.hpp). The contract under test: finish() is byte-identical
// to one-shot dovetail::sort over the concatenation of the pushed chunks —
// across chunk-boundary edge cases (empty/singleton chunks, one giant
// chunk, adversarial sizes straddling parallel_crossover_n), with
// stability preserved through the k-way tree merge, for flat, typed
// (double incl. NaN/±0), wide (u128) and string (non-exhaustive prefix
// codec) keys, with and without push-time run compaction, and with warm
// pool reuse across consecutive streams; a key that throws inside push
// leaves the sorter as it was.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dovetail/core/stream_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;

namespace {

using u128 = unsigned __int128;

gen::distribution unif_dist() { return {gen::dist_kind::uniform, 1e6, "U"}; }
gen::distribution zipf_dist() { return {gen::dist_kind::zipfian, 1.2, "Z"}; }

// One-shot front-door reference over the full input.
template <typename Rec, typename KeyFn>
std::vector<Rec> one_shot(std::vector<Rec> input, const KeyFn& key) {
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  dovetail::sort(std::span<Rec>(input), key, opt);
  return input;
}

// Push `input` into `s` in chunks of the given sizes (must sum to
// input.size()), then finish and return the result.
template <typename Rec, typename KeyFn>
std::vector<Rec> stream_in_chunks(const std::vector<Rec>& input,
                                  const std::vector<std::size_t>& chunks,
                                  stream_sorter<Rec, KeyFn>& s) {
  std::size_t off = 0;
  for (const std::size_t c : chunks) {
    s.push(std::span<const Rec>(input.data() + off, c));
    off += c;
  }
  EXPECT_EQ(off, input.size()) << "chunk plan must cover the input";
  return s.finish();
}

// Random chunk plan covering n records: sizes in [0, max_chunk].
std::vector<std::size_t> random_chunks(std::size_t n, std::size_t max_chunk,
                                       std::uint64_t seed) {
  std::vector<std::size_t> chunks;
  std::size_t off = 0, i = 0;
  while (off < n) {
    std::size_t c = static_cast<std::size_t>(
        par::rand_range(seed, i++, static_cast<std::uint64_t>(max_chunk + 1)));
    c = std::min(c, n - off);
    chunks.push_back(c);
    off += c;
  }
  return chunks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Basic shapes.

TEST(StreamSort, EmptyStreamFinishesEmpty) {
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.finish().empty());
}

TEST(StreamSort, OnlyEmptyChunks) {
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  for (int i = 0; i < 5; ++i) s.push(std::span<const kv32>{});
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.finish().empty());
}

TEST(StreamSort, OneGiantChunkMatchesOneShot) {
  const auto input = gen::generate_records<kv32>(zipf_dist(), 120'000, 31);
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got = stream_in_chunks(input, {input.size()}, s);
  EXPECT_EQ(got, one_shot(input, key_of_kv32));
}

TEST(StreamSort, SingletonAndEmptyChunksInterleaved) {
  const auto input = gen::generate_records<kv32>(unif_dist(), 257, 32);
  std::vector<std::size_t> chunks;
  for (std::size_t i = 0; i < input.size(); ++i) {
    chunks.push_back(1);
    if (i % 3 == 0) chunks.push_back(0);  // empty chunks between singletons
  }
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got = stream_in_chunks(input, chunks, s);
  EXPECT_EQ(got, one_shot(input, key_of_kv32));
}

TEST(StreamSort, ChunkSizesStraddlingParallelCrossover) {
  const std::size_t xover = dispatch_policy{}.parallel_crossover_n;
  const std::vector<std::size_t> plan = {xover - 1, xover, xover + 1, 513,
                                         xover / 2, 1, 0, xover - 1};
  std::size_t n = 0;
  for (const std::size_t c : plan) n += c;
  const auto input = gen::generate_records<kv32>(zipf_dist(), n, 33);
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got = stream_in_chunks(input, plan, s);
  EXPECT_EQ(got, one_shot(input, key_of_kv32));
}

// ---------------------------------------------------------------------------
// Stability through the tree merge.

TEST(StreamSort, AllEqualKeysKeepStreamOrder) {
  constexpr std::size_t kN = 20'000;
  std::vector<kv32> input(kN);
  for (std::size_t i = 0; i < kN; ++i)
    input[i] = {42u, static_cast<std::uint32_t>(i)};
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got =
      stream_in_chunks(input, random_chunks(kN, 700, 77), s);
  // Stable order of an all-equal stream is the stream order itself.
  EXPECT_EQ(got, input);
}

TEST(StreamSort, FewDistinctKeysStayStableAcrossManyChunks) {
  constexpr std::size_t kN = 50'000;
  std::vector<kv32> input(kN);
  for (std::size_t i = 0; i < kN; ++i)
    input[i] = {static_cast<std::uint32_t>(par::hash64(i) % 7),
                static_cast<std::uint32_t>(i)};
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got = stream_in_chunks(input, random_chunks(kN, 999, 78), s);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(got), key_of_kv32));
  EXPECT_TRUE(
      dtt::stable_by_index_value(std::span<const kv32>(got), key_of_kv32));
  EXPECT_EQ(got, one_shot(input, key_of_kv32));
}

// ---------------------------------------------------------------------------
// Typed, wide and string keys.

TEST(StreamSort, DoubleKeysWithNanAndSignedZero) {
  std::vector<tkv<double>> input;
  const double special[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            1.5,
                            -1.5};
  for (std::size_t i = 0; i < 4'000; ++i) {
    double k;
    if (i % 8 == 0) {
      k = special[i % std::size(special)];
    } else {
      k = (static_cast<double>(par::hash64(i) % 2'000) - 1'000.0) / 16.0;
    }
    input.push_back({k, static_cast<std::uint32_t>(i)});
  }
  stream_sorter<tkv<double>, decltype(key_of_tkv<double>)> s(
      {}, key_of_tkv<double>);
  const auto got = stream_in_chunks(input, random_chunks(input.size(), 257, 79),
                                    s);
  const auto want = one_shot(input, key_of_tkv<double>);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Compare bit patterns: NaN != NaN under operator==, but byte-identical
    // is exactly what the contract promises.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].key),
              std::bit_cast<std::uint64_t>(want[i].key))
        << "position " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "position " << i;
  }
}

TEST(StreamSort, WideU128MatchesOneShot) {
  // 4 entropy bits in word 0: fat equal-prefix segments force the refine
  // driver inside every chunk sort, and word-level ties in the merge.
  const auto input = gen::generate_wide_records<u128>(zipf_dist(), 60'000,
                                                      91, 4);
  stream_sorter<tkv<u128>, decltype(key_of_tkv<u128>)> s({},
                                                         key_of_tkv<u128>);
  const auto got =
      stream_in_chunks(input, random_chunks(input.size(), 7'000, 92), s);
  EXPECT_EQ(got, one_shot(input, key_of_tkv<u128>));
}

TEST(StreamSort, StringKeysUseTheNonExhaustiveTieBreak) {
  // The string codec encodes a fixed prefix: strings agreeing on the whole
  // prefix tie on every codec word and must fall back to true-key `<` in
  // the merge, exactly like the refine driver's final round.
  auto input = gen::generate_string_keys(zipf_dist(), 20'000, 93, 4);
  // Inject shared-prefix families that differ only past the encoded prefix.
  for (std::size_t i = 0; i < input.size(); i += 50) {
    input[i] = "commonprefix_commonprefix_" + std::to_string(i % 97);
  }
  stream_sorter<std::string> s;
  const auto got =
      stream_in_chunks(input, random_chunks(input.size(), 1'500, 94), s);
  const auto want = one_shot(input, self_key{});
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Run compaction and reuse.

TEST(StreamSort, CompactionBoundsPendingRuns) {
  const auto input = gen::generate_records<kv32>(unif_dist(), 40'000, 95);
  stream_options opt;
  opt.max_pending_runs = 3;
  stream_sorter<kv32, decltype(key_of_kv32)> s(opt, key_of_kv32);
  std::size_t off = 0;
  const auto chunks = random_chunks(input.size(), 1'024, 96);
  for (const std::size_t c : chunks) {
    s.push(std::span<const kv32>(input.data() + off, c));
    off += c;
    EXPECT_LE(s.pending_runs(), 3u);
  }
  EXPECT_EQ(s.finish(), one_shot(input, key_of_kv32));
}

TEST(StreamSort, ReusableAfterFinish) {
  const auto a = gen::generate_records<kv32>(unif_dist(), 9'000, 97);
  const auto b = gen::generate_records<kv32>(zipf_dist(), 11'000, 98);
  stream_sorter<kv32, decltype(key_of_kv32)> s({}, key_of_kv32);
  const auto got_a = stream_in_chunks(a, random_chunks(a.size(), 500, 99), s);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.pending_runs(), 0u);
  const auto got_b = stream_in_chunks(b, random_chunks(b.size(), 800, 100), s);
  EXPECT_EQ(got_a, one_shot(a, key_of_kv32));
  EXPECT_EQ(got_b, one_shot(b, key_of_kv32));
}

TEST(StreamSort, ThrowingKeyInPushLeavesTheSorterAsItWas) {
  // The second chunk's sort throws: the sorter keeps the first chunk only,
  // and finish() returns exactly its sorted records.
  const auto a = gen::generate_records<kv64>(unif_dist(), 3'000, 101);
  const auto b = gen::generate_records<kv64>(zipf_dist(), 3'000, 102);
  struct failing_key {
    const bool* fail;
    std::uint64_t operator()(const kv64& r) const {
      if (*fail) throw std::runtime_error("key failed");
      return r.key;
    }
  };
  bool fail = false;
  stream_sorter<kv64, failing_key> s({}, failing_key{&fail});
  s.push(std::span<const kv64>(a));
  fail = true;
  EXPECT_THROW(s.push(std::span<const kv64>(b)), std::runtime_error);
  fail = false;
  EXPECT_EQ(s.size(), a.size());
  EXPECT_EQ(s.pending_runs(), 1u);
  EXPECT_EQ(s.finish(), one_shot(a, key_of_kv64));
}

TEST(StreamSort, WarmPoolSecondStreamAllocatesNothing) {
  workspace_pool pool(1);
  pool.prewarm();
  const auto input = gen::generate_records<kv64>(unif_dist(), 30'000, 101);
  const auto chunks = random_chunks(input.size(), 4'096, 102);

  const auto run = [&](sort_stats* st) {
    stream_options opt;
    opt.pool = &pool;
    opt.num_threads = 1;  // deterministic slab usage across rounds
    opt.stats = st;
    stream_sorter<kv64, decltype(key_of_kv64)> s(opt, key_of_kv64);
    std::size_t off = 0;
    for (const std::size_t c : chunks) {
      s.push(std::span<const kv64>(input.data() + off, c));
      off += c;
    }
    return s.finish();
  };

  sort_stats warm_st;
  const auto first = run(&warm_st);
  sort_stats steady_st;
  const auto second = run(&steady_st);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, one_shot(input, key_of_kv64));
  EXPECT_EQ(steady_st.workspace_allocations.load(), 0u)
      << "an identical second stream on a warm pool must not allocate "
         "arena or slab memory";
  EXPECT_EQ(pool.creations(), 0u) << "prewarm covers the only arena";
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
}

// ---------------------------------------------------------------------------
// Accounting.

TEST(StreamSort, ChunkAndMergeCountersAccumulate) {
  sort_stats st;
  stream_options opt;
  opt.stats = &st;
  stream_sorter<kv32, decltype(key_of_kv32)> s(opt, key_of_kv32);
  const auto input = gen::generate_records<kv32>(unif_dist(), 8'000, 103);
  s.push(std::span<const kv32>(input.data(), 3'000));
  s.push(std::span<const kv32>{});  // counted, stores no run
  s.push(std::span<const kv32>(input.data() + 3'000, 5'000));
  EXPECT_EQ(st.stream_chunks.load(), 3u);
  EXPECT_EQ(s.pending_runs(), 2u);
  const auto got = s.finish();
  EXPECT_EQ(got.size(), input.size());
  // One merge level over two runs: every record rides through once.
  EXPECT_EQ(st.stream_merge_records.load(), input.size());
  st.reset();
  EXPECT_EQ(st.stream_chunks.load(), 0u);
  EXPECT_EQ(st.stream_merge_records.load(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential (the dedicated fuzz arm rides in
// test_fuzz_differential.cpp with the mixed-fragment generator).

TEST(StreamSort, RandomChunkPlansMatchOneShot) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::size_t n = 1'000 + 7'919 * seed;
    const auto input = gen::generate_records<kv32>(
        seed % 2 == 0 ? unif_dist() : zipf_dist(), n, 200 + seed);
    stream_options opt;
    opt.max_pending_runs = seed % 3 == 0 ? 4 : 0;
    stream_sorter<kv32, decltype(key_of_kv32)> s(opt, key_of_kv32);
    const auto got = stream_in_chunks(
        input, random_chunks(n, 1 + 512 * (seed + 1), 300 + seed), s);
    EXPECT_EQ(got, one_shot(input, key_of_kv32)) << "seed " << seed;
  }
}
