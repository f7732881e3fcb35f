// Randomized differential testing: for a sweep of deterministic seeds,
// build an input by mixing distribution fragments (sorted runs, constant
// runs, random blocks, bit-patterned keys), pick random-but-valid sort
// options, and compare DovetailSort byte-for-byte against
// std::stable_sort. Every failure is reproducible from the seed. The wide
// arm (FuzzDifferentialWide) runs the same discipline over 128-bit keys
// through dovetail::sort's refine-by-segment driver, mixing chunks whose
// word-0 entropy ranges from constant to fully random. The string arm
// (FuzzDifferentialLcpString) drives the variable-length string engine
// over random long-common-prefix corpora, demanding the MSD continuation
// match the reference. The streaming arm
// (FuzzDifferentialStream) feeds the SAME mixed inputs through
// stream_sorter under a random chunking plan and demands byte-identity
// with both std::stable_sort and the one-shot front door.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/stream_sort.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;
namespace par = dovetail::par;

namespace {

std::vector<kv32> build_mixed_input(std::uint64_t seed) {
  const std::size_t n = 20000 + par::rand_range(seed, 0, 80000);
  std::vector<kv32> v;
  v.reserve(n);
  std::uint64_t chunk_id = 1;
  while (v.size() < n) {
    const std::size_t len =
        std::min(n - v.size(),
                 static_cast<std::size_t>(1 + par::rand_range(seed, chunk_id,
                                                              5000)));
    const std::uint64_t kind = par::rand_range(seed, chunk_id + 1000000, 6);
    const std::uint64_t base = par::rand_at(seed, chunk_id + 2000000);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint32_t key = 0;
      switch (kind) {
        case 0:  // constant run (heavy key)
          key = static_cast<std::uint32_t>(base);
          break;
        case 1:  // ascending run
          key = static_cast<std::uint32_t>(base + i);
          break;
        case 2:  // descending run
          key = static_cast<std::uint32_t>(base - i);
          break;
        case 3:  // random
          key = static_cast<std::uint32_t>(
              par::rand_at(seed, chunk_id * 101 + i));
          break;
        case 4:  // few distinct values
          key = static_cast<std::uint32_t>(
              base + par::rand_range(seed, chunk_id * 103 + i, 3) * 977);
          break;
        default:  // bit-sparse keys (BExp-ish)
          key = static_cast<std::uint32_t>(base) &
                static_cast<std::uint32_t>(par::rand_at(seed,
                                                        chunk_id * 107 + i)) &
                static_cast<std::uint32_t>(par::rand_at(seed,
                                                        chunk_id * 109 + i));
          break;
      }
      v.push_back({key, static_cast<std::uint32_t>(v.size())});
    }
    ++chunk_id;
  }
  return v;
}

sort_options random_options(std::uint64_t seed) {
  sort_options o;
  o.gamma = static_cast<int>(2 + par::rand_range(seed, 11, 11));  // 2..12
  o.base_case = std::size_t{1} << par::rand_range(seed, 12, 15);  // 1..2^14
  o.detect_heavy = par::rand_range(seed, 13, 2) == 0;
  o.use_dt_merge = par::rand_range(seed, 14, 2) == 0;
  o.skip_leading_bits = par::rand_range(seed, 15, 2) == 0;
  o.seed = par::rand_at(seed, 16);
  return o;
}

}  // namespace

class FuzzDifferential : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range(0, 48));

TEST_P(FuzzDifferential, MatchesStdStableSort) {
  const auto seed = static_cast<std::uint64_t>(1000 + GetParam());
  auto v = build_mixed_input(seed);
  const sort_options opt = random_options(seed);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
  ASSERT_EQ(v.size(), ref.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, ref[i].key)
        << "seed=" << seed << " i=" << i << " gamma=" << opt.gamma
        << " theta=" << opt.base_case << " heavy=" << opt.detect_heavy
        << " dtm=" << opt.use_dt_merge << " ovf=" << opt.skip_leading_bits;
    ASSERT_EQ(v[i].value, ref[i].value)
        << "stability broken; seed=" << seed << " i=" << i;
  }
}

namespace {

// Wide-key fuzz record: a 128-bit key through the refine driver
// (wide_sort.hpp) with a stability witness.
struct kv128 {
  unsigned __int128 key;
  std::uint32_t value;
};

// Mixed 128-bit inputs built from the same fragment vocabulary as the
// 32-bit arm, with the word-0 entropy varying per chunk: constant high
// words (one giant equal-prefix segment), shared high words (many small
// segments), fully random keys (singleton segments), ascending runs.
std::vector<kv128> build_mixed_wide_input(std::uint64_t seed) {
  const std::size_t n = 20000 + par::rand_range(seed, 1, 60000);
  std::vector<kv128> v;
  v.reserve(n);
  std::uint64_t chunk_id = 1;
  while (v.size() < n) {
    const std::size_t len = std::min(
        n - v.size(),
        static_cast<std::size_t>(1 + par::rand_range(seed, chunk_id, 4000)));
    const std::uint64_t kind = par::rand_range(seed, chunk_id + 1000000, 5);
    const std::uint64_t base = par::rand_at(seed, chunk_id + 2000000);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t hi = 0;
      std::uint64_t lo = 0;
      switch (kind) {
        case 0:  // constant key (heavy duplicate across both words)
          hi = base;
          lo = base ^ 0xABCD;
          break;
        case 1:  // constant high word, random low word (one big segment)
          hi = base & 0xFFFF;
          lo = par::rand_at(seed, chunk_id * 131 + i);
          break;
        case 2:  // few distinct high words, few low words (nested dups)
          hi = base + par::rand_range(seed, chunk_id * 137 + i, 3);
          lo = par::rand_range(seed, chunk_id * 139 + i, 5) * 7919;
          break;
        case 3:  // ascending in the low word
          hi = base & 0xFF;
          lo = base + i;
          break;
        default:  // fully random (word 0 separates almost everything)
          hi = par::rand_at(seed, chunk_id * 149 + i);
          lo = par::rand_at(seed, chunk_id * 151 + i);
          break;
      }
      v.push_back({(static_cast<unsigned __int128>(hi) << 64) | lo,
                   static_cast<std::uint32_t>(v.size())});
    }
    ++chunk_id;
  }
  return v;
}

}  // namespace

class FuzzDifferentialWide : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialWide,
                         ::testing::Range(0, 24));

TEST_P(FuzzDifferentialWide, MatchesStdStableSort) {
  const auto seed = static_cast<std::uint64_t>(7000 + GetParam());
  auto v = build_mixed_wide_input(seed);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const kv128& a, const kv128& b) {
                     return a.key < b.key;
                   });
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  // Odd seeds shrink the comparison base case so the refine rounds go
  // back through the radix front door instead of finishing by comparison.
  if (seed % 2 == 1) opt.policy.wide_segment_base_case = 256;
  dovetail::sort(std::span<kv128>(v),
                 [](const kv128& r) { return r.key; }, opt);
  ASSERT_EQ(v.size(), ref.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_TRUE(v[i].key == ref[i].key)
        << "seed=" << seed << " i=" << i;
    ASSERT_EQ(v[i].value, ref[i].value)
        << "stability broken; seed=" << seed << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Long-common-prefix string arm: the variable-length string engine
// (wide_sort.hpp's MSD continuation) against both its own tie-break
// ablation and std::stable_sort. Each seed draws a common prefix of
// random length 0..256 over the FULL byte alphabet (NUL and 0xFF
// included), then mixes per-key shapes: truncations inside the prefix
// (strict-prefix adversaries), exact prefix duplicates, and tails of
// random length/entropy — shared across a small id space on some kinds so
// duplicate full keys occur too.

namespace {

std::vector<std::string> build_lcp_string_input(std::uint64_t seed) {
  const std::size_t plen = par::rand_range(seed, 21, 257);  // 0..256
  std::string prefix(plen, '\0');
  for (std::size_t i = 0; i < plen; ++i)
    prefix[i] = static_cast<char>(par::rand_at(seed, 500000 + i) & 0xFF);
  const std::size_t n = 2000 + par::rand_range(seed, 22, 20000);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t kind = par::rand_range(seed, 600000 + i, 8);
    std::string s;
    if (kind == 0) {  // truncated inside the prefix
      s.assign(prefix, 0, par::rand_range(seed, 700000 + i, plen + 1));
    } else if (kind == 1) {  // exact prefix duplicate
      s = prefix;
    } else {  // prefix + tail; kinds 2-4 draw the tail from a 50-wide id
              // space (duplicate full keys), kinds 5-7 fully random
      s = prefix;
      const std::uint64_t tail_id =
          kind < 5 ? par::rand_range(seed, 800000 + i, 50)
                   : par::rand_at(seed, 800000 + i);
      const std::size_t tlen = par::rand_range(seed, 900000 + tail_id, 40);
      for (std::size_t t = 0; t < tlen; ++t)
        s += static_cast<char>(par::rand_at(seed, tail_id * 131 + t) & 0xFF);
    }
    v.push_back(std::move(s));
  }
  return v;
}

}  // namespace

class FuzzDifferentialLcpString : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialLcpString,
                         ::testing::Range(0, 24));

TEST_P(FuzzDifferentialLcpString, ContinuationMatchesReference) {
  const auto seed = static_cast<std::uint64_t>(9000 + GetParam());
  const auto input = build_lcp_string_input(seed);
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end());
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  // Odd seeds shrink the comparison base case so the continuation recurses
  // several windows deep; a third of the seeds cap per-call parallelism
  // (1 = exact serial path).
  if (seed % 2 == 1) opt.policy.wide_segment_base_case = 256;
  if (seed % 3 == 0) opt.num_threads = (seed % 6 == 0) ? 4 : 1;
  auto cont = input;
  dovetail::sort(std::span<std::string>(cont), opt);
  ASSERT_EQ(cont, ref) << "continuation diverged; seed=" << seed;
}

// ---------------------------------------------------------------------------
// Streaming arm: random chunking of the same mixed fuzz inputs through
// stream_sorter. Chunk boundaries are independent of the fragment
// boundaries inside build_mixed_input, so runs/constants/random blocks get
// split across pushes in every way the seeds reach. Every few seeds also
// bound pending runs, exercising push-time compaction.

class FuzzDifferentialStream : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialStream,
                         ::testing::Range(0, 24));

TEST_P(FuzzDifferentialStream, MatchesStableSortAndOneShot) {
  const auto seed = static_cast<std::uint64_t>(3000 + GetParam());
  const auto input = build_mixed_input(seed);

  auto ref = input;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  auto one_shot = input;
  {
    sort_workspace ws;
    auto_sort_options opt;
    opt.workspace = &ws;
    dovetail::sort(std::span<kv32>(one_shot), key_of_kv32, opt);
  }

  stream_options sopt;
  if (seed % 3 == 0)
    sopt.max_pending_runs = 2 + par::rand_range(seed, 17, 6);  // 2..7
  stream_sorter<kv32, decltype(key_of_kv32)> s(sopt, key_of_kv32);
  const std::size_t max_chunk =
      1 + par::rand_range(seed, 18, 9000);  // 1..9000
  std::size_t off = 0, i = 0;
  while (off < input.size()) {
    const std::size_t c = std::min(
        input.size() - off,
        static_cast<std::size_t>(par::rand_range(
            seed, 400000 + i++, static_cast<std::uint64_t>(max_chunk + 1))));
    s.push(std::span<const kv32>(input.data() + off, c));
    off += c;
  }
  const auto got = s.finish();

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_EQ(got[j].key, ref[j].key)
        << "seed=" << seed << " i=" << j << " max_chunk=" << max_chunk;
    ASSERT_EQ(got[j].value, ref[j].value)
        << "stability broken; seed=" << seed << " i=" << j;
  }
  // And bit-for-bit the one-shot front door, the contract stream_sort.hpp
  // documents.
  ASSERT_TRUE(std::equal(got.begin(), got.end(), one_shot.begin(),
                         [](const kv32& a, const kv32& b) {
                           return a.key == b.key && a.value == b.value;
                         }))
      << "seed=" << seed;
}

// ---------------------------------------------------------------------------
// Query arm: the rank-window selection driver (order_stats.hpp) over the
// same mixed fuzz inputs. Each seed draws a query shape — top-k of either
// side, nth_element, partial_sort — plus a random select_base_case, and
// demands the result windows match the std::stable_sort reference byte
// for byte (keys AND the index values, so stability at the window
// boundary is checked, not just key order).

class FuzzDifferentialQuery : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialQuery,
                         ::testing::Range(0, 24));

TEST_P(FuzzDifferentialQuery, WindowsMatchStableSortSlices) {
  const auto seed = static_cast<std::uint64_t>(11000 + GetParam());
  const auto input = build_mixed_input(seed);
  const std::size_t n = input.size();
  auto ref = input;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  // Odd seeds shrink the selection base case so pruned recursion goes
  // several digit levels deep; a third of the seeds cap parallelism.
  if (seed % 2 == 1)
    opt.policy.select_base_case = std::size_t{1}
                                  << par::rand_range(seed, 31, 8);  // 1..128
  if (seed % 3 == 0) opt.num_threads = (seed % 6 == 0) ? 4 : 1;
  const std::size_t k = 1 + par::rand_range(seed, 32, n);  // 1..n
  {
    auto v = input;
    const auto out = top_k(std::span<kv32>(v), k, key_of_kv32,
                           rank_side::smallest, opt);
    ASSERT_EQ(out.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i].key, ref[i].key) << "seed=" << seed << " i=" << i;
      ASSERT_EQ(out[i].value, ref[i].value)
          << "stability broken; seed=" << seed << " i=" << i;
    }
  }
  {
    auto v = input;
    const auto out = top_k(std::span<kv32>(v), k, key_of_kv32,
                           rank_side::largest, opt);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i].key, ref[n - k + i].key) << "seed=" << seed;
      ASSERT_EQ(out[i].value, ref[n - k + i].value) << "seed=" << seed;
    }
  }
  {
    const std::size_t nth = par::rand_range(seed, 33, n);
    auto v = input;
    const kv32& r = dovetail::nth_element(std::span<kv32>(v), nth,
                                          key_of_kv32, opt);
    ASSERT_EQ(r.key, ref[nth].key) << "seed=" << seed << " nth=" << nth;
    ASSERT_EQ(r.value, ref[nth].value) << "seed=" << seed << " nth=" << nth;
  }
  {
    const std::size_t m = par::rand_range(seed, 34, n + 1);
    auto v = input;
    dovetail::partial_sort(std::span<kv32>(v), m, key_of_kv32, opt);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(v[i].key, ref[i].key) << "seed=" << seed << " i=" << i;
      ASSERT_EQ(v[i].value, ref[i].value) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(FuzzDifferential64, MixedInputs64Bit) {
  for (std::uint64_t seed = 5000; seed < 5012; ++seed) {
    const std::size_t n = 30000 + par::rand_range(seed, 0, 50000);
    std::vector<kv64> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix narrow and wide keys within one input.
      const std::uint64_t wide = par::rand_at(seed, i);
      const std::uint64_t k = (i % 3 == 0) ? (wide & 0xFFFF) : wide;
      v[i] = {k, i};
    }
    auto ref = v;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const kv64& a, const kv64& b) { return a.key < b.key; });
    dovetail_sort(std::span<kv64>(v), key_of_kv64, random_options(seed));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i].key, ref[i].key) << "seed=" << seed;
      ASSERT_EQ(v[i].value, ref[i].value) << "seed=" << seed;
    }
  }
}

// --- in-place arm ----------------------------------------------------------
// The unstable block-permutation kernel (core/inplace_sort.hpp) under the
// same mixed inputs and seed discipline. The contract is weaker than the
// stable arms' byte-identity, and the checks match it exactly:
//   * records with payload: the output is a permutation of the input whose
//     key sequence is IDENTICAL to the stable reference's (sortedness with
//     exact multiplicities), and no (key, value) pair is lost;
//   * pure keys: the sorted sequence is unique, so the output must be
//     byte-identical to the reference after all.
class FuzzDifferentialInplace : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialInplace,
                         ::testing::Range(0, 24));

TEST_P(FuzzDifferentialInplace, PermutationWithReferenceKeySequence) {
  const auto seed = static_cast<std::uint64_t>(9000 + GetParam());
  auto v = build_mixed_input(seed);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });

  // Randomized-but-valid kernel parameters, reproducible from the seed.
  inplace_sort_options iopt;
  iopt.gamma = static_cast<int>(2 + par::rand_range(seed, 21, 11));  // 2..12
  iopt.base_case = std::size_t{1} << par::rand_range(seed, 22, 15);
  iopt.block_bytes = std::size_t{256} << par::rand_range(seed, 23, 5);
  inplace_sort(std::span<kv32>(v), key_of_kv32, iopt);

  ASSERT_EQ(v.size(), ref.size());
  std::uint64_t h_got = 0;
  std::uint64_t h_ref = 0;
  const auto mix = [](const kv32& r) {
    std::uint64_t x =
        (std::uint64_t{r.key} << 32) | (r.value ^ 0x9E3779B9u);
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  };
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i].key, ref[i].key)
        << "key sequence diverges; seed=" << seed << " i=" << i
        << " gamma=" << iopt.gamma << " base=" << iopt.base_case
        << " blk=" << iopt.block_bytes;
    h_got += mix(v[i]);
    h_ref += mix(ref[i]);
  }
  // Same (key, value) multiset: the permutation lost or duplicated nothing.
  ASSERT_EQ(h_got, h_ref) << "record multiset changed; seed=" << seed;
}

TEST_P(FuzzDifferentialInplace, PureKeysByteIdenticalToReference) {
  const auto seed = static_cast<std::uint64_t>(9100 + GetParam());
  const auto input = build_mixed_input(seed);
  std::vector<std::uint32_t> keys(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) keys[i] = input[i].key;
  std::vector<std::uint32_t> ref = keys;
  std::sort(ref.begin(), ref.end());

  // Through the front door: pure keys need no stability::relaxed.
  auto_sort_options opt;
  opt.policy = policy::always(sort_kernel::inplace);
  ASSERT_EQ(dovetail::sort(std::span<std::uint32_t>(keys), opt),
            sort_kernel::inplace);
  ASSERT_EQ(keys, ref) << "seed=" << seed;
}
