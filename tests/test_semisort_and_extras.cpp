// Tests for semisort (group_by in fingerprint order), the unstable counting
// sort (Appendix B), and the buffered LSD radix sort (RD stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "dovetail/baselines/buffered_lsd_radix_sort.hpp"
#include "dovetail/core/counting_sort.hpp"
#include "dovetail/core/group_by.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

namespace {

// Splits records into SoA keys and values (value = the record's payload).
struct soa {
  std::vector<std::uint32_t> keys, values;
  explicit soa(const std::vector<kv32>& v) {
    for (const kv32& r : v) {
      keys.push_back(r.key);
      values.push_back(r.value);
    }
  }
  grouped_view<std::uint32_t, std::uint32_t> semisort(
      const auto_sort_options& opt = {}) {
    return group_by(std::span<std::uint32_t>(keys),
                    std::span<std::uint32_t>(values), opt,
                    group_order::fingerprint);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Semisort: group_by(keys, values, opt, group_order::fingerprint)

TEST(Semisort, GroupsAreContiguous) {
  soa v(gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                    150000, 11));
  std::map<std::uint32_t, std::size_t> expect;
  for (const auto k : v.keys) ++expect[k];
  v.semisort();
  // Every key appears in exactly one contiguous run of the right length.
  std::set<std::uint32_t> seen;
  std::size_t i = 0;
  while (i < v.keys.size()) {
    std::size_t j = i;
    while (j < v.keys.size() && v.keys[j] == v.keys[i]) ++j;
    ASSERT_TRUE(seen.insert(v.keys[i]).second)
        << "key " << v.keys[i] << " appears in two separate groups";
    ASSERT_EQ(j - i, expect[v.keys[i]]);
    i = j;
  }
  ASSERT_EQ(seen.size(), expect.size());
}

TEST(Semisort, StableWithinGroups) {
  soa v(gen::generate_records<kv32>({gen::dist_kind::uniform, 100, "u"},
                                    100000, 12));
  v.semisort();
  for (std::size_t i = 1; i < v.keys.size(); ++i) {
    if (v.keys[i - 1] == v.keys[i]) {
      ASSERT_LT(v.values[i - 1], v.values[i]) << i;
    }
  }
}

TEST(Semisort, GroupOffsetsRoundTrip) {
  soa v(gen::generate_records<kv32>({gen::dist_kind::uniform, 50, "u"},
                                    50000, 13));
  const auto offs = v.semisort().offsets;
  ASSERT_GE(offs.size(), 2u);
  EXPECT_EQ(offs.front(), 0u);
  EXPECT_EQ(offs.back(), v.keys.size());
  for (std::size_t g = 0; g + 1 < offs.size(); ++g) {
    for (std::size_t i = offs[g] + 1; i < offs[g + 1]; ++i)
      ASSERT_EQ(v.keys[i], v.keys[offs[g]]);
    if (g + 2 < offs.size()) {
      ASSERT_NE(v.keys[offs[g]], v.keys[offs[g + 1]]);
    }
  }
}

TEST(Semisort, EmptyAndSingleton) {
  soa v(std::vector<kv32>{});
  EXPECT_EQ(v.semisort().offsets, std::vector<std::size_t>{0});
  EXPECT_TRUE(v.keys.empty());
  v = soa(std::vector<kv32>{{7, 0}});
  EXPECT_EQ(v.semisort().offsets, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(v.keys[0], 7u);
}

// Offsets edge shapes: one group, and all singletons.
TEST(Semisort, GroupOffsetsSingleGroup) {
  soa v(std::vector<kv32>(1234, kv32{42, 0}));
  EXPECT_EQ(v.semisort().offsets, (std::vector<std::size_t>{0, 1234}));
}

TEST(Semisort, GroupOffsetsAllSingletons) {
  std::vector<kv32> recs(1000);
  for (std::size_t i = 0; i < recs.size(); ++i)
    recs[i] = {static_cast<std::uint32_t>(i * 7 + 1),
               static_cast<std::uint32_t>(i)};
  soa v(recs);
  const auto offs = v.semisort().offsets;
  ASSERT_EQ(offs.size(), recs.size() + 1);
  for (std::size_t i = 0; i <= recs.size(); ++i) ASSERT_EQ(offs[i], i);
}

TEST(Semisort, WarmWorkspaceAllocatesNothing) {
  const auto base = gen::generate_records<kv32>(
      {gen::dist_kind::uniform, 200, "u"}, 150000, 13);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  // Run until five consecutive semisorts perform zero fresh workspace
  // allocations. (Scheduling can shift slab demand between early runs; the
  // steady state must still arrive quickly.)
  int zero_streak = 0;
  for (int iter = 0; iter < 25 && zero_streak < 5; ++iter) {
    const std::uint64_t before = st.workspace_allocations.load();
    soa v(base);
    v.semisort(opt);
    zero_streak =
        st.workspace_allocations.load() == before ? zero_streak + 1 : 0;
  }
  EXPECT_EQ(zero_streak, 5) << "workspace never reached zero-allocation "
                               "steady state within 25 semisorts";
  // Distribution ran through the engine with workspace-backed scratch.
  EXPECT_GT(st.scatter_direct_calls.load() + st.scatter_buffered_calls.load(),
            0u);
  EXPECT_GT(st.workspace_reuses.load(), 0u);
}

// ---------------------------------------------------------------------------
// Unstable counting sort (Appendix B / Thm 4.1 primitive): counting_sort
// with strategy = scatter_strategy::unstable.

TEST(UnstableCountingSort, BucketsCorrectOrderArbitrary) {
  const std::size_t n = 200000, nb = 64;
  std::vector<kv32> in(n), out(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = {static_cast<std::uint32_t>(par::hash64(i)),
             static_cast<std::uint32_t>(i)};
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 64; };
  auto offs = counting_sort(std::span<const kv32>(in), std::span<kv32>(out),
                            nb, bucket_of,
                            {.strategy = scatter_strategy::unstable});
  ASSERT_EQ(offs.front(), 0u);
  ASSERT_EQ(offs.back(), n);
  for (std::size_t k = 0; k < nb; ++k)
    for (std::size_t i = offs[k]; i < offs[k + 1]; ++i)
      ASSERT_EQ(bucket_of(out[i]), k);
  // Permutation: every input index appears exactly once.
  std::vector<char> seen(n, 0);
  for (const auto& r : out) {
    ASSERT_FALSE(seen[r.value]);
    seen[r.value] = 1;
  }
}

TEST(UnstableCountingSort, AgreesWithStableOnOffsets) {
  const std::size_t n = 100000, nb = 256;
  std::vector<kv32> in(n), out1(n), out2(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = {static_cast<std::uint32_t>(par::rand_range(31, i, 1u << 20)),
             static_cast<std::uint32_t>(i)};
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 256; };
  auto o1 = counting_sort(std::span<const kv32>(in), std::span<kv32>(out1),
                          nb, bucket_of);
  auto o2 = counting_sort(std::span<const kv32>(in), std::span<kv32>(out2),
                          nb, bucket_of,
                          {.strategy = scatter_strategy::unstable});
  EXPECT_EQ(o1, o2);
}

TEST(UnstableCountingSort, EmptyInput) {
  std::vector<kv32> in, out;
  auto offs = counting_sort(
      std::span<const kv32>(in), std::span<kv32>(out), 8,
      [](const kv32&) -> std::size_t { return 0; },
      {.strategy = scatter_strategy::unstable});
  EXPECT_EQ(offs, (std::vector<std::size_t>(9, 0)));
}

// ---------------------------------------------------------------------------
// Buffered LSD radix sort (RD stand-in)

TEST(BufferedLsd, StableAcrossDistributions32) {
  for (const auto& d : std::vector<gen::distribution>{
           {gen::dist_kind::uniform, 1e9, "u"},
           {gen::dist_kind::zipfian, 1.2, "z"},
           {gen::dist_kind::bexp, 100, "b"}}) {
    auto v = gen::generate_records<kv32>(d, 150000, 21);
    auto ref = v;
    std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
      return a.key < b.key;
    });
    baseline::buffered_lsd_radix_sort(std::span<kv32>(v), key_of_kv32);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i].key, ref[i].key) << i;
      ASSERT_EQ(v[i].value, ref[i].value) << i;
    }
  }
}

TEST(BufferedLsd, StableAcrossDistributions64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::exponential, 7, "e"},
                                       120000, 22);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv64& a, const kv64& b) {
    return a.key < b.key;
  });
  baseline::buffered_lsd_radix_sort(std::span<kv64>(v), key_of_kv64);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
}

// The buffered scatter stages kScatterBufferBytes (256) per (block, bucket),
// at least 4 records: records wider than 64 bytes hit that floor. Buckets
// whose counts are no multiple of the staging size end with a partial
// flush. Either way the output must be byte-identical to `direct`.
TEST(BufferedLsd, WideRecordsHitTheStagingFloor) {
  struct wide_rec {
    std::uint32_t key;
    std::uint32_t seq;
    std::array<std::uint64_t, 16> pad;  // 136 bytes: 256 / 136 < 4
  };
  static_assert(detail::kScatterBufferBytes / sizeof(wide_rec) < 4);
  const auto key_of = [](const wide_rec& r) { return r.key; };
  for (const std::size_t n : {1ul, 3ul, 5ul, 1001ul, 40003ul}) {
    std::vector<wide_rec> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i].key = static_cast<std::uint32_t>(par::hash64(i) % 1000003);
      in[i].seq = static_cast<std::uint32_t>(i);
      in[i].pad.fill(par::hash64(i + 17));
    }
    for (const std::size_t nb : {2ul, 17ul, 256ul}) {
      const auto bucket_of = [nb](const wide_rec& r) -> std::size_t {
        return r.key % nb;
      };
      std::vector<wide_rec> direct(n), buffered(n);
      sort_stats st;
      const auto off_d = counting_sort(
          std::span<const wide_rec>(in), std::span<wide_rec>(direct), nb,
          bucket_of, {.strategy = scatter_strategy::direct});
      const auto off_b = counting_sort(
          std::span<const wide_rec>(in), std::span<wide_rec>(buffered), nb,
          bucket_of, {.strategy = scatter_strategy::buffered, .stats = &st});
      ASSERT_EQ(off_d, off_b) << "n=" << n << " nb=" << nb;
      ASSERT_EQ(0, std::memcmp(direct.data(), buffered.data(),
                               n * sizeof(wide_rec)))
          << "n=" << n << " nb=" << nb;
      EXPECT_EQ(st.scatter_buffered_calls.load(), 1u);
    }
    // The RD baseline end to end: stable by key.
    auto v = in;
    baseline::buffered_lsd_radix_sort(std::span<wide_rec>(v), key_of);
    auto ref = in;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const wide_rec& a, const wide_rec& b) {
                       return a.key < b.key;
                     });
    ASSERT_EQ(0, std::memcmp(v.data(), ref.data(), n * sizeof(wide_rec)))
        << "n=" << n;
  }
}

TEST(BufferedLsd, DigitWidthSweepAndEdgeSizes) {
  for (int gamma : {4, 8, 11}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                         60000, 24);
    baseline::buffered_lsd_radix_sort(std::span<kv32>(v), key_of_kv32,
                                      {.gamma = gamma});
    EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
  for (std::size_t n : {0ul, 1ul, 2ul, 17ul}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                         n, 25);
    baseline::buffered_lsd_radix_sort(std::span<kv32>(v), key_of_kv32);
    EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
}
