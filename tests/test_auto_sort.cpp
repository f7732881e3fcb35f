// The adaptive front door (dovetail::sort, core/auto_sort.hpp): every
// sketch branch of the default dispatch_policy is reachable and picks the
// intended kernel (asserted via sort_stats::chosen_kernel), the output is
// sorted / a permutation / stable on every path, policy::always is honored,
// mispredicted cheap branches re-dispatch safely, and workspace reuse
// carries across dispatched kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using dovetail::auto_sort_options;
using dovetail::chosen_kernel_of;
using dovetail::input_sketch;
using dovetail::kv32;
using dovetail::kv64;
using dovetail::sort_kernel;
using dovetail::sort_stats;
using dovetail::sort_workspace;
namespace gen = dovetail::gen;
namespace policy = dovetail::policy;

namespace {

constexpr auto key32 = dovetail::key_of_kv32;

std::vector<kv32> records_from_keys(const std::vector<std::uint32_t>& keys) {
  std::vector<kv32> v(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    v[i] = {keys[i], static_cast<std::uint32_t>(i)};
  return v;
}

// Sorts a copy with the given options + stats, checks sorted/permutation/
// stability, and returns the kernel dovetail::sort reported.
sort_kernel sort_and_check(std::vector<kv32> v,
                           const auto_sort_options& base = {}) {
  sort_stats st;
  auto_sort_options opt = base;
  opt.stats = &st;
  const std::vector<kv32> before = v;
  const sort_kernel k = dovetail::sort(std::span<kv32>(v), key32, opt);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key32));
  EXPECT_EQ(dtt::multiset_hash(std::span<const kv32>(before), key32),
            dtt::multiset_hash(std::span<const kv32>(v), key32));
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv32>(v), key32));
  EXPECT_TRUE(chosen_kernel_of(st).has_value());
  if (chosen_kernel_of(st).has_value()) {
    EXPECT_EQ(*chosen_kernel_of(st), k);
  }
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// Each sketch branch is reachable and routes where the policy says.

TEST(AutoSortDispatch, SmallInputGoesSerial) {
  std::vector<std::uint32_t> keys(400);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(
        dovetail::par::hash64(i) & 0xFFFFFFFFull);
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::std_sort);
}

TEST(AutoSortDispatch, SortedInputGoesRunMerge) {
  std::vector<std::uint32_t> keys(100'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(i / 3);  // sorted, with duplicates
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  auto v = records_from_keys(keys);
  EXPECT_EQ(dovetail::sort(std::span<kv32>(v), key32, opt),
            sort_kernel::run_merge);
  EXPECT_EQ(st.sketch_runs.load(), 1u);  // already sorted: one run, no work
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv32>(v), key32));
}

TEST(AutoSortDispatch, ReverseSortedInputGoesRunMerge) {
  std::vector<std::uint32_t> keys(100'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(keys.size() - i);  // strictly desc
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::run_merge);
}

TEST(AutoSortDispatch, NearSortedInputGoesRunMerge) {
  std::vector<std::uint32_t> keys(200'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(i);
  // A handful of long sorted blocks spliced out of order: few runs, and
  // sparse descents the adjacent-pair probes are overwhelmingly likely to
  // miss... which is exactly the case run-merge exists for.
  std::rotate(keys.begin(), keys.begin() + 123'456, keys.end());
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::run_merge);
}

TEST(AutoSortDispatch, TinyRangeGoesCounting) {
  std::vector<std::uint32_t> keys(150'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = 5000 + static_cast<std::uint32_t>(
                         dovetail::par::rand_range(9, i, 3'000));
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::counting);
}

TEST(AutoSortDispatch, DenseUniform32BitGoesLsd) {
  const auto keys = gen::generate_keys<std::uint32_t>(
      gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"}, 200'000);
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::lsd);
}

TEST(AutoSortDispatch, HeavyDuplicatesGoDtsort) {
  // Unif-10: ten distinct keys spread over the full 32-bit range — the
  // heavy-duplicate regime (Thm 4.7) where DTSort's heavy buckets win.
  const auto keys = gen::generate_keys<std::uint32_t>(
      gen::distribution{gen::dist_kind::uniform, 10, "Unif-10"}, 200'000);
  EXPECT_EQ(sort_and_check(records_from_keys(keys)), sort_kernel::dtsort);
}

TEST(AutoSortDispatch, ZipfianHeavyGoesDtsort64) {
  // Zipf-1.5 on 64-bit keys: heavy top ranks + wide hashed range.
  const auto keys = gen::generate_keys<std::uint64_t>(
      gen::distribution{gen::dist_kind::zipfian, 1.5, "Zipf-1.5"}, 200'000);
  std::vector<kv64> v(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    v[i] = {keys[i], static_cast<std::uint64_t>(i)};
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  EXPECT_EQ(dovetail::sort(std::span<kv64>(v), dovetail::key_of_kv64, opt),
            sort_kernel::dtsort);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv64>(v),
                                 dovetail::key_of_kv64));
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv64>(v),
                                         dovetail::key_of_kv64));
}

TEST(AutoSortDispatch, WideUniform64BitGoesDtsort) {
  const auto keys = gen::generate_keys<std::uint64_t>(
      gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"}, 100'000);
  std::vector<std::uint64_t> v = keys;
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  EXPECT_EQ(dovetail::sort(std::span<std::uint64_t>(v), opt),
            sort_kernel::dtsort);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// ---------------------------------------------------------------------------
// Mispredicted cheap branches re-dispatch instead of degrading.

TEST(AutoSortDispatch, SortedProbesButManyRunsFallsThrough) {
  // Sorted blocks of 64 with random block bases: adjacent-pair probes see
  // descents with probability ~1/64 each, so some seeds sketch this as
  // "maybe sorted" — but the exact scan finds thousands of runs and must
  // abandon run-merge. Whatever the seed decides, the result must be
  // correct and the chosen kernel must not be run_merge.
  std::vector<std::uint32_t> keys(200'000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t block = i / 64;
    keys[i] = static_cast<std::uint32_t>(
        (dovetail::par::hash64(block) & 0xFFFF0000ull) + (i % 64));
  }
  const sort_kernel k = sort_and_check(records_from_keys(keys));
  EXPECT_NE(k, sort_kernel::run_merge);
}

TEST(AutoSortDispatch, RangeOutliersEscapeCountingBranch) {
  // All sampled keys live in a tiny range, but a single outlier blows the
  // exact range past the counting cap: the dispatcher must re-choose, and
  // the output must still be correct.
  std::vector<std::uint32_t> keys(150'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(
        dovetail::par::rand_range(11, i, 1'000));
  keys[77'777] = 0xFFFF0000u;
  const sort_kernel k = sort_and_check(records_from_keys(keys));
  EXPECT_NE(k, sort_kernel::counting);
}

// ---------------------------------------------------------------------------
// policy::always is honored on every kernel.

TEST(AutoSortPolicy, AlwaysPinsEveryKernel) {
  std::vector<std::uint32_t> keys(60'000);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(
        dovetail::par::rand_range(3, i, 50'000));  // counting-feasible range
  for (const sort_kernel k :
       {sort_kernel::std_sort, sort_kernel::run_merge, sort_kernel::counting,
        sort_kernel::lsd, sort_kernel::dtsort}) {
    auto_sort_options opt;
    opt.policy = policy::always(k);
    EXPECT_EQ(sort_and_check(records_from_keys(keys), opt), k)
        << dovetail::kernel_name(k);
  }
}

TEST(AutoSortPolicy, ForcedCountingOnWideRangeThrows) {
  auto keys = gen::generate_keys<std::uint32_t>(
      gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"}, 50'000);
  auto v = records_from_keys(keys);
  auto_sort_options opt;
  opt.policy = policy::always(sort_kernel::counting);
  EXPECT_THROW(dovetail::sort(std::span<kv32>(v), key32, opt),
               std::invalid_argument);

  // At the exact cap: a key range of 2^20 - 1 sorts and 2^20 throws,
  // serial and parallel alike.
  constexpr std::uint32_t cap = std::uint32_t{1} << 20;
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = 7 + static_cast<std::uint32_t>(
                      dovetail::par::rand_range(5, i, cap - 1));
  keys[100] = 7;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    opt.num_threads = threads;
    keys[200] = 7 + cap - 1;
    EXPECT_EQ(sort_and_check(records_from_keys(keys), opt),
              sort_kernel::counting);
    keys[200] = 7 + cap;
    v = records_from_keys(keys);
    EXPECT_THROW(dovetail::sort(std::span<kv32>(v), key32, opt),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Every routing constant of dispatch_policy, pinned at its boundary with
// hand-built sketches fed straight to choose(). A re-fit of a threshold has
// to change this test on purpose.

namespace {

// A sketch of 10^6 unsorted records whose 1000 samples are all distinct,
// with 32-bit keys and uniform low digits: the decision tree's
// "small dense keys" leaf (LSD, buffered scatter). Each case below moves
// one statistic across one constant.
input_sketch neutral_sketch() {
  input_sketch s;
  s.n = 1'000'000;
  s.record_bytes = sizeof(kv32);
  s.num_samples = 1000;
  s.min_sample = 0;
  s.max_sample = 0xFFFFFFFFu;
  s.key_bits = 32;
  s.distinct_samples = 1000;
  s.top_count = 1;
  s.digit_top_count = 4;
  s.probes = 512;
  s.asc_probes = 256;
  s.desc_probes = 256;
  return s;
}

sort_kernel route(const input_sketch& s) {
  return dovetail::dispatch_policy{}.choose(s).kernel;
}

}  // namespace

TEST(AutoSortPolicy, RoutingConstantsHoldAtTheirBoundaries) {
  using P = dovetail::dispatch_policy;
  input_sketch s = neutral_sketch();
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // n: 512 sorts serially, 513 does not.
  s.n = 512;
  EXPECT_EQ(route(s), sort_kernel::std_sort);
  s.n = 513;
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // Sampled key range: 2^12 fits one counting pass, 2^12 + 1 does not.
  s = neutral_sketch();
  s.min_sample = 1000;
  s.max_sample = 1000 + (1u << 12);
  s.key_bits = 13;
  EXPECT_EQ(route(s), sort_kernel::counting);
  ++s.max_sample;
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // Top share 0.45: the heavy-duplicate rule. Skewed low digits catch the
  // share just below it, so the two sides land on different kernels.
  s = neutral_sketch();
  s.distinct_samples = 500;
  s.digit_top_count = 250;
  s.top_count = 450;
  EXPECT_EQ(route(s), sort_kernel::dtsort);
  s.top_count = 449;
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // Distinct ratio 0.05: a sample that is nearly all duplicates.
  s = neutral_sketch();
  s.top_count = 100;
  s.digit_top_count = 1;
  s.distinct_samples = 50;
  EXPECT_EQ(route(s), sort_kernel::dtsort);
  s.distinct_samples = 51;
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // Low-digit share 0.25: LSD with direct stores, even on 64-bit keys.
  s = neutral_sketch();
  s.max_sample = ~std::uint64_t{0};
  s.key_bits = 64;
  s.digit_top_count = 250;
  const dovetail::kernel_plan direct = P{}.choose(s);
  EXPECT_EQ(direct.kernel, sort_kernel::lsd);
  EXPECT_EQ(direct.scatter, dovetail::scatter_strategy::direct);
  s.digit_top_count = 249;
  EXPECT_EQ(route(s), sort_kernel::dtsort);
  s.max_sample = 0xFFFFFFFFu;
  s.key_bits = 32;
  const dovetail::kernel_plan buffered = P{}.choose(s);
  EXPECT_EQ(buffered.kernel, sort_kernel::lsd);
  EXPECT_EQ(buffered.scatter, dovetail::scatter_strategy::automatic);

  // Mid top share 0.20: worth a heavy bucket once digit skew is ruled out.
  s = neutral_sketch();
  s.top_count = 200;
  EXPECT_EQ(route(s), sort_kernel::dtsort);
  s.top_count = 199;
  EXPECT_EQ(route(s), sort_kernel::lsd);

  // Key bits: 32 stay with LSD, 33 go to DTSort.
  s = neutral_sketch();
  EXPECT_EQ(route(s), sort_kernel::lsd);
  s.max_sample = std::uint64_t{1} << 32;
  s.key_bits = 33;
  EXPECT_EQ(route(s), sort_kernel::dtsort);

  // Serial/parallel crossover at 2^15 records.
  const int workers = dovetail::par::effective_workers();
  EXPECT_EQ(P::plan_parallelism(std::size_t{1} << 15), 1);
  EXPECT_EQ(P::plan_parallelism((std::size_t{1} << 15) + 1), workers);
  s = neutral_sketch();
  s.n = std::size_t{1} << 15;
  EXPECT_EQ(P{}.choose(s).parallelism, 1);
  s.n = (std::size_t{1} << 15) + 1;
  EXPECT_EQ(P{}.choose(s).parallelism, workers);

  // Run merge: no sampled descent routes there; the run budget is
  // max(64, 4 ceil(log2 n)).
  s = neutral_sketch();
  s.asc_probes = 512;
  s.desc_probes = 0;
  EXPECT_EQ(route(s), sort_kernel::run_merge);
  EXPECT_EQ(P::max_merge_runs(2), 64u);
  EXPECT_EQ(P::max_merge_runs(std::size_t{1} << 16), 64u);
  EXPECT_EQ(P::max_merge_runs((std::size_t{1} << 16) + 1), 68u);
  EXPECT_EQ(P::max_merge_runs(std::size_t{1} << 20), 80u);
}

// ---------------------------------------------------------------------------
// The sketch itself.

TEST(InputSketch, ReportsRangeDuplicatesAndOrder) {
  std::vector<kv32> v(50'000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(100 + i % 7), 0};  // 7 keys, cyclic
  const input_sketch s =
      dovetail::sketch_input(std::span<const kv32>(v), key32);
  EXPECT_EQ(s.n, v.size());
  EXPECT_EQ(s.distinct_samples, 7u);
  EXPECT_LE(s.min_sample, 106u);
  EXPECT_GE(s.min_sample, 100u);
  EXPECT_EQ(s.max_sample, 106u);
  EXPECT_EQ(s.key_bits, 7);
  EXPECT_NEAR(s.top_freq(), 1.0 / 7, 0.05);
  EXPECT_GT(s.desc_probes, 0u);  // 106 -> 100 wraps are common
  EXPECT_FALSE(s.maybe_sorted());
  EXPECT_FALSE(s.maybe_reverse_sorted());
}

TEST(InputSketch, SortedAndReverseDetection) {
  std::vector<kv32> v(50'000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(i), 0};
  const auto asc = dovetail::sketch_input(std::span<const kv32>(v), key32);
  EXPECT_TRUE(asc.maybe_sorted());
  std::reverse(v.begin(), v.end());
  const auto desc = dovetail::sketch_input(std::span<const kv32>(v), key32);
  EXPECT_TRUE(desc.maybe_reverse_sorted());
}

TEST(InputSketch, DeterministicForFixedSeed) {
  const auto keys = gen::generate_keys<std::uint32_t>(
      gen::distribution{gen::dist_kind::zipfian, 1.0, "Zipf-1"}, 30'000);
  const auto v = records_from_keys(keys);
  const auto a = dovetail::sketch_input(std::span<const kv32>(v), key32);
  const auto b = dovetail::sketch_input(std::span<const kv32>(v), key32);
  EXPECT_EQ(a.distinct_samples, b.distinct_samples);
  EXPECT_EQ(a.top_count, b.top_count);
  EXPECT_EQ(a.desc_probes, b.desc_probes);
  EXPECT_EQ(a.min_sample, b.min_sample);
  EXPECT_EQ(a.max_sample, b.max_sample);
}

// ---------------------------------------------------------------------------
// Workspace reuse across dispatched kernels, and degenerate inputs.

TEST(AutoSort, WarmWorkspaceReSortsWithoutAllocating) {
  const auto keys = gen::generate_keys<std::uint32_t>(
      gen::distribution{gen::dist_kind::uniform, 1e9, "Unif-1e9"}, 120'000);
  const auto pristine = records_from_keys(keys);
  sort_workspace ws;
  sort_stats st;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  // Run until five consecutive front-door sorts perform zero fresh
  // allocations (the test_workspace.cpp idiom: with multiple workers,
  // scheduling can shift concurrent slab demand between early runs).
  int zero_streak = 0;
  std::uint64_t reuses_at_streak_start = 0;
  for (int iter = 0; iter < 25 && zero_streak < 5; ++iter) {
    const std::uint64_t before = st.workspace_allocations.load();
    if (zero_streak == 0) reuses_at_streak_start = st.workspace_reuses.load();
    auto v = pristine;
    dovetail::sort(std::span<kv32>(v), key32, opt);
    ASSERT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key32));
    zero_streak =
        st.workspace_allocations.load() == before ? zero_streak + 1 : 0;
  }
  EXPECT_EQ(zero_streak, 5)
      << "front-door sorts never reached the zero-allocation steady state";
  EXPECT_GT(st.workspace_reuses.load(), reuses_at_streak_start);
}

TEST(AutoSort, DegenerateInputs) {
  std::vector<kv32> empty;
  EXPECT_EQ(dovetail::sort(std::span<kv32>(empty), key32),
            sort_kernel::std_sort);
  std::vector<kv32> one{{42, 0}};
  EXPECT_EQ(dovetail::sort(std::span<kv32>(one), key32),
            sort_kernel::std_sort);
  std::vector<kv32> equal(30'000, kv32{7, 0});
  for (std::size_t i = 0; i < equal.size(); ++i)
    equal[i].value = static_cast<std::uint32_t>(i);
  sort_and_check(equal);  // all-equal: any kernel must keep input order
}

TEST(AutoSort, MatchesStdStableSortAcrossDistributions) {
  for (const char* name : {"Unif-1e5", "Exp-5", "Zipf-1.2", "BExp-30"}) {
    const auto d = gen::find_distribution(name);
    ASSERT_TRUE(d.has_value()) << name;
    auto v = gen::generate_records<kv32>(*d, 80'000);
    auto ref = v;
    dovetail::sort(std::span<kv32>(v), key32);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const kv32& x, const kv32& y) {
                       return x.key < y.key;
                     });
    ASSERT_EQ(v.size(), ref.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i].key, ref[i].key) << name << " at " << i;
      ASSERT_EQ(v[i].value, ref[i].value) << name << " at " << i;
    }
  }
}
