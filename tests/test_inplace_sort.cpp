// Tests for the in-place block-permutation kernel (core/inplace_sort.hpp)
// and its dispatcher integration (dispatch.hpp):
//
//   * correctness across the paper's distribution families, awkward sizes
//     (network-sort-sized children, tails not a multiple of the staging
//     block), and degenerate inputs (all-equal single-bucket chains);
//   * the memory contract: peak leased workspace <= n/4 bytes-of-records,
//     against >= n for the out-of-place ping-pong kernels — measured via
//     sort_stats::peak_workspace_bytes, not asserted from the design;
//   * the stability contract: the unstable kernel is never auto-chosen for
//     payload-carrying records unless the caller signs stability::relaxed,
//     and policy::always(inplace) on such records throws without it;
//   * the SIMD pin: forced-scalar and AVX2 runs produce byte-identical
//     output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "dovetail/util/simd.hpp"
#include "test_util.hpp"

namespace {

using dovetail::kv32;
using dovetail::key_of_kv32;

template <typename K>
void expect_sorted_exact(const std::vector<K>& got, std::vector<K> want,
                         const char* what) {
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " diverges at index " << i;
}

template <typename K>
void check_inplace_on(const dovetail::gen::distribution& d, std::size_t n,
                      std::uint64_t seed) {
  std::vector<K> v = dovetail::gen::generate_keys<K>(d, n, seed);
  const std::vector<K> orig = v;
  dovetail::sort_workspace ws;
  dovetail::sort_stats st;
  dovetail::inplace_sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  dovetail::inplace_sort(std::span<K>(v), opt);
  expect_sorted_exact(v, orig, d.name.c_str());
  if (n > opt.base_case)
    EXPECT_GT(st.inplace_passes.load(), 0u) << d.name;
}

TEST(InplaceSort, DistributionFamilies32) {
  for (const auto& d : {*dovetail::gen::find_distribution("Unif-1e9"),
                        *dovetail::gen::find_distribution("Unif-10"),
                        *dovetail::gen::find_distribution("Exp-5"),
                        *dovetail::gen::find_distribution("Zipf-1.2"),
                        *dovetail::gen::find_distribution("BExp-30")})
    check_inplace_on<std::uint32_t>(d, 50000, 7);
}

TEST(InplaceSort, DistributionFamilies64) {
  for (const auto& d : {*dovetail::gen::find_distribution("Unif-1e9"),
                        *dovetail::gen::find_distribution("Zipf-1.5"),
                        *dovetail::gen::find_distribution("BExp-100")})
    check_inplace_on<std::uint64_t>(d, 50000, 11);
}

// Sizes straddling every internal regime boundary: the base case (<= 4096),
// the record-at-a-time flag fallback just above it, network-sort-sized
// recursion children (n = 4097 makes ~16-record buckets), block-tail
// remainders, and the blocked-permutation regime proper.
TEST(InplaceSort, AwkwardSizes) {
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{31},
        std::size_t{33}, std::size_t{4096}, std::size_t{4097},
        std::size_t{4613}, std::size_t{100003}, std::size_t{1} << 18}) {
    check_inplace_on<std::uint32_t>(unif, n, 3);
    check_inplace_on<std::uint64_t>(unif, n, 5);
  }
}

TEST(InplaceSort, DegenerateInputs) {
  // All-equal: every pass is a single-bucket chain (the short-circuit path).
  std::vector<std::uint32_t> eq(20000, 0xDEADBEEFu);
  dovetail::inplace_sort(std::span<std::uint32_t>(eq));
  for (const std::uint32_t k : eq) ASSERT_EQ(k, 0xDEADBEEFu);

  // Already sorted and reversed.
  std::vector<std::uint64_t> asc(30000);
  std::iota(asc.begin(), asc.end(), std::uint64_t{1} << 40);
  std::vector<std::uint64_t> want = asc;
  std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
  dovetail::inplace_sort(std::span<std::uint64_t>(asc));
  dovetail::inplace_sort(std::span<std::uint64_t>(desc));
  EXPECT_EQ(asc, want);
  EXPECT_EQ(desc, want);
}

// Records with payload under a key functor: output must be sorted and a
// permutation of the input (multiset over key AND value) — but not
// necessarily stable; that is the kernel's entire bargain.
TEST(InplaceSort, RecordsSortedPermutation) {
  const auto zipf = *dovetail::gen::find_distribution("Zipf-1");
  const std::vector<std::uint32_t> keys =
      dovetail::gen::generate_keys<std::uint32_t>(zipf, 60000, 13);
  std::vector<kv32> v(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    v[i] = kv32{keys[i], static_cast<std::uint32_t>(i)};
  const auto hash_before =
      dtt::multiset_hash(std::span<const kv32>(v), key_of_kv32);
  dovetail::inplace_sort(std::span<kv32>(v), key_of_kv32);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  EXPECT_EQ(hash_before,
            dtt::multiset_hash(std::span<const kv32>(v), key_of_kv32));
}

// The tentpole's headline: the in-place kernel's peak leased workspace is
// at most n/4 bytes-of-records, while any out-of-place kernel's ping-pong
// lease alone is at least n bytes-of-records. Same input, same measurement.
TEST(InplaceSort, PeakWorkspaceQuarterVsFull) {
  const std::size_t n = std::size_t{1} << 20;
  const std::size_t record_bytes = n * sizeof(std::uint64_t);
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  const std::vector<std::uint64_t> input =
      dovetail::gen::generate_keys<std::uint64_t>(unif, n, 17);

  std::vector<std::uint64_t> a = input;
  dovetail::sort_workspace ws_in;
  dovetail::sort_stats st_in;
  dovetail::inplace_sort_options iopt;
  iopt.workspace = &ws_in;
  iopt.stats = &st_in;
  dovetail::inplace_sort(std::span<std::uint64_t>(a), iopt);
  ASSERT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(st_in.peak_workspace(), 0u);
  EXPECT_LE(st_in.peak_workspace(), record_bytes / 4)
      << "in-place kernel leased more than n/4 bytes-of-records";

  std::vector<std::uint64_t> b = input;
  dovetail::sort_workspace ws_out;
  dovetail::sort_stats st_out;
  dovetail::auto_sort_options oopt;
  oopt.policy = dovetail::policy::always(dovetail::sort_kernel::lsd);
  oopt.workspace = &ws_out;
  oopt.stats = &st_out;
  dovetail::sort(std::span<std::uint64_t>(b), oopt);
  ASSERT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_GE(st_out.peak_workspace(), record_bytes)
      << "out-of-place kernel's ping-pong lease should be >= n records";
}

// --- dispatcher integration -----------------------------------------------

TEST(InplaceDispatch, BudgetFlipsKernelForPureKeys) {
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  const std::vector<std::uint32_t> input =
      dovetail::gen::generate_keys<std::uint32_t>(unif, 200000, 19);

  // No budget: the data-driven tree picks an out-of-place kernel.
  std::vector<std::uint32_t> a = input;
  dovetail::sort_stats st_a;
  dovetail::auto_sort_options opt_a;
  opt_a.stats = &st_a;
  const auto k_a = dovetail::sort(std::span<std::uint32_t>(a), opt_a);
  EXPECT_NE(k_a, dovetail::sort_kernel::inplace);
  EXPECT_EQ(dovetail::chosen_kernel_of(st_a), k_a);

  // A budget below n * sizeof(record): pure keys make instability
  // unobservable, so the dispatcher may (and must, to fit) go in-place.
  std::vector<std::uint32_t> b = input;
  dovetail::sort_stats st_b;
  dovetail::auto_sort_options opt_b;
  opt_b.policy.memory_budget_bytes = 64 * 1024;
  opt_b.stats = &st_b;
  const auto k_b = dovetail::sort(std::span<std::uint32_t>(b), opt_b);
  EXPECT_EQ(k_b, dovetail::sort_kernel::inplace);
  EXPECT_EQ(dovetail::chosen_kernel_of(st_b),
            dovetail::sort_kernel::inplace);
  EXPECT_GT(st_b.inplace_passes.load(), 0u);
  ASSERT_TRUE(std::is_sorted(b.begin(), b.end()));
  std::vector<std::uint32_t> want = input;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(b, want);
}

TEST(InplaceDispatch, RelaxedIsNeverImplied) {
  // Payload-carrying records + a tight budget + the default strict
  // contract: the dispatcher must NOT pick the unstable kernel, even
  // though it is the only one that fits the budget.
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  const std::vector<std::uint32_t> keys =
      dovetail::gen::generate_keys<std::uint32_t>(unif, 150000, 23);
  std::vector<kv32> v(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    v[i] = kv32{keys[i], static_cast<std::uint32_t>(i)};

  std::vector<kv32> strict = v;
  dovetail::sort_stats st_strict;
  dovetail::auto_sort_options opt_strict;
  opt_strict.policy.memory_budget_bytes = 64 * 1024;
  opt_strict.stats = &st_strict;
  const auto k_strict =
      dovetail::sort(std::span<kv32>(strict), key_of_kv32, opt_strict);
  EXPECT_NE(k_strict, dovetail::sort_kernel::inplace);
  // Strict auto-dispatch stays stable, budget or not.
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv32>(strict),
                                         key_of_kv32));

  // The same call under stability::relaxed unlocks the kernel.
  std::vector<kv32> relaxed = v;
  dovetail::sort_stats st_relaxed;
  dovetail::auto_sort_options opt_relaxed;
  opt_relaxed.policy.memory_budget_bytes = 64 * 1024;
  opt_relaxed.policy.stability_mode = dovetail::stability::relaxed;
  opt_relaxed.stats = &st_relaxed;
  const auto k_relaxed =
      dovetail::sort(std::span<kv32>(relaxed), key_of_kv32, opt_relaxed);
  EXPECT_EQ(k_relaxed, dovetail::sort_kernel::inplace);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(relaxed),
                                 key_of_kv32));
  EXPECT_EQ(dtt::multiset_hash(std::span<const kv32>(v), key_of_kv32),
            dtt::multiset_hash(std::span<const kv32>(relaxed), key_of_kv32));
}

TEST(InplaceDispatch, AlwaysInplaceDemandsSafety) {
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  const std::vector<std::uint32_t> keys =
      dovetail::gen::generate_keys<std::uint32_t>(unif, 100000, 29);

  // Pure keys: forcing the kernel is safe under the default contract.
  std::vector<std::uint32_t> pure = keys;
  dovetail::auto_sort_options opt_pure;
  opt_pure.policy = dovetail::policy::always(dovetail::sort_kernel::inplace);
  EXPECT_EQ(dovetail::sort(std::span<std::uint32_t>(pure), opt_pure),
            dovetail::sort_kernel::inplace);
  EXPECT_TRUE(std::is_sorted(pure.begin(), pure.end()));

  std::vector<kv32> recs(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    recs[i] = kv32{keys[i], static_cast<std::uint32_t>(i)};

  // Payload + strict: the forced unstable kernel throws instead of
  // silently breaking the stability contract.
  std::vector<kv32> strict = recs;
  dovetail::auto_sort_options opt_strict;
  opt_strict.policy =
      dovetail::policy::always(dovetail::sort_kernel::inplace);
  EXPECT_THROW(
      dovetail::sort(std::span<kv32>(strict), key_of_kv32, opt_strict),
      std::invalid_argument);

  // Payload + relaxed: allowed, sorted, a permutation.
  std::vector<kv32> relaxed = recs;
  dovetail::auto_sort_options opt_relaxed;
  opt_relaxed.policy =
      dovetail::policy::always(dovetail::sort_kernel::inplace);
  opt_relaxed.policy.stability_mode = dovetail::stability::relaxed;
  EXPECT_EQ(
      dovetail::sort(std::span<kv32>(relaxed), key_of_kv32, opt_relaxed),
      dovetail::sort_kernel::inplace);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(relaxed),
                                 key_of_kv32));
  EXPECT_EQ(dtt::multiset_hash(std::span<const kv32>(recs), key_of_kv32),
            dtt::multiset_hash(std::span<const kv32>(relaxed), key_of_kv32));
}

// --- SIMD pin --------------------------------------------------------------

// The AVX2 base-case finisher and histogram must be observationally
// identical to the scalar paths: same input, byte-identical output.
TEST(InplaceSimd, ScalarAndVectorPathsMatch) {
  const auto unif = *dovetail::gen::find_distribution("Unif-1e9");
  for (const std::size_t n : {std::size_t{4097}, std::size_t{100003}}) {
    const std::vector<std::uint32_t> input =
        dovetail::gen::generate_keys<std::uint32_t>(unif, n, 31);

    std::vector<std::uint32_t> vec = input;
    dovetail::simd::force_scalar(false);
    dovetail::inplace_sort(std::span<std::uint32_t>(vec));

    std::vector<std::uint32_t> sca = input;
    dovetail::simd::force_scalar(true);
    dovetail::inplace_sort(std::span<std::uint32_t>(sca));
    dovetail::simd::force_scalar(false);

    ASSERT_EQ(vec.size(), sca.size());
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(),
                             vec.size() * sizeof(std::uint32_t)))
        << "n=" << n;
    EXPECT_TRUE(std::is_sorted(vec.begin(), vec.end()));
  }
}

}  // namespace
