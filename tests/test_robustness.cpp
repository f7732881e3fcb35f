// Robustness tests across modules: scheduler oversubscription, nested
// parallelism patterns, sampler statistical shapes, samplesort option
// edges, and in-place radix digit sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "dovetail/baselines/sample_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

TEST(Robustness, OversubscribedSchedulerStillCorrect) {
  // More workers than cores: correctness must not depend on the ratio.
  par::scheduler::set_num_workers(8);
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                       150000, 61);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<kv32>(v), key_of_kv32);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
  par::scheduler::set_num_workers(par::scheduler::default_num_workers());
}

TEST(Robustness, NestedParallelForInsidePardo) {
  std::atomic<long> total{0};
  par::pardo(
      [&] {
        par::parallel_for(0, 10000,
                          [&](std::size_t i) { total += static_cast<long>(i); });
      },
      [&] {
        par::parallel_for(0, 10000, [&](std::size_t i) {
          total += static_cast<long>(i);
        });
      });
  EXPECT_EQ(total.load(), 2L * 49995000L);
}

TEST(Robustness, DeeplyNestedSortsInParallel) {
  // Several independent sorts running concurrently under one parallel_for
  // (the pattern the per-zone recursion uses internally).
  std::vector<std::vector<kv32>> inputs(8);
  for (std::size_t k = 0; k < inputs.size(); ++k)
    inputs[k] = gen::generate_records<kv32>(
        {gen::dist_kind::exponential, 5, "e"}, 40000, 62 + k);
  par::parallel_for(
      0, inputs.size(),
      [&](std::size_t k) {
        dovetail_sort(std::span<kv32>(inputs[k]), key_of_kv32);
      },
      1);
  for (const auto& v : inputs) {
    ASSERT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
    ASSERT_TRUE(
        dtt::stable_by_index_value(std::span<const kv32>(v), key_of_kv32));
  }
}

TEST(Robustness, ExponentialGeneratorMeanMatchesRate) {
  // Exp-λ rounds -ln(U)/(1e-5 λ) down; mean of the underlying continuous
  // variable is 1/(1e-5 λ). Check the pre-hash values via a small lambda.
  const double lambda_mult = 5;  // rate 5e-5 -> mean 20000
  double sum = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = par::rand_double(99, i);
    sum += -std::log1p(-u) / (1e-5 * lambda_mult);
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 20000.0, 500.0);
}

TEST(Robustness, ZipfTopRankShareGrowsWithS) {
  // Rank-1 share under the bounded-Pareto approximation grows sharply in s.
  auto rank1_share = [](double s) {
    const std::size_t n = 100000;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = gen::zipf_key(7, i, s, 1000000, 64);
      if (k == par::hash64(1)) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(n);
  };
  EXPECT_GT(rank1_share(1.5), 5 * rank1_share(0.8));
}

TEST(Robustness, SampleSortOversampleEdge) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                       60000, 63);
  baseline::sample_sort_by_key(
      std::span<kv32>(v), key_of_kv32,
      {.stable = true, .oversample = 1, .base_case = 1024});
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  EXPECT_TRUE(
      dtt::stable_by_index_value(std::span<const kv32>(v), key_of_kv32));
}

TEST(Robustness, SampleSortBaseCaseBoundary) {
  for (std::size_t n : {16383ul, 16384ul, 16385ul}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                         n, 64);
    baseline::sample_sort_by_key(std::span<kv32>(v), key_of_kv32,
                                 {.stable = true});
    ASSERT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
}

TEST(Robustness, InplaceRadixGammaSweep) {
  auto base = gen::generate_records<kv32>({gen::dist_kind::bexp, 50, "b"},
                                          80000, 65);
  auto key = key_of_kv32;
  const auto fp = dtt::multiset_hash(std::span<const kv32>(base), key);
  for (int gamma : {2, 6, 8, 11}) {
    auto v = base;
    inplace_sort(std::span<kv32>(v), key,
                 {.gamma = gamma, .base_case = 128});
    ASSERT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key));
    ASSERT_EQ(dtt::multiset_hash(std::span<const kv32>(v), key), fp);
  }
}

TEST(Robustness, RepeatedSetNumWorkersUnderLoad) {
  for (int p : {1, 2, 4, 2, 1, 3}) {
    par::scheduler::set_num_workers(p);
    std::atomic<long> sum{0};
    par::parallel_for(0, 50000,
                      [&](std::size_t i) { sum += static_cast<long>(i); });
    ASSERT_EQ(sum.load(), 1249975000L) << "p=" << p;
  }
  par::scheduler::set_num_workers(par::scheduler::default_num_workers());
}

TEST(Robustness, SortingViewsOfLargerBuffer) {
  // Sorting a sub-span must not touch surrounding elements.
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                       100000, 66);
  const kv32 first = v.front();
  const kv32 last = v.back();
  dovetail_sort(std::span<kv32>(v).subspan(1, v.size() - 2), key_of_kv32);
  EXPECT_EQ(v.front(), first);
  EXPECT_EQ(v.back(), last);
  EXPECT_TRUE(dtt::sorted_by_key(
      std::span<const kv32>(v).subspan(1, v.size() - 2), key_of_kv32));
}
