// Registry of the sorting algorithms compared in the paper (Tab 2), mapped
// to this reproduction's implementations. Used by tests, benchmarks and
// examples to sweep "all algorithms" uniformly.
//
//   dtsort      — DovetailSort (Ours)
//   plis        — plain stable MSD radix (ParlayLib integer sort stand-in)
//   ips2ra      — in-place unstable MSD radix with block permutation
//                 (IPS2Ra / RegionsSort role; core/inplace_sort.hpp)
//   lsd         — classic stable LSD radix
//   rd          — buffered LSD radix (RADULS role; paper runs it 64-bit
//                 only, we run it everywhere)
//   plss        — samplesort, unstable variant (PLSS role)
//   ips4o       — samplesort, stable variant w/ equality buckets (IPS4o is
//                 unstable in the paper; our stable variant plays the
//                 "comparison sort that exploits duplicates" role)
//   std_stable  — sequential std::stable_sort (reference)
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dovetail/baselines/buffered_lsd_radix_sort.hpp"
#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/baselines/msd_radix_sort.hpp"
#include "dovetail/baselines/sample_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"

namespace dovetail {

enum class algo {
  dtsort,
  plis,
  ips2ra,
  lsd,
  rd,
  plss,
  ips4o,
  std_stable,
};

inline const char* algo_name(algo a) {
  switch (a) {
    case algo::dtsort: return "DTSort";
    case algo::plis: return "PLIS";
    case algo::ips2ra: return "IPS2Ra";
    case algo::lsd: return "LSD";
    case algo::rd: return "RD";
    case algo::plss: return "PLSS";
    case algo::ips4o: return "IPS4o";
    case algo::std_stable: return "StdStable";
  }
  return "?";
}

inline bool algo_is_stable(algo a) {
  return a == algo::dtsort || a == algo::plis || a == algo::lsd ||
         a == algo::rd || a == algo::ips4o || a == algo::std_stable;
}

inline std::vector<algo> all_parallel_algos() {
  return {algo::dtsort, algo::plis, algo::ips2ra, algo::lsd,
          algo::rd,     algo::plss, algo::ips4o};
}

// Every registered sorter, including the sequential std::stable_sort
// reference — the benchmark suite's sorter axis.
inline std::vector<algo> all_algos() {
  auto v = all_parallel_algos();
  v.push_back(algo::std_stable);
  return v;
}

// Shared execution context for run_sorter: a reusable scratch arena and a
// stats sink, threaded into every implementation that supports them (the
// samplesort variants and std::stable_sort manage their own memory and run
// uninstrumented). Null members are allowed and mean "none".
struct sorter_context {
  sort_workspace* workspace = nullptr;
  sort_stats* stats = nullptr;
};

template <typename Rec, typename KeyFn>
void run_sorter(algo a, std::span<Rec> data, const KeyFn& key,
                const sorter_context& ctx) {
  switch (a) {
    case algo::dtsort: {
      sort_options opt;
      opt.workspace = ctx.workspace;
      opt.stats = ctx.stats;
      dovetail_sort(data, key, opt);
      return;
    }
    case algo::plis: {
      baseline::radix_options opt;
      opt.workspace = ctx.workspace;
      opt.stats = ctx.stats;
      baseline::msd_radix_sort(data, key, opt);
      return;
    }
    case algo::ips2ra: {
      inplace_sort_options opt;
      opt.workspace = ctx.workspace;
      opt.stats = ctx.stats;
      inplace_sort(data, key, opt);
      return;
    }
    case algo::lsd: {
      baseline::lsd_options opt;
      opt.workspace = ctx.workspace;
      opt.stats = ctx.stats;
      baseline::lsd_radix_sort(data, key, opt);
      return;
    }
    case algo::rd: {
      baseline::buffered_lsd_options opt;
      opt.workspace = ctx.workspace;
      opt.stats = ctx.stats;
      baseline::buffered_lsd_radix_sort(data, key, opt);
      return;
    }
    case algo::plss: {
      baseline::sample_sort_by_key(data, key, {.stable = false});
      return;
    }
    case algo::ips4o: {
      baseline::sample_sort_by_key(data, key, {.stable = true});
      return;
    }
    case algo::std_stable:
      std::stable_sort(data.begin(), data.end(),
                       [&](const Rec& x, const Rec& y) {
                         return key(x) < key(y);
                       });
      return;
  }
  throw std::invalid_argument("unknown algorithm");
}

template <typename Rec, typename KeyFn>
void run_sorter(algo a, std::span<Rec> data, const KeyFn& key) {
  run_sorter(a, data, key, sorter_context{});
}

}  // namespace dovetail
