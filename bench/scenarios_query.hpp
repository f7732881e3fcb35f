// The order-statistics / grouped-query families (core/order_stats.hpp and
// core/group_by.hpp through the public typed entry points):
//   query-topk — dovetail::top_k (stable smallest-k) on u64 records over
//       Tab-3 distribution instances at k = 10 / 1000 / n/100, against TWO
//       baselines timed on the same reps with rotating in-rep order:
//       std::partial_sort (ms_StdPartial / speedup_vs_std) and the full
//       dovetail::sort on the same records (ms_FullSort /
//       speedup_vs_fullsort). The committed BENCH_query.json is the
//       evidence for the rank-pruning acceptance bar: at n = 1e7 and
//       k <= 1024 the selection must be >= 5x faster than paying for the
//       whole sort, and buckets_pruned / records_pruned document how much
//       of the key space each counting pass discarded without recursing.
//   query-select — dovetail::nth_element at the median and p99 ranks vs
//       std::nth_element (unstable, the classic quickselect), plus the
//       same full-sort yardstick. The check demands the *stable* answer:
//       the record left at the rank must be byte-identical (key and
//       stability witness) to the stable_sort reference, which
//       std::nth_element itself does not guarantee.
//   query-groupby — dovetail::group_by(keys, values) vs the obvious
//       sort-then-scan (std::stable_sort on (key, value) pairs + boundary
//       scan), byte-identity checked on keys, values AND offsets; the fp
//       column times the hash-permuted fingerprint mode (group_order::
//       fingerprint), whose check demands exact contiguous groups without
//       demanding sorted key order.
// All cells lease from the shared suite workspace (warm-path selection is
// the product surface: the same arena the sort families reuse).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "harness.hpp"

namespace dtb {

// ---------------------------------------------------------------------------
// Shared cached inputs + stable references (pristine per instance / n).

inline const std::vector<dovetail::kv64>& cached_query_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return cached_input<dovetail::kv64>(d, n);
}

// The stable-sort reference, computed once per instance and shared by all
// k / rank cells on that input (it is the definition of every query
// result: top_k/nth_element/partial_sort are slices of this array).
inline const std::vector<dovetail::kv64>& cached_query_reference(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n) + "/stable-ref", [&] {
    std::vector<dovetail::kv64> ref = cached_query_input(d, n);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const dovetail::kv64& a, const dovetail::kv64& b) {
                       return a.key < b.key;
                     });
    return ref;
  });
}

// ---------------------------------------------------------------------------
// query-topk cells: three timed variants per rep (top_k primary,
// std::partial_sort, full dovetail::sort), rotating the in-rep order by
// rep index — the 3-way analogue of run_interleaved_reps' alternation, so
// no variant always pays the cold-predecessor penalty.

inline scenario_result run_topk_cell(const run_config& rc,
                                     const dovetail::gen::distribution& d,
                                     std::size_t k) {
  const auto& input = cached_query_input(d, rc.n);
  scenario_result res;
  res.n = input.size();
  k = std::min(k, input.size());

  std::vector<dovetail::kv64> work(input.size());
  dovetail::sort_stats stats;
  const auto run_topk = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::top_k(std::span<dovetail::kv64>(work), k, dovetail::key_of_kv64,
                    dovetail::rank_side::smallest, opt);
    return t.seconds();
  };
  const auto run_partial = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    std::partial_sort(work.begin(), work.begin() + static_cast<long>(k),
                      work.end(),
                      [](const dovetail::kv64& a, const dovetail::kv64& b) {
                        return a.key < b.key;
                      });
    return t.seconds();
  };
  const auto run_fullsort = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::sort(std::span<dovetail::kv64>(work), dovetail::key_of_kv64,
                   opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_topk);
  if (rc.check) {
    const auto& ref = cached_query_reference(d, rc.n);
    res.check = "pass";
    for (std::size_t i = 0; i < k; ++i) {
      if (work[i].key != ref[i].key || work[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail =
            "top_k record at index " + std::to_string(i) +
            " differs from the stable_sort reference slice";
        return res;
      }
    }
  }

  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  const std::uint64_t pruned_b0 =
      stats.buckets_pruned.load(std::memory_order_relaxed);
  const std::uint64_t pruned_r0 =
      stats.records_pruned.load(std::memory_order_relaxed);
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  std::vector<double> partial_times, full_times;
  const auto primary = [&] { res.times_s.push_back(run_topk()); };
  for (int r = 0; r < reps; ++r) {
    switch (r % 3) {
      case 0:
        primary();
        partial_times.push_back(run_partial());
        full_times.push_back(run_fullsort());
        break;
      case 1:
        partial_times.push_back(run_partial());
        full_times.push_back(run_fullsort());
        primary();
        break;
      default:
        full_times.push_back(run_fullsort());
        primary();
        partial_times.push_back(run_partial());
        break;
    }
  }

  res.stats["k"] = static_cast<double>(k);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  // Per-timed-run averages: the full-sort reps share the stats object but
  // never touch the pruning counters, so the delta is the selection's own.
  res.stats["buckets_pruned"] =
      static_cast<double>(stats.buckets_pruned.load(std::memory_order_relaxed) -
                          pruned_b0) /
      reps;
  res.stats["records_pruned"] =
      static_cast<double>(stats.records_pruned.load(std::memory_order_relaxed) -
                          pruned_r0) /
      reps;
  scenario_result ps;
  ps.times_s = std::move(partial_times);
  res.stats["ms_StdPartial"] = ps.median_s() * 1e3;
  scenario_result fs;
  fs.times_s = std::move(full_times);
  res.stats["ms_FullSort"] = fs.median_s() * 1e3;
  if (res.median_s() > 0) {
    res.stats["speedup_vs_std"] = ps.median_s() / res.median_s();
    res.stats["speedup_vs_fullsort"] = fs.median_s() / res.median_s();
  }
  return res;
}

// query-select cells: nth_element at a rank fraction, same 3-variant
// rotation with std::nth_element as the comparison baseline.
inline scenario_result run_select_cell(const run_config& rc,
                                       const dovetail::gen::distribution& d,
                                       double rank_frac) {
  const auto& input = cached_query_input(d, rc.n);
  scenario_result res;
  res.n = input.size();
  const std::size_t nth = std::min(
      input.size() - 1,
      static_cast<std::size_t>(rank_frac * static_cast<double>(input.size())));

  std::vector<dovetail::kv64> work(input.size());
  dovetail::sort_stats stats;
  const auto run_select = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::nth_element(std::span<dovetail::kv64>(work), nth,
                          dovetail::key_of_kv64, opt);
    return t.seconds();
  };
  const auto run_std_nth = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    std::nth_element(work.begin(), work.begin() + static_cast<long>(nth),
                     work.end(),
                     [](const dovetail::kv64& a, const dovetail::kv64& b) {
                       return a.key < b.key;
                     });
    return t.seconds();
  };
  const auto run_fullsort = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::sort(std::span<dovetail::kv64>(work), dovetail::key_of_kv64,
                   opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_select);
  if (rc.check) {
    const auto& ref = cached_query_reference(d, rc.n);
    // The stable answer, not just "a record with the right key": the
    // stability witness (value == input index) must match too.
    if (work[nth].key != ref[nth].key || work[nth].value != ref[nth].value) {
      res.check = "fail";
      res.check_detail =
          "nth_element record is not the stable_sort reference record";
      return res;
    }
    res.check = "pass";
    for (std::size_t i = 0; i < nth && res.check == "pass"; ++i)
      if (work[i].key > work[nth].key) {
        res.check = "fail";
        res.check_detail = "partition property violated before the rank";
      }
    for (std::size_t i = nth + 1; i < work.size() && res.check == "pass"; ++i)
      if (work[i].key < work[nth].key) {
        res.check = "fail";
        res.check_detail = "partition property violated after the rank";
      }
    if (res.check == "fail") return res;
  }

  const std::uint64_t pruned_b0 =
      stats.buckets_pruned.load(std::memory_order_relaxed);
  const std::uint64_t pruned_r0 =
      stats.records_pruned.load(std::memory_order_relaxed);
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  std::vector<double> nth_times, full_times;
  const auto primary = [&] { res.times_s.push_back(run_select()); };
  for (int r = 0; r < reps; ++r) {
    switch (r % 3) {
      case 0:
        primary();
        nth_times.push_back(run_std_nth());
        full_times.push_back(run_fullsort());
        break;
      case 1:
        nth_times.push_back(run_std_nth());
        full_times.push_back(run_fullsort());
        primary();
        break;
      default:
        full_times.push_back(run_fullsort());
        primary();
        nth_times.push_back(run_std_nth());
        break;
    }
  }

  res.stats["rank"] = static_cast<double>(nth);
  res.stats["buckets_pruned"] =
      static_cast<double>(stats.buckets_pruned.load(std::memory_order_relaxed) -
                          pruned_b0) /
      reps;
  res.stats["records_pruned"] =
      static_cast<double>(stats.records_pruned.load(std::memory_order_relaxed) -
                          pruned_r0) /
      reps;
  scenario_result ns;
  ns.times_s = std::move(nth_times);
  res.stats["ms_StdNth"] = ns.median_s() * 1e3;
  scenario_result fs;
  fs.times_s = std::move(full_times);
  res.stats["ms_FullSort"] = fs.median_s() * 1e3;
  if (res.median_s() > 0) {
    res.stats["speedup_vs_std"] = ns.median_s() / res.median_s();
    res.stats["speedup_vs_fullsort"] = fs.median_s() / res.median_s();
  }
  return res;
}

// ---------------------------------------------------------------------------
// query-groupby cells: group_by(keys, values) vs stable_sort-then-scan on
// (key, value) pairs. The sorted column demands BYTE-IDENTITY with the
// baseline (keys, values and offsets); the fp column demands exact
// contiguous groups under the hash permutation without sorted key order.

inline const std::vector<dovetail::kv32>& cached_groupby_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return cached_input<dovetail::kv32>(d, n);
}

inline const std::vector<dovetail::kv32>& cached_groupby_reference(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n) + "/gb-ref", [&] {
    std::vector<dovetail::kv32> ref = cached_groupby_input(d, n);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const dovetail::kv32& a, const dovetail::kv32& b) {
                       return a.key < b.key;
                     });
    return ref;
  });
}

inline scenario_result run_groupby_cell(const run_config& rc,
                                        const dovetail::gen::distribution& d,
                                        dovetail::group_order order) {
  const auto& input = cached_groupby_input(d, rc.n);
  scenario_result res;
  res.n = input.size();

  std::vector<std::uint32_t> keys(input.size()), values(input.size());
  std::vector<dovetail::kv32> pairs(input.size());
  dovetail::sort_stats stats;
  std::size_t num_groups = 0;
  const auto run_gb = [&]() -> double {
    for (std::size_t i = 0; i < input.size(); ++i) {
      keys[i] = input[i].key;
      values[i] = input[i].value;
    }
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    const auto gv =
        dovetail::group_by(std::span<std::uint32_t>(keys),
                           std::span<std::uint32_t>(values), opt, order);
    num_groups = gv.num_groups();
    return t.seconds();
  };
  std::size_t scan_groups = 0;  // sink: keeps the baseline scan observable
  const auto run_sort_scan = [&]() -> double {
    std::copy(input.begin(), input.end(), pairs.begin());
    dovetail::timer t;
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const dovetail::kv32& a, const dovetail::kv32& b) {
                       return a.key < b.key;
                     });
    // The scan half of sort-then-scan: materialize the group offsets the
    // grouped_view hands back for free.
    std::vector<std::size_t> offs;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (i == 0 || pairs[i - 1].key != pairs[i].key) offs.push_back(i);
    offs.push_back(pairs.size());
    scan_groups = offs.size() - 1;
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_gb);
  if (rc.check) {
    const auto& ref = cached_groupby_reference(d, rc.n);
    res.check = "pass";
    if (order == dovetail::group_order::sorted) {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (keys[i] != ref[i].key || values[i] != ref[i].value) {
          res.check = "fail";
          res.check_detail =
              "group_by output at index " + std::to_string(i) +
              " is not byte-identical to stable_sort-then-scan";
          return res;
        }
      }
    } else {
      // Fingerprint mode: every key forms exactly one contiguous group of
      // the right size, values increasing inside it (stability), but the
      // group order is the hash permutation, not key order.
      const auto& ref2 = cached_groupby_reference(d, rc.n);
      std::vector<std::pair<std::uint32_t, std::size_t>> counts;
      for (std::size_t i = 0; i < ref2.size();) {
        std::size_t j = i;
        while (j < ref2.size() && ref2[j].key == ref2[i].key) ++j;
        counts.emplace_back(ref2[i].key, j - i);
        i = j;
      }
      std::size_t runs = 0;
      for (std::size_t i = 0; i < keys.size();) {
        std::size_t j = i;
        while (j < keys.size() && keys[j] == keys[i]) {
          if (j > i && !(values[j - 1] < values[j])) {
            res.check = "fail";
            res.check_detail = "fingerprint group not stable at index " +
                               std::to_string(j);
            return res;
          }
          ++j;
        }
        const auto it = std::lower_bound(
            counts.begin(), counts.end(),
            std::make_pair(keys[i], std::size_t{0}),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        if (it == counts.end() || it->first != keys[i] ||
            it->second != j - i) {
          res.check = "fail";
          res.check_detail = "fingerprint group for key " +
                             std::to_string(keys[i]) +
                             " is split or has the wrong size";
          return res;
        }
        ++runs;
        i = j;
      }
      if (runs != counts.size()) {
        res.check = "fail";
        res.check_detail = "fingerprint mode produced the wrong group count";
        return res;
      }
    }
  }

  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  const std::vector<double> std_times =
      run_interleaved_reps(reps, res, run_gb, run_sort_scan);
  res.stats["groups"] = static_cast<double>(num_groups);
  res.stats["baseline_groups"] = static_cast<double>(scan_groups);
  scenario_result ss;
  ss.times_s = std_times;
  res.stats["ms_SortScan"] = ss.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["speedup_vs_std"] = ss.median_s() / res.median_s();
  return res;
}

// ---------------------------------------------------------------------------

inline void register_topk_cell(const run_config& cfg,
                               const dovetail::gen::distribution& d,
                               std::size_t k, const std::string& ktag) {
  scenario s;
  s.bench = "query-topk";
  s.name = s.bench + "/" + d.name + "/" + ktag;
  s.paper = "rank-pruned stable top-k: counting passes skip every bucket "
            "wholly outside [0, k) instead of recursing";
  s.row = d.name;
  s.col = ktag;
  s.labels = {{"dist", d.name},
              {"algo", "TopK"},
              {"width", "64"},
              {"k", std::to_string(k)},
              {"threads", std::to_string(cfg.max_threads())}};
  s.run = [d, k](const run_config& rc) { return run_topk_cell(rc, d, k); };
  scenario_registry::instance().add(std::move(s));
}

inline void register_select_cell(const run_config& cfg,
                                 const dovetail::gen::distribution& d,
                                 double frac, const std::string& tag) {
  scenario s;
  s.bench = "query-select";
  s.name = s.bench + "/" + d.name + "/" + tag;
  s.paper = "rank-pruned stable nth_element: a single-rank window prunes "
            "every bucket on both sides of the rank";
  s.row = d.name;
  s.col = tag;
  s.labels = {{"dist", d.name},
              {"algo", "NthElement"},
              {"width", "64"},
              {"rank", tag},
              {"threads", std::to_string(cfg.max_threads())}};
  s.run = [d, frac](const run_config& rc) {
    return run_select_cell(rc, d, frac);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_groupby_cell(const run_config& cfg,
                                  const dovetail::gen::distribution& d,
                                  dovetail::group_order order) {
  scenario s;
  s.bench = "query-groupby";
  const char* col =
      order == dovetail::group_order::sorted ? "sorted" : "fp";
  s.name = s.bench + "/" + d.name + "/" + col;
  s.paper = "first-class group_by(keys, values) vs stable_sort-then-scan "
            "(sorted mode is byte-identical to the baseline)";
  s.row = d.name;
  s.col = col;
  s.labels = {{"dist", d.name},
              {"algo", "GroupBy"},
              {"width", "32"},
              {"order", col},
              {"threads", std::to_string(cfg.max_threads())}};
  s.run = [d, order](const run_config& rc) {
    return run_groupby_cell(rc, d, order);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_query_scenarios(const run_config& cfg) {
  using gen_d = dovetail::gen::distribution;
  // Tab-3 coverage without the full 14-instance catalog: high-entropy
  // uniform, a tiny-range degenerate (every bucket straddles the window —
  // pruning's worst case), and the exponential / zipfian skew families.
  const gen_d dists[] = {
      {dovetail::gen::dist_kind::uniform, 1e9, "Unif-1e9"},
      {dovetail::gen::dist_kind::uniform, 10, "Unif-10"},
      {dovetail::gen::dist_kind::exponential, 7, "Exp-7"},
      {dovetail::gen::dist_kind::zipfian, 1.0, "Zipf-1"},
  };
  for (const auto& d : dists) {
    // Unif-10 is excluded from the topk family on purpose: with 10
    // distinct keys the full sort dispatches to the counting kernel (1-2
    // passes, no scatter) and a rank-window selection cannot beat a sort
    // that never sorts — speedup_vs_fullsort hovers at ~1x by
    // construction, which says nothing about pruning. The degenerate
    // regime is still measured: query-select keeps Unif-10 (every bucket
    // straddles the window — pruning's worst case), and BENCHMARKS.md
    // records the analysis.
    if (d.param != 10) {
      register_topk_cell(cfg, d, 10, "k-10");
      register_topk_cell(cfg, d, 1000, "k-1000");
      register_topk_cell(cfg, d, std::max<std::size_t>(1, cfg.n / 100),
                         "k-n100");
    }
    register_select_cell(cfg, d, 0.5, "median");
    register_select_cell(cfg, d, 0.99, "p99");
  }
  // group_by wants duplicate-heavy keys: the 1e3-range uniform and the two
  // skewed families give small, medium and huge group-count regimes.
  const gen_d gb_dists[] = {
      {dovetail::gen::dist_kind::uniform, 1e3, "Unif-1e3"},
      {dovetail::gen::dist_kind::zipfian, 1.0, "Zipf-1"},
      {dovetail::gen::dist_kind::exponential, 7, "Exp-7"},
  };
  for (const auto& d : gb_dists) {
    register_groupby_cell(cfg, d, dovetail::group_order::sorted);
    register_groupby_cell(cfg, d, dovetail::group_order::fingerprint);
  }
}

}  // namespace dtb
