// The parallel-* families: evidence for the parallel-by-default front door.
//
// Unlike fig4e (scenarios_scaling.hpp), which resizes the GLOBAL scheduler
// pool per sweep point, these cells keep the pool at --threads' maximum and
// sweep the per-call `num_threads` override (sort_options / auto_sort_options
// → par::scoped_worker_limit) — the mechanism a library embedder actually
// uses, since set_num_workers cannot be called with sorts in flight.
//
//   parallel-auto  — dovetail::sort on 64-bit keys (kv64) over representative
//       frequency families × n ∈ {--n/10, --n} × p ∈ --threads. Reports the
//       dispatcher's recorded decision (chosen_parallelism, effective_workers
//       from sort_stats) and speedup_vs_1t against the p=1 cell of the same
//       (dist, n) — the committed BENCH_parallel.json is the multi-thread
//       baseline the acceptance gate reads.
//   parallel-codec — the same sweep through the typed-key front door
//       (tkv<double>, encode → radix → decode), proving the per-call limit
//       composes with codec dispatch.
//   parallel-wide  — 128-bit (wkv128) and string keys through the
//       refine-by-segment sort: the pool counters (checkouts / hits /
//       creations, delta over the timed reps) prove the workspace_pool
//       actually engaged at p > 1 — hits without creations on warm reps is
//       the zero-steady-state-allocation property in the report.
//
// Every cell at p=1 must match the serial engine exactly: the scoped limit
// makes pardo take its serial path, parallel_for runs inline, and the wide
// driver keeps its ws-reuse loop — so the p=1 rows double as the no-serial-
// regression baseline for the existing families.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "harness.hpp"
#include "scenarios_codec.hpp"
#include "scenarios_wide.hpp"

namespace dtb {

// ---------------------------------------------------------------------------
// 1-thread medians, keyed by the cell id without the /p= suffix. The p=1
// scenario of each cell registers (and therefore runs) first; later sweep
// points look their baseline up here. Guarded: if --bench/--dist filtering
// dropped the p=1 cell, speedup_vs_1t is simply omitted.

inline std::map<std::string, double>& parallel_1t_medians() {
  static std::map<std::string, double> m;
  return m;
}

inline void note_parallel_speedup(const std::string& cell_key, int p,
                                  scenario_result& res) {
  if (p == 1) {
    parallel_1t_medians()[cell_key] = res.median_s();
    return;
  }
  const auto it = parallel_1t_medians().find(cell_key);
  if (it != parallel_1t_medians().end() && res.median_s() > 0)
    res.stats["speedup_vs_1t"] = it->second / res.median_s();
}

// ---------------------------------------------------------------------------
// Generic cell: dovetail::sort under a per-call worker limit. Hand-rolls
// the check against a natural-order std::stable_sort (run_timed_sort's
// u64-cast reference would mis-order typed keys), so one runner serves the
// unsigned, codec and wide families alike.

template <typename Rec, typename KeyFn>
scenario_result run_parallel_cell(const run_config& rc,
                                  const std::vector<Rec>& input, KeyFn key,
                                  int p, const std::string& cell_key) {
  scenario_result res;
  res.n = input.size();

  std::vector<Rec> work(input.size());
  dovetail::sort_stats stats;
  const auto one_run = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    opt.num_threads = p;
    dovetail::sort(std::span<Rec>(work), key, opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), one_run);
  if (rc.check) {
    std::vector<Rec> ref = input;
    std::stable_sort(ref.begin(), ref.end(),
                     [&](const Rec& a, const Rec& b) {
                       return key(a) < key(b);
                     });
    res.check = "pass";
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!(key(work[i]) == key(ref[i])) || work[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail = "record at index " + std::to_string(i) +
                           " differs from the stable reference at p=" +
                           std::to_string(p);
        return res;
      }
    }
  }

  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  run_timed_reps(rc.reps, res, one_run, &stats);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  res.stats["chosen_kernel"] = static_cast<double>(
      stats.chosen_kernel.load(std::memory_order_relaxed));
  res.stats["chosen_parallelism"] = static_cast<double>(
      stats.chosen_parallelism.load(std::memory_order_relaxed));
  res.stats["effective_workers"] = static_cast<double>(
      stats.effective_workers.load(std::memory_order_relaxed));
  note_parallel_speedup(cell_key, p, res);
  return res;
}

// ---------------------------------------------------------------------------
// Wide cells: wide_refine under a per-call worker limit (pool-backed
// above one worker). The shared workspace_pool's counters are sampled
// around the timed reps.

struct pool_counter_snapshot {
  std::uint64_t checkouts, hits, creations;
};

inline pool_counter_snapshot snap_pool() {
  auto& pool = dovetail::workspace_pool::shared();
  return {pool.checkouts(), pool.pool_hits(), pool.creations()};
}

template <typename Rec, typename KeyFn>
scenario_result run_parallel_wide_cell(const run_config& rc,
                                       const std::vector<Rec>& input,
                                       KeyFn key, int p,
                                       const std::string& cell_key) {
  scenario_result res;
  res.n = input.size();

  std::vector<Rec> work(input.size());
  dovetail::sort_stats stats;
  const auto run_pooled = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    opt.num_threads = p;
    dovetail::sort(std::span<Rec>(work), key, opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_pooled);
  if (rc.check) {
    std::vector<Rec> ref = input;
    std::stable_sort(ref.begin(), ref.end(),
                     [&](const Rec& a, const Rec& b) {
                       return key(a) < key(b);
                     });
    res.check = "pass";
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!(key(work[i]) == key(ref[i])) || work[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail = "record at index " + std::to_string(i) +
                           " differs from the stable reference at p=" +
                           std::to_string(p);
        return res;
      }
    }
  }

  const pool_counter_snapshot c0 = snap_pool();
  run_timed_reps(rc.reps, res, run_pooled, &stats);
  const pool_counter_snapshot c1 = snap_pool();

  res.stats["pool_checkouts_timed"] =
      static_cast<double>(c1.checkouts - c0.checkouts);
  res.stats["pool_hits_timed"] = static_cast<double>(c1.hits - c0.hits);
  res.stats["pool_creations_timed"] =
      static_cast<double>(c1.creations - c0.creations);
  res.stats["refine_rounds"] = static_cast<double>(
      stats.refine_rounds.load(std::memory_order_relaxed));
  res.stats["wide_segments"] = static_cast<double>(
      stats.wide_segments.load(std::memory_order_relaxed));
  res.stats["chosen_parallelism"] = static_cast<double>(
      stats.chosen_parallelism.load(std::memory_order_relaxed));
  note_parallel_speedup(cell_key, p, res);
  return res;
}

// String variant (no key functor / no .value member; full lexicographic
// check, like run_wide_string_cell).
inline scenario_result run_parallel_string_cell(
    const run_config& rc, const std::vector<std::string>& input, int p,
    const std::string& cell_key) {
  scenario_result res;
  res.n = input.size();

  std::vector<std::string> work(input.size());
  dovetail::sort_stats stats;
  const auto run_pooled = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    opt.num_threads = p;
    dovetail::sort(std::span<std::string>(work), opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_pooled);
  if (rc.check) {
    std::vector<std::string> ref = input;
    std::stable_sort(ref.begin(), ref.end());
    if (work != ref) {
      res.check = "fail";
      res.check_detail = "output is not the lexicographic stable order at "
                         "p=" + std::to_string(p);
      return res;
    }
    res.check = "pass";
  }

  const pool_counter_snapshot c0 = snap_pool();
  run_timed_reps(rc.reps, res, run_pooled, &stats);
  const pool_counter_snapshot c1 = snap_pool();

  res.stats["pool_checkouts_timed"] =
      static_cast<double>(c1.checkouts - c0.checkouts);
  res.stats["pool_hits_timed"] = static_cast<double>(c1.hits - c0.hits);
  res.stats["pool_creations_timed"] =
      static_cast<double>(c1.creations - c0.creations);
  res.stats["refine_rounds"] = static_cast<double>(
      stats.refine_rounds.load(std::memory_order_relaxed));
  res.stats["wide_segments"] = static_cast<double>(
      stats.wide_segments.load(std::memory_order_relaxed));
  res.stats["chosen_parallelism"] = static_cast<double>(
      stats.chosen_parallelism.load(std::memory_order_relaxed));
  note_parallel_speedup(cell_key, p, res);
  return res;
}

// ---------------------------------------------------------------------------
// Registration. Sweep points come from --threads sorted ascending so every
// cell's p=1 scenario runs before its multi-thread siblings (the registry
// preserves registration order and the driver runs sequentially).

inline std::vector<int> parallel_sweep_points(const run_config& cfg) {
  std::vector<int> ps = cfg.thread_counts;
  std::sort(ps.begin(), ps.end());
  ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  return ps;
}

// n ∈ {--n/10, --n} (deduplicated; collapses to one size under --quick's
// small n) — the two-decade spread the acceptance baselines want without
// the full fig4f size ladder.
inline std::vector<std::size_t> parallel_sizes(const run_config& cfg) {
  std::vector<std::size_t> sizes;
  for (const std::size_t sz :
       {std::max<std::size_t>(1000, cfg.n / 10), cfg.n})
    if (std::find(sizes.begin(), sizes.end(), sz) == sizes.end())
      sizes.push_back(sz);
  return sizes;
}

inline void register_parallel_scenarios(const run_config& cfg) {
  using dovetail::gen::dist_kind;
  using dovetail::gen::distribution;
  const std::vector<int> ps = parallel_sweep_points(cfg);
  const std::vector<std::size_t> sizes = parallel_sizes(cfg);

  // --- parallel-auto: 64-bit keys through the adaptive front door ---
  static const std::vector<distribution> auto_dists = {
      {dist_kind::uniform, 1e7, "Unif-1e7"},
      {dist_kind::zipfian, 1.2, "Zipf-1.2"},
  };
  for (const auto& d : auto_dists) {
    for (const std::size_t n : sizes) {
      for (const int p : ps) {
        scenario s;
        s.bench = "parallel-auto";
        const std::string cell =
            s.bench + "/" + d.name + "/n=" + std::to_string(n);
        s.name = cell + "/p=" + std::to_string(p);
        s.paper = "parallel-by-default dispatch: per-call num_threads sweep";
        s.row = d.name + "/n=" + std::to_string(n);
        s.col = "p=" + std::to_string(p);
        s.labels = {{"dist", d.name},         {"algo", "Auto"},
                    {"width", "64"},          {"n", std::to_string(n)},
                    {"threads", std::to_string(p)}};
        s.run = [d, n, p, cell](const run_config& rc) {
          const auto& input = cached_input<dovetail::kv64>(d, n);
          return run_parallel_cell(rc, input, dovetail::key_of_kv64, p,
                                   cell);
        };
        scenario_registry::instance().add(std::move(s));
      }
    }
  }

  // --- parallel-codec: f64 keys, encode → radix → decode under the cap ---
  static const distribution codec_dist = {dist_kind::uniform, 1e7,
                                          "Unif-1e7"};
  for (const std::size_t n : sizes) {
    for (const int p : ps) {
      scenario s;
      s.bench = "parallel-codec";
      const std::string cell =
          s.bench + "/f64/" + codec_dist.name + "/n=" + std::to_string(n);
      s.name = cell + "/p=" + std::to_string(p);
      s.paper = "typed-key path under the per-call worker limit";
      s.row = "f64/" + codec_dist.name + "/n=" + std::to_string(n);
      s.col = "p=" + std::to_string(p);
      s.labels = {{"dist", codec_dist.name}, {"algo", "Auto"},
                  {"width", "64"},           {"key", "f64"},
                  {"n", std::to_string(n)},  {"threads", std::to_string(p)}};
      s.run = [n, p, cell](const run_config& rc) {
        const auto& input = cached_typed_input<double>(codec_dist, n);
        return run_parallel_cell(rc, input, dovetail::key_of_tkv<double>, p,
                                 cell);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }

  // --- parallel-wide: pool-backed segment refine under the thread sweep ---
  static const distribution wide_dist = {dist_kind::zipfian, 1.2,
                                         "Zipf-1.2"};
  for (const std::size_t n : sizes) {
    for (const int p : ps) {
      scenario s;
      s.bench = "parallel-wide";
      const std::string cell =
          s.bench + "/u128/" + wide_dist.name + "/n=" + std::to_string(n);
      s.name = cell + "/p=" + std::to_string(p);
      s.paper = "workspace_pool-backed wide refine (128-bit)";
      s.row = "u128/" + wide_dist.name + "/n=" + std::to_string(n);
      s.col = "p=" + std::to_string(p);
      s.labels = {{"dist", wide_dist.name},  {"algo", "Auto"},
                  {"width", "128"},          {"key", "u128"},
                  {"n", std::to_string(n)},  {"threads", std::to_string(p)}};
      s.run = [n, p, cell](const run_config& rc) {
        // 4 entropy bits in word 0: a handful of large segments per round —
        // exactly the shape the pooled refine is for.
        const auto& input = cached_wkv128_input(wide_dist, n, 4);
        return run_parallel_wide_cell(rc, input, key_of_wkv128, p, cell);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }
  for (const std::size_t n : sizes) {
    for (const int p : ps) {
      scenario s;
      s.bench = "parallel-wide";
      const std::string cell =
          s.bench + "/str/" + wide_dist.name + "/n=" + std::to_string(n);
      s.name = cell + "/p=" + std::to_string(p);
      s.paper = "workspace_pool-backed wide refine (strings)";
      s.row = "str/" + wide_dist.name + "/n=" + std::to_string(n);
      s.col = "p=" + std::to_string(p);
      s.labels = {{"dist", wide_dist.name},  {"algo", "Auto"},
                  {"width", "var"},          {"key", "str"},
                  {"n", std::to_string(n)},  {"threads", std::to_string(p)}};
      s.run = [n, p, cell](const run_config& rc) {
        const auto& input = cached_string_input(wide_dist, n);
        return run_parallel_string_cell(rc, input, p, cell);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }
}

}  // namespace dtb
