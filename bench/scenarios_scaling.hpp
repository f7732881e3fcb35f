// Scaling scenarios:
//   fig4e — self-speedup with varying worker counts (Fig 4(e), Appendix C
//           Figs 5-20). The sweep points come from --threads (default:
//           powers of two up to the hardware's worker count); each scenario
//           pins the scheduler for its runs and restores it afterwards.
//   fig4f — running time with growing input size (Fig 4(f), Appendix C
//           Figs 21-36): n/16, n/4 and n, per representative instance.
#pragma once

#include "dovetail/util/algorithms.hpp"
#include "harness.hpp"
#include "scenarios_matrix.hpp"

namespace dtb {

inline void register_scaling_scenarios(const run_config& cfg) {
  using dovetail::gen::dist_kind;
  using dovetail::gen::distribution;

  // --- Fig 4(e): thread scaling ---
  static const std::vector<distribution> e_instances = {
      {dist_kind::zipfian, 0.8, "Zipf-0.8"},  // Fig 4(e) headline
      {dist_kind::uniform, 1e7, "Unif-1e7"},  // Fig 5-like
      {dist_kind::exponential, 7, "Exp-7"},   // Fig 8-like
      {dist_kind::bexp, 100, "BExp-100"},     // Fig 12-like
  };
  for (const auto& d : e_instances) {
    for (dovetail::algo a : dovetail::all_parallel_algos()) {
      for (int p : cfg.thread_counts) {
        scenario s;
        s.bench = "fig4e";
        s.name = "fig4e/" + d.name + "/" + dovetail::algo_name(a) +
                 "/p=" + std::to_string(p);
        s.paper = "Fig 4(e), Figs 5-20: self-speedup vs worker count";
        s.row = d.name + "/p=" + std::to_string(p);
        s.col = dovetail::algo_name(a);
        s.labels = {{"dist", d.name},
                    {"algo", dovetail::algo_name(a)},
                    {"width", "32"},
                    {"threads", std::to_string(p)}};
        const std::size_t n = cfg.n;
        s.run = [d, a, n, p](const run_config& rc) {
          const auto& input = cached_input<dovetail::kv32>(d, n);
          const pool_size_scope pool(rc, p);
          timed_sort_spec spec;
          spec.check.stable = dovetail::algo_is_stable(a);
          return run_timed_sort(
              rc, input,
              algo_sort_fn<dovetail::kv32>(a, dovetail::key_of_kv32), spec);
        };
        scenario_registry::instance().add(std::move(s));
      }
    }
  }

  // --- Fig 4(f): size scaling ---
  static const std::vector<distribution> f_instances = {
      {dist_kind::zipfian, 0.8, "Zipf-0.8"},  // Fig 4(f) headline
      {dist_kind::uniform, 1e7, "Unif-1e7"},
      {dist_kind::bexp, 30, "BExp-30"},
  };
  // Deduplicated: the 1000-record floor makes the points collide for
  // small --n, and duplicate scenario names violate the JSON schema.
  std::vector<std::size_t> sizes;
  for (const std::size_t sz : {std::max<std::size_t>(1000, cfg.n / 16),
                               std::max<std::size_t>(1000, cfg.n / 4),
                               cfg.n})
    if (std::find(sizes.begin(), sizes.end(), sz) == sizes.end())
      sizes.push_back(sz);
  for (const auto& d : f_instances) {
    for (std::size_t sz : sizes) {
      for (dovetail::algo a : dovetail::all_parallel_algos()) {
        scenario s;
        s.bench = "fig4f";
        s.name = "fig4f/" + d.name + "/" + dovetail::algo_name(a) +
                 "/n=" + std::to_string(sz);
        s.paper = "Fig 4(f), Figs 21-36: running time vs input size";
        s.row = d.name + "/n=" + std::to_string(sz);
        s.col = dovetail::algo_name(a);
        s.labels = {{"dist", d.name},
                    {"algo", dovetail::algo_name(a)},
                    {"width", "32"},
                    {"n", std::to_string(sz)}};
        s.run = [d, a, sz](const run_config& rc) {
          const auto& input = cached_input<dovetail::kv32>(d, sz);
          timed_sort_spec spec;
          spec.check.stable = dovetail::algo_is_stable(a);
          return run_timed_sort(
              rc, input,
              algo_sort_fn<dovetail::kv32>(a, dovetail::key_of_kv32), spec);
        };
        scenario_registry::instance().add(std::move(s));
      }
    }
  }
}

}  // namespace dtb
