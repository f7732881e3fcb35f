// In-place kernel scenarios: the block-permutation kernel
// (core/inplace_sort.hpp) against the engine's preferred out-of-place
// kernel, on the same pure-key inputs.
//
// Protocol: the two variants run INTERLEAVED — every timed round runs
// both on pristine copies, alternating which goes first — so neither
// systematically inherits a cold cache or the allocator churn of its
// predecessor (same rationale as run_interleaved_reps). The in-place
// kernel is the primary (its times are the scenario's); the rival's
// median lands in stats as ms_OutOfPlace, and the memory story is
// reported as peak_ws_bytes (in-place high-water, from
// sort_stats::peak_workspace_bytes) next to peak_ws_bytes_oop (the
// rival's O(n) ping-pong high-water). Inputs are pure keys, so the sorted
// sequence is unique and both variants are checked byte-for-byte against
// one std::sort reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "harness.hpp"

namespace dtb {

template <typename K>
const std::vector<K>& cached_key_input(const dovetail::gen::distribution& d,
                                       std::size_t n) {
  return memoize_input(
      d.name + "/keys/" + std::to_string(n),
      [&] { return dovetail::gen::generate_keys<K>(d, n, 1); });
}

template <typename K>
scenario_result run_inplace_cell(const run_config& cfg,
                                 const std::vector<K>& input) {
  scenario_result res;
  res.n = input.size();

  std::vector<K> ref;
  if (cfg.check) {
    ref = input;
    std::sort(ref.begin(), ref.end());
  }

  // Dedicated workspaces: the peak-workspace comparison is the point of
  // this family, so no variant may ride another's (or the suite's) slabs.
  dovetail::sort_workspace ws_in, ws_oop;
  dovetail::sort_stats st_in, st_oop;
  std::vector<K> work(input.size());

  const auto timed = [&](auto&& sort_fn, std::vector<double>& times) {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    sort_fn(std::span<K>(work));
    const double s = t.seconds();
    times.push_back(s);
    if (cfg.check && res.check != "fail" &&
        !std::equal(work.begin(), work.end(), ref.begin())) {
      res.check = "fail";
      res.check_detail = "output differs from the std::sort reference";
    }
    return s;
  };

  const auto run_inplace = [&](std::span<K> s) {
    dovetail::auto_sort_options o;
    o.policy = dovetail::policy::always(dovetail::sort_kernel::inplace);
    o.workspace = &ws_in;
    o.stats = &st_in;
    dovetail::sort(s, o);
  };
  const auto run_oop = [&](std::span<K> s) {
    // Unpinned: the dispatcher picks its preferred out-of-place kernel
    // for this distribution (it never chooses in-place without a budget).
    dovetail::auto_sort_options o;
    o.workspace = &ws_oop;
    o.stats = &st_oop;
    dovetail::sort(s, o);
  };

  std::vector<double> t_in, t_oop;
  for (int w = 0; w < cfg.warmups; ++w) {
    timed(run_inplace, t_in);
    timed(run_oop, t_oop);
  }
  t_in.clear();
  t_oop.clear();

  for (int r = 0; r < cfg.reps; ++r) {
    // Alternate the in-round order so each variant leads equally often.
    if (r % 2 == 0) {
      timed(run_inplace, t_in);
      timed(run_oop, t_oop);
    } else {
      timed(run_oop, t_oop);
      timed(run_inplace, t_in);
    }
    st_in.note_timed_run(t_in.back(), res.n);
  }
  res.times_s = t_in;

  const auto median_ms = [](std::vector<double> ts) {
    if (ts.empty()) return 0.0;
    std::sort(ts.begin(), ts.end());
    return ts[ts.size() / 2] * 1e3;
  };
  res.stats["ms_OutOfPlace"] = median_ms(t_oop);
  res.stats["peak_ws_bytes"] = static_cast<double>(st_in.peak_workspace());
  res.stats["peak_ws_bytes_oop"] =
      static_cast<double>(st_oop.peak_workspace());
  res.stats["inplace_passes"] = static_cast<double>(
      st_in.inplace_passes.load(std::memory_order_relaxed));
  if (res.check != "fail" && cfg.check) res.check = "pass";
  return res;
}

template <typename K>
void register_inplace_cell(const run_config& cfg, const std::string& bench,
                           const dovetail::gen::distribution& d,
                           const char* width_tag) {
  scenario s;
  s.bench = bench;
  s.name = bench + "/" + width_tag + "bit/" + d.name + "/InPlace";
  s.paper =
      "In-place block permutation (IPS2Ra/RegionsSort role, Tab 2) vs "
      "out-of-place ping-pong";
  s.row = d.name;
  s.col = std::string("InPlace/") + width_tag;
  s.labels = {{"dist", d.name}, {"algo", "InPlace"}, {"width", width_tag}};
  const std::size_t n = cfg.n;
  s.run = [d, n](const run_config& rc) {
    return run_inplace_cell<K>(rc, cached_key_input<K>(d, n));
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_inplace_scenarios(const run_config& cfg) {
  using dovetail::gen::find_distribution;
  // Light- through heavy-duplicate instances plus the bit-skewed family.
  for (const char* name :
       {"Unif-1e9", "Unif-1e5", "Exp-5", "Zipf-1.2", "BExp-30"})
    register_inplace_cell<std::uint32_t>(cfg, "inplace-32",
                                         *find_distribution(name), "32");
  for (const char* name : {"Unif-1e9", "Zipf-1.2", "BExp-100"})
    register_inplace_cell<std::uint64_t>(cfg, "inplace-64",
                                         *find_distribution(name), "64");
}

}  // namespace dtb
