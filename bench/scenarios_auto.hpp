// The adaptive-front-door families (core/auto_sort.hpp):
//   auto-32 / auto-64 — dovetail::sort on every Tab 3 distribution at both
//       key widths, timed against each hand-pinned candidate kernel
//       (policy::always) on the same cached input. Each scenario's primary
//       time is the dispatcher's; the pinned medians, the best of them and
//       the dispatcher's ratio to that best land in `stats`, so a committed
//       report is itself the evidence for the "within a few percent of the
//       best hand-picked kernel" claim (docs/TUNING.md; acceptance gate of
//       the auto-sort PR).
//   auto-sketch — inputs engineered to exercise the cheap-branch kernels
//       the Tab 3 matrix never triggers (sorted / reverse-sorted /
//       near-sorted => run_merge, tiny key range => counting, small n =>
//       serial std_sort), pinned against the same candidates.
//
// Verification per scenario, on top of the harness's std::sort cross-check
// for every timed kernel: the dispatcher's decision (the kernel
// dovetail::sort returns) lands in stats.chosen_kernel, and every pinned
// run must report exactly the kernel it was pinned to — a silently
// ignored policy::always fails the suite.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "harness.hpp"

namespace dtb {

// Sort-in-place closure for run_timed_sort routing through the front door;
// reports the kernel that actually ran via `*ran`.
template <typename Rec, typename KeyFn>
auto auto_sort_fn(std::optional<dovetail::sort_kernel> pin, KeyFn key,
                  dovetail::sort_kernel* ran) {
  return [pin, key, ran](std::span<Rec> s, dovetail::sort_stats* st,
                         dovetail::sort_workspace* ws) {
    dovetail::auto_sort_options opt;
    if (pin.has_value()) opt.policy = dovetail::policy::always(*pin);
    opt.workspace = ws;
    opt.stats = st;
    *ran = dovetail::sort(s, key, opt);
  };
}

// One auto scenario: time the dispatcher against every pinned candidate on
// the same input; record per-candidate medians and the ratio to the best.
//
// Timed runs are INTERLEAVED round-robin across the variants (auto, pin0,
// pin1, ...) rather than run as per-kernel blocks: on a shared box,
// machine drift (CPU steal, thermal dips) arrives in multi-second phases,
// and block timing attributes a whole phase to whichever kernel it landed
// on (observed: two runs of the *same* kernel 1.5-2.5x apart across
// blocks). Interleaving spreads each phase over all variants, so the
// ratios — this family's product — compare like with like.
template <typename Rec, typename KeyFn>
scenario_result run_auto_cell(
    const run_config& rc, const std::vector<Rec>& input, KeyFn key,
    std::span<const dovetail::sort_kernel> candidates) {
  // Ratios also need more than the default 3 medians-of reps; full runs
  // take at least 5 per variant. --quick keeps its own clamp: there the
  // checks, not the times, are the point.
  const int reps = rc.quick ? rc.reps : std::max(rc.reps, 5);
  const int warmups = std::max(rc.warmups, 1);

  struct variant {
    std::optional<dovetail::sort_kernel> pin;  // nullopt = the dispatcher
    dovetail::sort_kernel ran{};
    std::vector<double> times_s;
  };
  std::vector<variant> vars;
  vars.push_back({});
  for (const dovetail::sort_kernel pin : candidates)
    vars.push_back({pin, {}, {}});

  scenario_result res;
  res.n = input.size();
  std::vector<Rec> work(input.size());
  dovetail::sort_stats stats;
  const auto one_run = [&](variant& v) -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    auto_sort_fn<Rec>(v.pin, key, &v.ran)(std::span<Rec>(work), &stats,
                                          &suite_workspace());
    return t.seconds();
  };

  // Warm-up each variant; verify its output and its pin while it is the
  // one sitting in `work`.
  for (variant& v : vars) {
    run_warmups(warmups, [&] { return one_run(v); });
    if (v.pin.has_value() && v.ran != *v.pin) {
      res.check = "fail";
      res.check_detail = std::string("policy::always(") +
                         dovetail::kernel_name(*v.pin) + ") ran " +
                         dovetail::kernel_name(v.ran);
      return res;
    }
    if (rc.check) {
      scenario_result chk;
      chk.n = res.n;
      check_sorted_output(chk, input, std::span<const Rec>(work),
                          check_spec{});
      if (chk.check != "pass") {
        res.check = "fail";
        res.check_detail =
            std::string(v.pin ? dovetail::kernel_name(*v.pin) : "Auto") +
            ": " + chk.check_detail;
        return res;
      }
      res.check = "pass";
    }
  }

  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  // Shuffle the execution order each rep (deterministic Fisher-Yates):
  // whoever runs right after std::stable_sort's 8-16 MB allocation churn
  // inherits a different cache/TLB/heap state than whoever runs after a
  // workspace-resident radix pass, and any FIXED cycle order pins that
  // predecessor effect on one variant (measured: a systematic 5-15% on
  // LLC-resident inputs — rotating the start point alone does not help,
  // since the cyclic neighbor stays the same).
  std::vector<std::size_t> order(vars.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[dovetail::par::rand_range(
                    0x0DDEC0DEull + static_cast<std::uint64_t>(r), i, i)]);
    for (const std::size_t idx : order) {
      variant& v = vars[idx];
      v.times_s.push_back(one_run(v));
    }
  }
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);

  res.times_s = vars[0].times_s;  // the scenario's primary time = Auto's
  res.stats["chosen_kernel"] = static_cast<double>(vars[0].ran);

  double best_pinned = 0, best_pinned_min = 0;
  for (const variant& v : vars) {
    if (!v.pin.has_value()) continue;
    scenario_result vr;
    vr.times_s = v.times_s;
    const double med = vr.median_s();
    res.stats[std::string("ms_") + dovetail::kernel_name(*v.pin)] =
        med * 1e3;
    if (best_pinned == 0 || med < best_pinned) best_pinned = med;
    if (best_pinned_min == 0 || vr.min_s() < best_pinned_min)
      best_pinned_min = vr.min_s();
  }
  if (best_pinned > 0) {
    res.stats["best_pinned_ms"] = best_pinned * 1e3;
    res.stats["ratio_to_best"] = res.median_s() / best_pinned;
    // Noise on a shared box is one-sided (CPU steal only ever adds time),
    // so best-of-reps is the robust cost estimate; the min ratio separates
    // real dispatch overhead from an unlucky median.
    res.stats["ratio_to_best_min"] = res.min_s() / best_pinned_min;
  }

  // The sketch behind the decision (recomputed here — deterministic, so it
  // is byte-for-byte what the dispatcher saw).
  const auto sk = dovetail::sketch_input(std::span<const Rec>(input), key);
  res.stats["sketch_key_bits"] = sk.key_bits;
  res.stats["sketch_distinct_pct"] = 100.0 * sk.distinct_ratio();
  res.stats["sketch_top_pct"] = 100.0 * sk.top_freq();
  res.stats["sketch_digit_top_pct"] = 100.0 * sk.digit_top_share();
  res.stats["sketch_desc_pct"] =
      sk.probes == 0 ? 0.0
                     : 100.0 * static_cast<double>(sk.desc_probes) /
                           static_cast<double>(sk.probes);
  return res;
}

// The Tab 3 matrix candidates: the two kernels that ever win there, plus
// the serial reference. run_merge/counting are structurally inapplicable to
// these instances (no presortedness, hashed full-range keys) and are
// exercised by the auto-sketch family instead.
inline std::span<const dovetail::sort_kernel> auto_matrix_candidates() {
  static const dovetail::sort_kernel c[] = {dovetail::sort_kernel::lsd,
                                            dovetail::sort_kernel::dtsort,
                                            dovetail::sort_kernel::std_sort};
  return c;
}

template <typename Rec, typename KeyFn>
void register_auto_cell(const run_config& cfg, const char* width_tag,
                        const dovetail::gen::distribution& d, KeyFn key) {
  scenario s;
  s.bench = std::string("auto-") + width_tag;
  s.name = s.bench + "/" + d.name;
  s.paper = "adaptive dispatch vs best hand-picked kernel (Tab 3 premise)";
  s.row = d.name;
  s.col = "Auto";
  s.labels = {{"dist", d.name},
              {"algo", "Auto"},
              {"width", width_tag},
              {"bytes", std::to_string(sizeof(Rec))},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n, key](const run_config& rc) {
    const auto& input = cached_input<Rec>(d, n);
    return run_auto_cell(rc, input, key, auto_matrix_candidates());
  };
  scenario_registry::instance().add(std::move(s));
}

// --- auto-sketch: engineered inputs for the cheap branches. ---

inline const std::vector<dovetail::kv32>& auto_showcase_input(
    const std::string& tag, std::size_t n) {
  static std::map<std::string, std::unique_ptr<std::vector<dovetail::kv32>>>
      cache;
  const std::string key = tag + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto v = std::make_unique<std::vector<dovetail::kv32>>(n);
  auto& a = *v;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t k = 0;
    if (tag == "sorted-asc") {
      k = static_cast<std::uint32_t>(i / 3);  // sorted, with duplicates
    } else if (tag == "reverse-desc") {
      k = static_cast<std::uint32_t>(n - i);  // strictly descending
    } else if (tag == "near-sorted") {
      k = static_cast<std::uint32_t>(i);      // rotated below: few runs
    } else if (tag == "tiny-range") {
      k = static_cast<std::uint32_t>(
          dovetail::par::rand_range(13, i, 3'000));
    } else {  // "serial-small": generic random keys, n is what matters
      k = static_cast<std::uint32_t>(dovetail::par::rand_at(17, i));
    }
    a[i] = {k, static_cast<std::uint32_t>(i)};
  }
  if (tag == "near-sorted" && n > 2)
    std::rotate(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n / 3),
                a.end());
  if (tag == "near-sorted")  // values must stay the stability witness
    for (std::size_t i = 0; i < n; ++i) a[i].value =
        static_cast<std::uint32_t>(i);
  it = cache.emplace(key, std::move(v)).first;
  return *it->second;
}

inline void register_auto_showcase(const run_config& cfg, const char* tag,
                                   dovetail::sort_kernel special,
                                   bool shrink_to_serial = false) {
  scenario s;
  s.bench = "auto-sketch";
  s.name = std::string("auto-sketch/") + tag;
  s.paper = "sketch branches beyond Tab 3: presortedness / tiny range / "
            "serial threshold";
  s.row = tag;
  s.col = "Auto";
  s.labels = {{"dist", tag}, {"algo", "Auto"},
              {"width", "32"},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n =
      shrink_to_serial ? std::min<std::size_t>(cfg.n, 400) : cfg.n;
  const std::string tag_s = tag;
  s.run = [tag_s, n, special](const run_config& rc) {
    const auto& input = auto_showcase_input(tag_s, n);
    const dovetail::sort_kernel candidates[] = {
        special, dovetail::sort_kernel::lsd, dovetail::sort_kernel::dtsort};
    scenario_result res = run_auto_cell(
        rc, input, dovetail::key_of_kv32,
        std::span<const dovetail::sort_kernel>(candidates));
    // These inputs exist to prove their branch fires: a dispatcher that
    // routes them elsewhere regresses the front door.
    if (rc.check && res.check == "pass" &&
        res.stats["chosen_kernel"] != static_cast<double>(special)) {
      res.check = "fail";
      res.check_detail =
          std::string("expected dispatch to ") +
          dovetail::kernel_name(special) + ", got " +
          dovetail::kernel_name(static_cast<dovetail::sort_kernel>(
              static_cast<int>(res.stats["chosen_kernel"])));
    }
    return res;
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_auto_scenarios(const run_config& cfg) {
  for (const auto& d : dovetail::gen::paper_distributions()) {
    register_auto_cell<dovetail::kv32>(cfg, "32", d, dovetail::key_of_kv32);
    register_auto_cell<dovetail::kv64>(cfg, "64", d, dovetail::key_of_kv64);
  }
  register_auto_showcase(cfg, "sorted-asc", dovetail::sort_kernel::run_merge);
  register_auto_showcase(cfg, "reverse-desc",
                         dovetail::sort_kernel::run_merge);
  register_auto_showcase(cfg, "near-sorted",
                         dovetail::sort_kernel::run_merge);
  register_auto_showcase(cfg, "tiny-range", dovetail::sort_kernel::counting);
  register_auto_showcase(cfg, "serial-small",
                         dovetail::sort_kernel::std_sort,
                         /*shrink_to_serial=*/true);
}

}  // namespace dtb
