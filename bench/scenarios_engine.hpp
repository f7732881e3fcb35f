// Distribution-engine scenarios (Sec 2.4 / Appendix B; distribute.hpp):
//   engine-counting   — the public counting_sort() API as a caller uses it
//                       (per-call offsets vector, no shared workspace),
//                       stable blocked vs the unstable Thm 4.1 atomic
//                       scatter (strategy = unstable), by bucket count
//                       (formerly bench_counting_sort).
//   engine-distribute — scatter strategies head-to-head (direct | buffered
//                       | unstable | automatic) by bucket count (formerly
//                       bench_distribute).
//   engine-workspace  — DovetailSort with a warm persistent workspace vs a
//                       cold per-sort one: the cost of hot-path allocation
//                       the reusable arena removes.
//   engine-finish     — DTSort's base case alone (detail::radix_finish),
//                       serially over the light buckets DTSort's levels
//                       leave: ns per record of the sequential finish.
#pragma once

#include <cstring>
#include <limits>

#include "dovetail/core/counting_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/pass_plan.hpp"
#include "harness.hpp"
#include "scenarios_ablation.hpp"

namespace dtb {

inline const char* strategy_name(dovetail::scatter_strategy s) {
  switch (s) {
    case dovetail::scatter_strategy::automatic: return "Auto";
    case dovetail::scatter_strategy::direct: return "Direct";
    case dovetail::scatter_strategy::buffered: return "Buffered";
    case dovetail::scatter_strategy::unstable: return "Unstable";
  }
  return "?";
}

// One distribution pass of the whole input by its low log2(buckets) key
// bits, through the engine with the given strategy. Checks: every record
// lands in its bucket, buckets are contiguous in bucket order, the output
// is a permutation of the input, and (for stable strategies) input order
// survives within each bucket.
inline scenario_result run_distribute_once(
    const run_config& cfg, std::size_t n, std::size_t buckets,
    dovetail::scatter_strategy strategy) {
  const dovetail::gen::distribution d{dovetail::gen::dist_kind::uniform, 1e9,
                                      "Unif-1e9"};
  const auto& input = cached_input<dovetail::kv32>(d, n);
  scenario_result res;
  res.n = input.size();

  std::vector<dovetail::kv32> out(input.size());
  std::vector<std::size_t> offs(buckets + 1);
  const auto mask = static_cast<std::uint32_t>(buckets - 1);
  const auto bucket_of = [mask](const dovetail::kv32& r) -> std::size_t {
    return r.key & mask;
  };
  dovetail::sort_stats stats;
  dovetail::distribute_options opt;
  opt.strategy = strategy;
  opt.workspace = &suite_workspace();
  opt.stats = &stats;

  const auto one_run = [&]() -> double {
    dovetail::timer t;
    dovetail::distribute(std::span<const dovetail::kv32>(input),
                         std::span<dovetail::kv32>(out), buckets, bucket_of,
                         std::span<std::size_t>(offs), opt);
    return t.seconds();
  };
  run_warmups(cfg.warmups, one_run);
  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  run_timed_reps(cfg.reps, res, one_run);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);

  if (!cfg.check) return res;
  if (record_fingerprint(std::span<const dovetail::kv32>(input)) !=
      record_fingerprint(std::span<const dovetail::kv32>(out))) {
    res.check = "fail";
    res.check_detail = "output is not a permutation of the input";
    return res;
  }
  const bool stable = strategy != dovetail::scatter_strategy::unstable;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t b = bucket_of(out[i]);
    if (i < offs[b] || i >= offs[b + 1]) {
      res.check = "fail";
      res.check_detail = "record outside its bucket's offset range";
      return res;
    }
    if (stable && i > offs[b] && bucket_of(out[i - 1]) == b &&
        !(out[i - 1].value < out[i].value)) {
      res.check = "fail";
      res.check_detail = "stability violated within bucket";
      return res;
    }
  }
  res.check = "pass";
  return res;
}

// The counting_sort() convenience API, exactly as a library user calls it:
// no shared workspace (so every call allocates its own scratch), the
// default or the unstable scatter, and the returned offsets vector. The
// difference to engine-distribute — same kernel, warm leased scratch — is
// the measured cost of the convenience layer.
inline scenario_result run_counting_sort_api_once(const run_config& cfg,
                                                  std::size_t n,
                                                  std::size_t buckets,
                                                  bool stable) {
  const dovetail::gen::distribution d{dovetail::gen::dist_kind::uniform, 1e9,
                                      "Unif-1e9"};
  const auto& input = cached_input<dovetail::kv32>(d, n);
  scenario_result res;
  res.n = input.size();

  std::vector<dovetail::kv32> out(input.size());
  const auto mask = static_cast<std::uint32_t>(buckets - 1);
  const auto bucket_of = [mask](const dovetail::kv32& r) -> std::size_t {
    return r.key & mask;
  };
  std::vector<std::size_t> offs;
  dovetail::distribute_options opt;
  if (!stable) opt.strategy = dovetail::scatter_strategy::unstable;
  const auto one_run = [&]() -> double {
    dovetail::timer t;
    offs = dovetail::counting_sort(std::span<const dovetail::kv32>(input),
                                   std::span<dovetail::kv32>(out), buckets,
                                   bucket_of, opt);
    return t.seconds();
  };
  run_warmups(cfg.warmups, one_run);
  run_timed_reps(cfg.reps, res, one_run);

  if (!cfg.check) return res;
  if (offs.size() != buckets + 1 || offs.back() != input.size() ||
      record_fingerprint(std::span<const dovetail::kv32>(input)) !=
          record_fingerprint(std::span<const dovetail::kv32>(out))) {
    res.check = "fail";
    res.check_detail = "bad offsets or output not a permutation";
    return res;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t b = bucket_of(out[i]);
    if (i < offs[b] || i >= offs[b + 1]) {
      res.check = "fail";
      res.check_detail = "record outside its bucket's offset range";
      return res;
    }
    if (stable && i > offs[b] && !(out[i - 1].value < out[i].value)) {
      res.check = "fail";
      res.check_detail = "stability violated within bucket";
      return res;
    }
  }
  res.check = "pass";
  return res;
}

// DTSort's base case on the calling thread, over the light buckets DTSort's
// recursion hands it. The buckets are cut from the stable-sorted input the
// way its levels cut keys: by the top γ bits of the range left (γ from the
// pass planner and Thm 4.5's cap, as dovetail_sort plans it), again inside
// every bucket above θ records, so each bucket holds the keys that share
// their bits above some shift, in input order: what a stable distribution
// leaves in the T side of the (A, T) pair. Every bucket is then finished
// into A by detail::radix_finish, and A must equal std::stable_sort's
// bytes. Heavy keys, which DTSort's sampling would take out, stay in their
// buckets here, so Zipf's all-equal buckets finish by the min/max pass.
template <typename Rec>
scenario_result run_finish_once(const run_config& cfg,
                                const dovetail::gen::distribution& d,
                                std::size_t n) {
  using dovetail::detail::sampling_digit_cap;
  const auto& input = cached_input<Rec>(d, n);
  scenario_result res;
  res.n = input.size();
  using key_t = decltype(Rec::key);
  const auto key = [](const Rec& r) { return r.key; };

  std::vector<Rec> ref = input;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  const std::size_t theta = dovetail::sort_options{}.base_case;
  const int gamma =
      dovetail::detail::plan_digits(
          dovetail::detail::kDtsortDigits,
          {res.n, std::numeric_limits<key_t>::digits, theta, sizeof(Rec), 1})
          .digit;
  std::vector<std::size_t> cuts;  // bucket starts in ref, then res.n
  const auto cut = [&](auto&& self, std::size_t lo, std::size_t hi,
                       int bits) -> void {
    if (hi - lo <= theta || bits == 0) {
      cuts.push_back(lo);
      return;
    }
    const int shift =
        bits - std::min({gamma, bits, sampling_digit_cap(hi - lo)});
    for (std::size_t b = lo; b < hi;) {
      std::size_t e = b + 1;
      while (e < hi && ref[e].key >> shift == ref[b].key >> shift) ++e;
      self(self, b, e, shift);
      b = e;
    }
  };
  cut(cut, 0, res.n,
      res.n == 0 ? 0 : dovetail::bit_width_u64(ref.back().key));
  cuts.push_back(res.n);
  std::vector<Rec> part = ref;  // values are input indices
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    std::sort(part.begin() + cuts[i], part.begin() + cuts[i + 1],
              [](const Rec& a, const Rec& b) { return a.value < b.value; });
  }

  std::vector<Rec> t(res.n);
  std::vector<Rec> a(res.n);
  const auto one_run = [&]() -> double {
    std::copy(part.begin(), part.end(), t.begin());
    dovetail::timer tm;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      dovetail::detail::radix_finish(t.data() + cuts[i], a.data() + cuts[i],
                                     cuts[i + 1] - cuts[i],
                                     /*cur_is_a=*/false, key);
    }
    return tm.seconds();
  };
  run_warmups(cfg.warmups, one_run);
  run_timed_reps(cfg.reps, res, one_run);
  res.stats["bucket_records"] = static_cast<double>(res.n) /
                                static_cast<double>(cuts.size() - 1);
  res.stats["ns_per_rec"] =
      res.n == 0 ? 0.0 : res.median_s() * 1e9 / static_cast<double>(res.n);

  if (!cfg.check) return res;
  if (std::memcmp(a.data(), ref.data(), res.n * sizeof(Rec)) != 0) {
    res.check = "fail";
    res.check_detail = "finished buckets differ from std::stable_sort";
    return res;
  }
  res.check = "pass";
  return res;
}

inline void register_engine_scenarios(const run_config& cfg) {
  // --- engine-counting: the counting_sort API, stable vs unstable ---
  for (std::size_t b : {std::size_t{16}, std::size_t{256}, std::size_t{4096},
                        std::size_t{65536}}) {
    for (const bool stable : {true, false}) {
      scenario s;
      s.bench = "engine-counting";
      s.col = stable ? "Stable" : "Unstable";
      s.name = "engine/counting/" + std::string(s.col) +
               "/B=" + std::to_string(b);
      s.paper = "Appendix B: stable blocked vs unstable atomic counting "
                "sort (public API, cold scratch)";
      s.row = "B=" + std::to_string(b);
      s.labels = {{"algo", s.col}, {"buckets", std::to_string(b)},
                  {"dist", "Unif-1e9"}, {"width", "32"}};
      const std::size_t n = cfg.n;
      s.run = [n, b, stable](const run_config& rc) {
        return run_counting_sort_api_once(rc, n, b, stable);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }

  // --- engine-distribute: scatter strategies ---
  for (std::size_t b : {std::size_t{256}, std::size_t{4096},
                        std::size_t{65536}}) {
    for (const auto strategy : {dovetail::scatter_strategy::direct,
                                dovetail::scatter_strategy::buffered,
                                dovetail::scatter_strategy::unstable,
                                dovetail::scatter_strategy::automatic}) {
      scenario s;
      s.bench = "engine-distribute";
      s.col = strategy_name(strategy);
      s.name = "engine/distribute/" + std::string(s.col) +
               "/B=" + std::to_string(b);
      s.paper = "Appendix B + PR 1: scatter strategy vs bucket count";
      s.row = "B=" + std::to_string(b);
      s.labels = {{"algo", s.col}, {"buckets", std::to_string(b)},
                  {"dist", "Unif-1e9"}, {"width", "32"}};
      const std::size_t n = cfg.n;
      s.run = [n, b, strategy](const run_config& rc) {
        return run_distribute_once(rc, n, b, strategy);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }

  // --- engine-workspace: warm vs cold arena ---
  static const std::vector<dovetail::gen::distribution> ws_dists = {
      {dovetail::gen::dist_kind::uniform, 1e9, "Unif-1e9"},
      {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
  };
  for (const auto& d : ws_dists) {
    for (const bool warm : {true, false}) {
      scenario s;
      s.bench = "engine-workspace";
      s.col = warm ? "WarmWS" : "ColdWS";
      s.name = "engine/workspace/" + std::string(s.col) + "/" + d.name;
      s.paper = "PR 1: reusable workspace vs per-sort allocation";
      s.row = d.name;
      s.labels = {{"algo", std::string("DTSort-") + s.col}, {"dist", d.name},
                  {"width", "32"}};
      const std::size_t n = cfg.n;
      s.run = [d, n, warm](const run_config& rc) {
        const auto& input = cached_input<dovetail::kv32>(d, n);
        timed_sort_spec spec;
        spec.use_shared_workspace = warm;
        return run_timed_sort(
            rc, input,
            dtsort_opt_fn<dovetail::kv32>({}, dovetail::key_of_kv32), spec);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }

  // --- engine-finish: DTSort's sequential base case ---
  using dovetail::gen::dist_kind;
  struct finish_case {
    dovetail::gen::distribution dist;
    int width;
  };
  static const std::vector<finish_case> finish_cases = {
      {{dist_kind::uniform, 1e9, "Unif-1e9"}, 64},
      {{dist_kind::uniform, 1e9, "Unif-1e9"}, 32},
      {{dist_kind::zipfian, 1.2, "Zipf-1.2"}, 64},
      {{dist_kind::bexp, 30, "BExp-30"}, 64},
  };
  for (const auto& [d, width] : finish_cases) {
    scenario s;
    s.bench = "engine-finish";
    s.col = "RadixFinish";
    s.name = "engine/finish/" + std::to_string(width) + "bit/" + d.name;
    s.paper = "Sec 3.5 base case: serial radix finish of DTSort's buckets";
    s.row = d.name + "/" + std::to_string(width);
    s.labels = {{"algo", s.col}, {"dist", d.name},
                {"width", std::to_string(width)}};
    const std::size_t n = cfg.n;
    s.run = [d, width, n](const run_config& rc) {
      return width == 32 ? run_finish_once<dovetail::kv32>(rc, d, n)
                         : run_finish_once<dovetail::kv64>(rc, d, n);
    };
    scenario_registry::instance().add(std::move(s));
  }
}

}  // namespace dtb
