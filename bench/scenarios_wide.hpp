// The wide-key families (core/wide_sort.hpp through the front door):
//   wide-128 — dovetail::sort on 128-bit keys (__uint128_t and
//       pair<u64, u64>) over representative frequency families, at two
//       word-0 entropy levels: w0-16 (2^16 distinct high words — many
//       small equal-prefix segments, the comparison-finish path) and w0-4
//       (16 giant segments — the front-door refinement path). Cross-
//       checked record-exactly against std::stable_sort on the natural
//       key order, with the comparison sort timed on the same reps
//       (ms_StdStable / speedup_vs_std). The committed BENCH_wide.json
//       is the evidence that refine-by-segment radix beats a comparison
//       sort beyond the 64-bit word (target >= 1.3x at n = 1e6; the
//       committed run: geo-mean 1.58x, strings 2.3-3.4x, deep cells
//       1.33-1.39x, w0-16 128-bit cells 1.24-1.32x inside a +-10%
//       baseline-jitter band — see BENCHMARKS.md for the noise analysis).
//   wide-str — dovetail::sort on generated string keys (14-byte radix
//       prefix via the 7+1 string codec, MSD continuation probing and
//       radix-sorting one 7-byte word at a time whenever a large segment
//       is still tied) vs std::stable_sort on std::string, same protocol;
//       the check demands full lexicographic order, so the beyond-prefix
//       machinery is load-bearing, not decorative.
//   wide-str-lcp — the continuation stressor: generate_lcp_string_keys
//       plants a shared common prefix of 0/16/64/256 bytes, so the sort
//       must walk past the whole prefix before any byte distinguishes
//       keys — the probe skip-jumps the shared middle in one scan, so
//       deeper prefixes cost more scanning but no extra radix rounds.
//       Each cell interleaves the continuation (primary) with
//       std::stable_sort (ms_StdStable / speedup_vs_std) and reports
//       tiebreak_fallbacks, which must stay 0.
// All families record refine_rounds / wide_segments (and the lcp cells
// the continuation_* counters) next to the times, so the committed
// baseline also documents how much refinement each instance actually
// required.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "harness.hpp"

namespace dtb {

using u128 = unsigned __int128;
using pair64 = std::pair<std::uint64_t, std::uint64_t>;

// Bench-local trivially-copyable 128-bit composite record — the pkv
// precedent of scenarios_codec.hpp: a std::pair MEMBER would make the
// record non-trivially-copyable under libstdc++ and push the whole sort
// onto the encode-once path; real row layouts keep the words inline and
// project the pair in the key functor.
struct wkv128 {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint32_t value;
};

inline constexpr auto key_of_wkv128 = [](const wkv128& r) {
  return pair64{r.hi, r.lo};
};

// ---------------------------------------------------------------------------
// Cached wide inputs (pristine copy per key type / instance / n / entropy).

template <typename K>
const std::vector<dovetail::tkv<K>>& cached_wide_input(
    const dovetail::gen::distribution& d, std::size_t n, int hi_bits) {
  return memoize_input(
      d.name + "/" + std::to_string(n) + "/w0-" + std::to_string(hi_bits),
      [&] {
        return dovetail::gen::generate_wide_records<K>(d, n, 1, hi_bits);
      });
}

inline const std::vector<wkv128>& cached_wkv128_input(
    const dovetail::gen::distribution& d, std::size_t n, int hi_bits) {
  return memoize_input(
      d.name + "/" + std::to_string(n) + "/w0-" + std::to_string(hi_bits),
      [&] {
        std::vector<wkv128> a(n);
        dovetail::par::parallel_for(0, n, [&](std::size_t i) {
          const pair64 k = dovetail::gen::wide_key_from<pair64>(
              dovetail::gen::make_key(d, 1, i, n, 64), hi_bits);
          a[i] = {k.first, k.second, static_cast<std::uint32_t>(i)};
        });
        return a;
      });
}

inline const std::vector<std::string>& cached_string_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n), [&] {
    return dovetail::gen::generate_string_keys(d, n, 1);
  });
}

inline const std::vector<std::string>& cached_url_string_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n) + "/url", [&] {
    return dovetail::gen::generate_url_keys(d, n, 1);
  });
}

inline const std::vector<std::string>& cached_lcp_string_input(
    const dovetail::gen::distribution& d, std::size_t n, std::size_t lcp) {
  return memoize_input(
      d.name + "/" + std::to_string(n) + "/lcp-" + std::to_string(lcp), [&] {
        return dovetail::gen::generate_lcp_string_keys(d, n, 1, lcp);
      });
}

// ---------------------------------------------------------------------------
// wide-128 cells: trivially copyable records (tkv<u128> / wkv128),
// natural-order baseline. The key functor delivers the wide key; records
// carry a value = input-index stability witness.

template <typename Rec, typename KeyFn>
scenario_result run_wide_cell(const run_config& rc,
                              const std::vector<Rec>& input, KeyFn key) {
  scenario_result res;
  res.n = input.size();

  std::vector<Rec> work(input.size());
  // The refine counters describe the last call (reset before each); the
  // workspace allocations are summed over the timed calls.
  dovetail::sort_stats stats;
  dovetail::sort_kernel ran{};
  std::uint64_t allocs = 0;
  const auto run_auto = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    stats.reset();
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    ran = dovetail::sort(std::span<Rec>(work), key, opt);
    const double s = t.seconds();
    allocs += stats.workspace_allocations.load(std::memory_order_relaxed);
    return s;
  };
  const auto run_std = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    std::stable_sort(work.begin(), work.end(),
                     [&](const Rec& a, const Rec& b) {
                       return key(a) < key(b);
                     });
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_auto);
  if (rc.check) {
    std::vector<Rec> ref = input;
    std::stable_sort(ref.begin(), ref.end(),
                     [&](const Rec& a, const Rec& b) {
                       return key(a) < key(b);
                     });
    res.check = "pass";
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!(key(work[i]) == key(ref[i])) ||
          work[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail =
            "record at index " + std::to_string(i) +
            " differs from the stable natural-order reference";
        return res;
      }
    }
  }

  allocs = 0;
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  const std::vector<double> std_times =
      run_interleaved_reps(reps, res, run_auto, run_std);
  using K = std::remove_cvref_t<std::invoke_result_t<KeyFn, const Rec&>>;
  res.stats["ws_alloc_timed"] = static_cast<double>(allocs);
  // 1 + sort_kernel, the committed baseline's encoding.
  res.stats["chosen_kernel"] = 1.0 + static_cast<double>(ran);
  res.stats["codec_bits"] = dovetail::wide_key_traits<K>::encoded_bits;
  res.stats["refine_rounds"] = static_cast<double>(
      stats.refine_rounds.load(std::memory_order_relaxed));
  res.stats["wide_segments"] = static_cast<double>(
      stats.wide_segments.load(std::memory_order_relaxed));
  scenario_result sr;
  sr.times_s = std_times;
  res.stats["ms_StdStable"] = sr.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["speedup_vs_std"] = sr.median_s() / res.median_s();
  return res;
}

// wide-str cells: std::string keys (the encode-once pair path + the
// beyond-prefix tie-break), full-lexicographic check.
inline scenario_result run_wide_string_cell(
    const run_config& rc, const std::vector<std::string>& input) {
  scenario_result res;
  res.n = input.size();

  std::vector<std::string> work(input.size());
  dovetail::sort_stats stats;  // describes the last call: reset before each
  const auto run_auto = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    stats.reset();
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::sort(std::span<std::string>(work), opt);
    return t.seconds();
  };
  const auto run_std = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    std::stable_sort(work.begin(), work.end());
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_auto);
  if (rc.check) {
    std::vector<std::string> ref = input;
    std::stable_sort(ref.begin(), ref.end());
    if (work != ref) {
      res.check = "fail";
      res.check_detail =
          "output is not the full lexicographic std::stable_sort order";
      return res;
    }
    res.check = "pass";
  }

  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  const std::vector<double> std_times =
      run_interleaved_reps(reps, res, run_auto, run_std);
  res.stats["codec_bits"] =
      dovetail::wide_key_traits<std::string>::encoded_bits;
  res.stats["refine_rounds"] = static_cast<double>(
      stats.refine_rounds.load(std::memory_order_relaxed));
  res.stats["wide_segments"] = static_cast<double>(
      stats.wide_segments.load(std::memory_order_relaxed));
  scenario_result sr;
  sr.times_s = std_times;
  res.stats["ms_StdStable"] = sr.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["speedup_vs_std"] = sr.median_s() / res.median_s();
  return res;
}

// wide-str-lcp cells: MSD continuation (primary) interleaved with
// std::stable_sort, alternating which runs first (run_interleaved_reps).
inline scenario_result run_wide_lcp_cell(
    const run_config& rc, const std::vector<std::string>& input) {
  scenario_result res;
  res.n = input.size();

  std::vector<std::string> work(input.size());
  // The refine counters describe the last call (reset before each);
  // tiebreak_fallbacks and the workspace allocations are summed over the
  // timed calls, because the acceptance bar is that the continuation never
  // falls back to a comparison sort above the base case.
  dovetail::sort_stats stats;
  std::uint64_t cont_fallbacks = 0;
  std::uint64_t allocs = 0;
  const auto run_cont = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    stats.reset();
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::sort(std::span<std::string>(work), opt);
    const double s = t.seconds();
    cont_fallbacks +=
        stats.wide_tiebreak_fallbacks.load(std::memory_order_relaxed);
    allocs += stats.workspace_allocations.load(std::memory_order_relaxed);
    return s;
  };
  const auto run_std = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    std::stable_sort(work.begin(), work.end());
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_cont);
  if (rc.check) {
    std::vector<std::string> ref = input;
    std::stable_sort(ref.begin(), ref.end());
    if (work != ref) {
      res.check = "fail";
      res.check_detail =
          "continuation output is not the full lexicographic "
          "std::stable_sort order";
      return res;
    }
    res.check = "pass";
  }

  cont_fallbacks = 0;
  allocs = 0;
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  scenario_result sr;
  sr.times_s = run_interleaved_reps(reps, res, run_cont, run_std);
  res.stats["refine_rounds"] = static_cast<double>(
      stats.refine_rounds.load(std::memory_order_relaxed));
  res.stats["wide_segments"] = static_cast<double>(
      stats.wide_segments.load(std::memory_order_relaxed));
  res.stats["continuation_rounds"] = static_cast<double>(
      stats.wide_continuation_rounds.load(std::memory_order_relaxed));
  res.stats["continuation_segments"] = static_cast<double>(
      stats.wide_continuation_segments.load(std::memory_order_relaxed));
  res.stats["max_byte_offset"] = static_cast<double>(
      stats.wide_max_byte_offset.load(std::memory_order_relaxed));
  res.stats["ws_alloc_timed"] = static_cast<double>(allocs);
  res.stats["tiebreak_fallbacks"] = static_cast<double>(cont_fallbacks);
  res.stats["ms_StdStable"] = sr.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["speedup_vs_std"] = sr.median_s() / res.median_s();
  return res;
}

// ---------------------------------------------------------------------------

inline scenario register_wide_cell_base(const run_config& cfg,
                                        const char* key_tag,
                                        const dovetail::gen::distribution& d,
                                        int hi_bits) {
  scenario s;
  s.bench = "wide-128";
  const std::string col =
      std::string(key_tag) + "/w0-" + std::to_string(hi_bits);
  s.name = s.bench + "/" + d.name + "/" + col;
  s.paper = "128-bit keys through the refine-by-segment driver "
            "(multi-round distribution over key words)";
  s.row = d.name;
  s.col = col;
  s.labels = {{"dist", d.name},
              {"algo", "Auto"},
              {"width", "128"},
              {"key", key_tag},
              {"w0bits", std::to_string(hi_bits)},
              {"threads", std::to_string(cfg.max_threads())}};
  return s;
}

inline void register_wide_u128_cell(const run_config& cfg,
                                    const dovetail::gen::distribution& d,
                                    int hi_bits) {
  scenario s = register_wide_cell_base(cfg, "u128", d, hi_bits);
  const std::size_t n = cfg.n;
  s.run = [d, n, hi_bits](const run_config& rc) {
    const auto& input = cached_wide_input<u128>(d, n, hi_bits);
    return run_wide_cell(rc, input, dovetail::key_of_tkv<u128>);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_wide_pair_cell(const run_config& cfg,
                                    const dovetail::gen::distribution& d,
                                    int hi_bits) {
  scenario s = register_wide_cell_base(cfg, "pair-u64", d, hi_bits);
  const std::size_t n = cfg.n;
  s.run = [d, n, hi_bits](const run_config& rc) {
    const auto& input = cached_wkv128_input(d, n, hi_bits);
    return run_wide_cell(rc, input, key_of_wkv128);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_wide_string_cell(const run_config& cfg,
                                      const dovetail::gen::distribution& d) {
  scenario s;
  s.bench = "wide-str";
  s.name = s.bench + "/" + d.name + "/str";
  s.paper = "string keys: 14-byte radix window + MSD continuation "
            "beyond it (full lexicographic order)";
  s.row = d.name;
  s.col = "str";
  s.labels = {{"dist", d.name},
              {"algo", "Auto"},
              {"width", "str"},
              {"key", "string"},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n](const run_config& rc) {
    const auto& input = cached_string_input(d, n);
    return run_wide_string_cell(rc, input);
  };
  scenario_registry::instance().add(std::move(s));
}

// wide-str-url: URL-shaped keys — a realistic string workload where every
// key shares the scheme, most share "://www."-style subdomain prefixes,
// and the distinguishing bytes (host hash, path segment, 16-hex id) sit
// at staggered depths, so the 14-byte prefix window, the continuation
// probe AND the equal-prefix segment machinery all fire on one input.
inline void register_wide_url_cell(const run_config& cfg,
                                   const dovetail::gen::distribution& d) {
  scenario s;
  s.bench = "wide-str-url";
  s.name = s.bench + "/" + d.name + "/url";
  s.paper = "URL-shaped string keys: shared scheme + clustered host "
            "prefixes push the distinguishing bytes past the radix window";
  s.row = d.name;
  s.col = "url";
  s.labels = {{"dist", d.name},
              {"algo", "Auto"},
              {"width", "str"},
              {"key", "url"},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n](const run_config& rc) {
    const auto& input = cached_url_string_input(d, n);
    return run_wide_string_cell(rc, input);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_wide_lcp_cell(const run_config& cfg,
                                   const dovetail::gen::distribution& d,
                                   std::size_t lcp) {
  scenario s;
  s.bench = "wide-str-lcp";
  const std::string col = "lcp-" + std::to_string(lcp);
  s.name = s.bench + "/" + d.name + "/" + col;
  s.paper = "long-common-prefix strings: MSD continuation skip-jumps the "
            "shared prefix and radix-sorts the first differing word vs "
            "std::stable_sort";
  s.row = d.name;
  s.col = col;
  s.labels = {{"dist", d.name},
              {"algo", "Auto"},
              {"width", "str"},
              {"key", "string"},
              {"lcp", std::to_string(lcp)},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n, lcp](const run_config& rc) {
    const auto& input = cached_lcp_string_input(d, n, lcp);
    return run_wide_lcp_cell(rc, input);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_wide_scenarios(const run_config& cfg) {
  using gen_d = dovetail::gen::distribution;
  const gen_d dists[] = {
      {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"},
      {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
      {dovetail::gen::dist_kind::exponential, 7, "Exp-7"},
  };
  for (const auto& d : dists) {
    register_wide_u128_cell(cfg, d, 16);
    register_wide_pair_cell(cfg, d, 16);
    register_wide_string_cell(cfg, d);
  }
  // URL-shaped keys (generators/synthetic.hpp generate_url_keys): the
  // realistic mixed-depth string row next to the synthetic families.
  register_wide_url_cell(
      cfg, {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"});
  register_wide_url_cell(
      cfg, {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"});
  // The deep-refinement column: 16 giant equal-prefix segments, so the
  // word-1 rounds go back through the radix front door.
  register_wide_u128_cell(
      cfg, {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"}, 4);
  register_wide_pair_cell(
      cfg, {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, 4);
  // The continuation stressor: a shared common prefix of lcp bytes must
  // be walked before any byte distinguishes keys — the probe skip-jumps
  // it in one scan per round, so even lcp-256 takes only ~3 radix
  // rounds (lcp-0 doubles as the no-regression control).
  for (const std::size_t lcp : {std::size_t{0}, std::size_t{16},
                                std::size_t{64}, std::size_t{256}}) {
    register_wide_lcp_cell(
        cfg, {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"}, lcp);
    register_wide_lcp_cell(
        cfg, {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, lcp);
  }
}

}  // namespace dtb
