// The typed-key / SoA families (core/key_codec.hpp entry points):
//   codec-32 / codec-64 — dovetail::sort on signed (i32/i64), floating
//       (f32/f64) and composite (pair of u32, via a key functor) keys over
//       representative frequency families, cross-checked record-exactly
//       against a std::stable_sort reference ordered by the ENCODED key,
//       with the comparison sort itself timed on the same reps
//       (ms_StdStable / speedup_vs_std) — the committed BENCH_codec.json
//       is the evidence that radix-through-a-codec beats a comparison sort
//       on typed keys, not just on unsigned ones.
//   codec-soa — the SoA claim: sort_by_key(u32 keys, 28-byte rows) vs the
//       equivalent AoS dovetail::sort of 32-byte kv32w records on the same
//       data, interleaved rep by rep (stats: ms_AoS, soa_speedup — the
//       acceptance gate wants soa_speedup > 1), plus rank on the same rows
//       (argsort without moving a single record; verified non-mutating and
//       equal to the std::stable_sort permutation).
#pragma once

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "harness.hpp"

namespace dtb {

// Bench-local trivially-copyable record whose key is a (hi, lo) composite
// delivered by the key functor — the PBBS-style projection shape.
struct pkv {
  std::uint32_t hi;
  std::uint32_t lo;
  std::uint32_t value;
};

inline constexpr auto key_of_pkv = [](const pkv& r) {
  return std::pair<std::uint32_t, std::uint32_t>{r.hi, r.lo};
};

// ---------------------------------------------------------------------------
// Cached typed inputs (one pristine copy per type/instance/n, like
// cached_input in bench_common.hpp).

template <typename T>
const std::vector<dovetail::tkv<T>>& cached_typed_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n), [&] {
    return dovetail::gen::generate_typed_records<T>(d, n, 1);
  });
}

inline const std::vector<pkv>& cached_pkv_input(
    const dovetail::gen::distribution& d, std::size_t n) {
  return memoize_input(d.name + "/" + std::to_string(n), [&] {
    std::vector<pkv> a(n);
    dovetail::par::parallel_for(0, n, [&](std::size_t i) {
      const std::uint64_t u = dovetail::gen::make_key(d, 1, i, n, 64);
      a[i] = {static_cast<std::uint32_t>(u >> 32),
              static_cast<std::uint32_t>(u),
              static_cast<std::uint32_t>(i)};
    });
    return a;
  });
}

// ---------------------------------------------------------------------------
// codec-32 / codec-64 cells.

template <typename Rec, typename KeyFn>
scenario_result run_codec_cell(const run_config& rc,
                               const std::vector<Rec>& input, KeyFn key) {
  using K = std::remove_cvref_t<std::invoke_result_t<KeyFn, const Rec&>>;
  const auto enc = [&](const Rec& r) {
    return static_cast<std::uint64_t>(dovetail::key_codec<K>::encode(key(r)));
  };
  scenario_result res;
  res.n = input.size();

  std::vector<Rec> work(input.size());
  dovetail::sort_stats stats;
  dovetail::sort_kernel ran{};
  const auto run_auto = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    ran = dovetail::sort(std::span<Rec>(work), key, opt);
    return t.seconds();
  };
  const auto run_std = [&]() -> double {
    // The TIMED baseline compares keys naturally (one projection per
    // side, no encode): on these inputs — integers, finite-only floats,
    // pairs — natural order equals encoded order, and handicapping the
    // comparator would inflate speedup_vs_std. enc() stays in the
    // correctness reference only, where the NaN/-0.0 total order matters.
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
    // The stable reference, ordered by the encoded key (NaN-safe for
    // float domains, matches the kernels' -0.0 < +0.0 total order).
    std::vector<Rec> ref = input;
    std::stable_sort(ref.begin(), ref.end(),
                     [&](const Rec& a, const Rec& b) {
                       return enc(a) < enc(b);
                     });
    res.check = "pass";
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (enc(work[i]) != enc(ref[i]) || work[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail =
            "record at index " + std::to_string(i) +
            " differs from the stable encoded-key reference";
        return res;
      }
    }
  }

  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  const std::vector<double> std_times =
      run_interleaved_reps(reps, res, run_auto, run_std);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  // Kernel and codec as 1 + the enum value, the committed baseline's
  // encoding.
  res.stats["chosen_kernel"] = 1.0 + static_cast<double>(ran);
  res.stats["codec_kind"] =
      1.0 + static_cast<double>(dovetail::wide_key_traits<K>::kind);
  res.stats["codec_bits"] = dovetail::wide_key_traits<K>::encoded_bits;
  scenario_result sr;
  sr.times_s = std_times;
  res.stats["ms_StdStable"] = sr.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["speedup_vs_std"] = sr.median_s() / res.median_s();
  return res;
}

template <typename T>
void register_codec_cell(const run_config& cfg, const char* width_tag,
                         const char* key_tag,
                         const dovetail::gen::distribution& d) {
  scenario s;
  s.bench = std::string("codec-") + width_tag;
  s.name = s.bench + "/" + key_tag + "/" + d.name;
  s.paper = "typed keys through the codec front door (PBBS integer_sort(In, "
            "f) API shape)";
  s.row = d.name;
  s.col = key_tag;
  s.labels = {{"dist", d.name},  {"algo", "Auto"},
              {"width", width_tag}, {"key", key_tag},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n](const run_config& rc) {
    const auto& input = cached_typed_input<T>(d, n);
    return run_codec_cell(rc, input, dovetail::key_of_tkv<T>);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_codec_pair_cell(const run_config& cfg,
                                     const dovetail::gen::distribution& d) {
  scenario s;
  s.bench = "codec-64";
  s.name = std::string("codec-64/pair-u32/") + d.name;
  // Same family caption as the other codec-64 cells (the driver's table
  // title is last-write-wins per family); the composite-key specifics
  // live in the key label and column.
  s.paper = "typed keys through the codec front door (PBBS integer_sort(In, "
            "f) API shape)";
  s.row = d.name;
  s.col = "pair-u32";
  s.labels = {{"dist", d.name},  {"algo", "Auto"},
              {"width", "64"},   {"key", "pair-u32"},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n](const run_config& rc) {
    const auto& input = cached_pkv_input(d, n);
    return run_codec_cell(rc, input, key_of_pkv);
  };
  scenario_registry::instance().add(std::move(s));
}

// ---------------------------------------------------------------------------
// codec-soa: SoA sort_by_key vs AoS wide-record sort, and rank.

inline scenario_result run_soa_cell(const run_config& rc,
                                    const std::vector<dovetail::kv32w>& aos) {
  const std::size_t n = aos.size();
  scenario_result res;
  res.n = n;

  std::vector<std::uint32_t> keys0(n);
  std::vector<dovetail::row28> rows0(n);
  dovetail::par::parallel_for(0, n, [&](std::size_t i) {
    keys0[i] = aos[i].key;
    rows0[i].value = aos[i].value;
    for (int j = 0; j < 6; ++j) rows0[i].payload[j] = aos[i].payload[j];
  });

  std::vector<std::uint32_t> keys(n);
  std::vector<dovetail::row28> rows(n);
  std::vector<dovetail::kv32w> work(n);
  dovetail::sort_stats stats;      // the SoA variant: this scenario's metrics
  dovetail::sort_stats aos_stats;  // baseline kept separate, or its
                                   // allocations/snapshots would pollute them
  const auto run_soa = [&]() -> double {
    std::copy(keys0.begin(), keys0.end(), keys.begin());
    std::copy(rows0.begin(), rows0.end(), rows.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    dovetail::sort_by_key(std::span<std::uint32_t>(keys),
                          std::span<dovetail::row28>(rows), opt);
    return t.seconds();
  };
  const auto run_aos = [&]() -> double {
    std::copy(aos.begin(), aos.end(), work.begin());
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &aos_stats;
    dovetail::sort(std::span<dovetail::kv32w>(work),
                   dovetail::key_of_kv32w, opt);
    return t.seconds();
  };

  const int warmups = std::max(rc.warmups, 1);
  run_warmups(warmups, run_soa);
  run_warmups(warmups, run_aos);
  if (rc.check) {
    // The AoS result against the harness reference...
    check_sorted_output(res, aos, std::span<const dovetail::kv32w>(work),
                        check_spec{});
    if (res.check != "pass") return res;
    // ...and the SoA arrays must agree with it field for field, payload
    // words included (a torn row copy in the gather must not pass).
    for (std::size_t i = 0; i < n; ++i) {
      dovetail::row28 expect;
      expect.value = work[i].value;
      for (int j = 0; j < 6; ++j) expect.payload[j] = work[i].payload[j];
      if (keys[i] != work[i].key || !(rows[i] == expect)) {
        res.check = "fail";
        res.check_detail = "SoA result diverges from the AoS sort at index " +
                           std::to_string(i);
        return res;
      }
    }
  }

  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  const int reps = std::max(rc.reps, rc.quick ? rc.reps : 3);
  const std::vector<double> aos_times =
      run_interleaved_reps(reps, res, run_soa, run_aos);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  scenario_result ar;
  ar.times_s = aos_times;
  res.stats["ms_AoS"] = ar.median_s() * 1e3;
  if (res.median_s() > 0)
    res.stats["soa_speedup"] = ar.median_s() / res.median_s();
  return res;
}

inline scenario_result run_rank_cell(const run_config& rc,
                                     const std::vector<dovetail::kv32w>& aos) {
  const std::size_t n = aos.size();
  scenario_result res;
  res.n = n;
  dovetail::sort_stats stats;
  std::vector<dovetail::index_t> got;
  const auto one_run = [&]() -> double {
    dovetail::timer t;
    dovetail::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    opt.stats = &stats;
    got = dovetail::rank(std::span<const dovetail::kv32w>(aos),
                         dovetail::key_of_kv32w, opt);
    return t.seconds();
  };
  run_warmups(std::max(rc.warmups, 1), one_run);
  if (rc.check) {
    std::vector<dovetail::index_t> ref(n);
    std::iota(ref.begin(), ref.end(), dovetail::index_t{0});
    std::stable_sort(ref.begin(), ref.end(),
                     [&](dovetail::index_t a, dovetail::index_t b) {
                       return aos[a].key < aos[b].key;
                     });
    if (got != ref) {
      res.check = "fail";
      res.check_detail = "rank is not the stable std::stable_sort permutation";
      return res;
    }
    res.check = "pass";
  }
  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  run_timed_reps(std::max(rc.reps, rc.quick ? rc.reps : 3), res, one_run);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  return res;
}

inline void register_soa_cell(const run_config& cfg,
                              const dovetail::gen::distribution& d,
                              bool rank_cell) {
  scenario s;
  s.bench = "codec-soa";
  s.name = std::string("codec-soa/") + d.name + "/" +
           (rank_cell ? "Rank" : "SoA-32B");
  s.paper = rank_cell
                ? "stable argsort without moving 32-byte records"
                : "SoA sort_by_key vs AoS: stop dragging 32-byte rows "
                  "through every scatter";
  s.row = d.name;
  s.col = rank_cell ? "Rank" : "SoA-32B";
  s.labels = {{"dist", d.name},
              {"algo", rank_cell ? "Rank" : "SortByKey"},
              {"width", "32"},
              {"bytes", "32"},
              {"threads", std::to_string(cfg.max_threads())}};
  const std::size_t n = cfg.n;
  s.run = [d, n, rank_cell](const run_config& rc) {
    const auto& input = cached_input<dovetail::kv32w>(d, n);
    return rank_cell ? run_rank_cell(rc, input) : run_soa_cell(rc, input);
  };
  scenario_registry::instance().add(std::move(s));
}

// ---------------------------------------------------------------------------

inline void register_codec_scenarios(const run_config& cfg) {
  using gen_d = dovetail::gen::distribution;
  const gen_d dists[] = {
      {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"},
      {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
      {dovetail::gen::dist_kind::exponential, 7, "Exp-7"},
  };
  for (const auto& d : dists) {
    register_codec_cell<std::int32_t>(cfg, "32", "i32", d);
    register_codec_cell<float>(cfg, "32", "f32", d);
    register_codec_cell<std::int64_t>(cfg, "64", "i64", d);
    register_codec_cell<double>(cfg, "64", "f64", d);
    register_codec_pair_cell(cfg, d);
  }
  const gen_d soa_dists[] = {
      {dovetail::gen::dist_kind::uniform, 1e7, "Unif-1e7"},
      {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
  };
  for (const auto& d : soa_dists) {
    register_soa_cell(cfg, d, /*rank_cell=*/false);
    register_soa_cell(cfg, d, /*rank_cell=*/true);
  }
}

}  // namespace dtb
