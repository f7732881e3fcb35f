// The unified benchmark harness (tentpole of the benchmark subsystem).
//
// One machine replaces the seven-odd standalone bench mains the repo grew
// from the seed:
//   * scenario registry       — every benchmark is a named, labelled,
//     filterable `scenario` registered with the global registry; the single
//     bench_suite driver runs them all.
//   * timing protocol         — per scenario: warm-up runs (also warm the
//     shared sort_workspace), then `reps` timed runs on a pristine copy of
//     the cached input; min/median/mean/stddev/max are reported.
//   * correctness cross-check — every sorter scenario's output is checked
//     against a std::sort reference (cached per input), plus an
//     order-independent (key, value) fingerprint proving the output is a
//     permutation of the input, plus a stability check for stable sorters
//     (input values are indices, so equal keys must keep increasing
//     values). A failed check fails the whole suite run.
//   * sort_stats capture      — work counters (levels, heavy%, ...) and the
//     workspace allocation/reuse deltas across the *timed* runs (the warm-
//     path zero-allocation property) land in the JSON next to the times.
//   * JSON emission           — one schema-validated report
//     (BENCH_suite.json; see bench_json.hpp for the schema and
//     tools/check_bench_json.cpp for the CI gate).
//
// Scenario definitions live in scenarios_*.hpp; shared input caching and
// the paper-style tables are in bench_common.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/timer.hpp"

namespace dtb {

// ---------------------------------------------------------------------------
// Run configuration (CLI flags + environment defaults).

struct run_config {
  std::size_t n = bench_n();          // records per instance (--n, DTBENCH_N)
  int reps = bench_reps();            // timed repetitions (--reps)
  int warmups = 1;                    // untimed warm-up runs (--warmup)
  bool check = true;                  // cross-check outputs (--no-check)
  bool quick = false;                 // CI smoke mode (--quick)
  std::vector<int> thread_counts;     // scaling sweep points (--threads)
  std::string json_path;              // emit JSON report here (--json)
  std::string bench_filter;           // substring filter on family (--bench)
  std::string dist_filter;            // substring filter on instance (--dist)
  std::string algo_filter;            // substring filter on sorter (--algo)
  int width_filter = 0;               // 0 = all, else 32/64 (--width)
  bool list_only = false;             // print scenarios, do not run (--list)

  [[nodiscard]] int max_threads() const {
    int m = 1;
    for (int p : thread_counts) m = std::max(m, p);
    return m;
  }
};

// One sweep point on a pool of `p` workers; the pool goes back to
// --threads' maximum when the cell returns or throws. A call runs serial
// or on the whole pool, so thread sweeps resize the pool.
class pool_size_scope {
 public:
  pool_size_scope(const run_config& rc, int p) : restore_(rc.max_threads()) {
    dovetail::par::scheduler::set_num_workers(p);
  }
  ~pool_size_scope() { dovetail::par::scheduler::set_num_workers(restore_); }
  pool_size_scope(const pool_size_scope&) = delete;
  pool_size_scope& operator=(const pool_size_scope&) = delete;

 private:
  int restore_;
};

// ---------------------------------------------------------------------------
// Scenario + result model.

struct scenario_result {
  std::vector<double> times_s;              // one entry per timed run
  std::size_t n = 0;                        // records processed per run
  std::string check = "skipped";            // "pass" | "fail" | "skipped"
  std::string check_detail;                 // human-readable failure reason
  std::map<std::string, double> stats;      // numeric extras for the JSON

  [[nodiscard]] double min_s() const {
    double m = times_s.empty() ? 0 : times_s[0];
    for (double t : times_s) m = std::min(m, t);
    return m;
  }
  [[nodiscard]] double max_s() const {
    double m = 0;
    for (double t : times_s) m = std::max(m, t);
    return m;
  }
  [[nodiscard]] double median_s() const {
    if (times_s.empty()) return 0;
    std::vector<double> ts = times_s;
    std::sort(ts.begin(), ts.end());
    return ts[ts.size() / 2];
  }
  [[nodiscard]] double mean_s() const {
    if (times_s.empty()) return 0;
    double sum = 0;
    for (double t : times_s) sum += t;
    return sum / static_cast<double>(times_s.size());
  }
  [[nodiscard]] double stddev_s() const {
    if (times_s.size() < 2) return 0;
    const double mu = mean_s();
    double acc = 0;
    for (double t : times_s) acc += (t - mu) * (t - mu);
    return std::sqrt(acc / static_cast<double>(times_s.size() - 1));
  }
};

struct scenario {
  std::string bench;   // family tag, e.g. "table3-32" — the --bench axis
  std::string name;    // unique id, e.g. "table3/32bit/Unif-1e9/DTSort"
  std::string paper;   // what it reproduces, e.g. "Tab 3 (left), Fig 1"
  std::string row, col;  // cell in the family's paper-style table
  std::map<std::string, std::string> labels;  // dist / algo / width / ...
  std::function<scenario_result(const run_config&)> run;
};

class scenario_registry {
 public:
  static scenario_registry& instance() {
    static scenario_registry r;
    return r;
  }

  void add(scenario s) { scenarios_.push_back(std::move(s)); }
  [[nodiscard]] const std::vector<scenario>& scenarios() const {
    return scenarios_;
  }

 private:
  std::vector<scenario> scenarios_;
};

inline bool label_matches(const scenario& s, const std::string& label,
                          const std::string& filter) {
  if (filter.empty()) return true;
  auto it = s.labels.find(label);
  return it != s.labels.end() && it->second.find(filter) != std::string::npos;
}

inline bool scenario_matches(const scenario& s, const run_config& cfg) {
  if (!cfg.bench_filter.empty() &&
      s.bench.find(cfg.bench_filter) == std::string::npos &&
      s.name.find(cfg.bench_filter) == std::string::npos)
    return false;
  if (!label_matches(s, "dist", cfg.dist_filter)) return false;
  if (!label_matches(s, "algo", cfg.algo_filter)) return false;
  if (cfg.width_filter != 0) {
    // Exact match, unlike the substring filters: "3" must not select "32".
    auto it = s.labels.find("width");
    if (it == s.labels.end() ||
        it->second != std::to_string(cfg.width_filter))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The shared timing protocol for scenarios that hand-roll their run body
// (run_timed_sort below composes these; custom scenarios call them so the
// warm-up/reps/stats behaviour never diverges between families).

template <typename RunFn>
void run_warmups(int warmups, RunFn&& one_run) {
  for (int w = 0; w < warmups; ++w) one_run();
}

// Appends `reps` timed runs to res.times_s.
template <typename RunFn>
void run_timed_reps(int reps, scenario_result& res, RunFn&& one_run) {
  for (int r = 0; r < reps; ++r) res.times_s.push_back(one_run());
}

// Paired A-vs-baseline timing: `reps` interleaved rounds, alternating
// which variant runs first each round — a fixed cycle order pins the
// cache/heap-predecessor effect (e.g. std::stable_sort's allocation churn
// vs a workspace-resident radix pass) on one variant, the measured 5-15%
// systematic bias documented in scenarios_auto.hpp. Primary times land in
// res.times_s; the baseline's times are returned.
template <typename RunA, typename RunB>
std::vector<double> run_interleaved_reps(int reps, scenario_result& res,
                                         RunA&& run_primary,
                                         RunB&& run_baseline) {
  std::vector<double> baseline_times;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      res.times_s.push_back(run_primary());
      baseline_times.push_back(run_baseline());
    } else {
      baseline_times.push_back(run_baseline());
      res.times_s.push_back(run_primary());
    }
  }
  return baseline_times;
}

// ---------------------------------------------------------------------------
// Shared warm workspace: the suite measures warm-path speed (the ROADMAP's
// zero-hot-path-allocation property), so all sorter scenarios lease their
// engine scratch from this one arena. Scenarios that specifically measure
// cold behaviour (engine/workspace/ColdWS) opt out.

inline dovetail::sort_workspace& suite_workspace() {
  static dovetail::sort_workspace ws;
  return ws;
}

// ---------------------------------------------------------------------------
// Correctness cross-check. The reference is literally std::sort over the
// extracted keys, computed once per cached input and reused by every
// scenario on that input.

template <typename Rec>
const std::vector<std::uint64_t>& cached_sorted_keys(
    const std::vector<Rec>& input) {
  // The cache key is the input's address, which the heap can recycle after
  // a caller-owned input dies — so every hit is revalidated against an
  // order-independent O(n) key checksum before the O(n log n) reference is
  // trusted (stale entries are recomputed, never served).
  struct entry {
    std::size_t n;
    std::uint64_t checksum;
    std::vector<std::uint64_t> sorted_keys;
  };
  static std::map<const void*, entry> cache;
  std::uint64_t checksum = 0;
  for (const Rec& r : input)
    checksum += dovetail::par::hash64(static_cast<std::uint64_t>(r.key));
  auto it = cache.find(input.data());
  if (it == cache.end() || it->second.n != input.size() ||
      it->second.checksum != checksum) {
    std::vector<std::uint64_t> keys(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
      keys[i] = static_cast<std::uint64_t>(input[i].key);
    std::sort(keys.begin(), keys.end());
    it = cache.insert_or_assign(
                  input.data(),
                  entry{input.size(), checksum, std::move(keys)})
             .first;
  }
  return it->second.sorted_keys;
}

// Order-independent multiset fingerprint over (key, value) pairs: equal for
// two arrays iff (whp) one is a permutation of the other.
template <typename Rec>
std::uint64_t record_fingerprint(std::span<const Rec> a) {
  std::uint64_t fp = 0;
  // Inner hash64 spreads the key over all 64 bits before value is mixed
  // in, so no key bit is ever shifted out of the fingerprint.
  for (const Rec& r : a)
    fp += dovetail::par::hash64(
        dovetail::par::hash64(static_cast<std::uint64_t>(r.key)) ^
        static_cast<std::uint64_t>(r.value) ^ 0x9E3779B97F4A7C15ull);
  return fp;
}

struct check_spec {
  bool order = true;        // output keys must equal the std::sort reference
  bool stable = true;       // equal keys must keep increasing .value fields
  bool permutation = true;  // output must be a permutation of the input
};

// Fills res.check / res.check_detail. Inputs produced by gen::generate_*
// carry value == input index, which is what the stability check relies on.
template <typename Rec>
void check_sorted_output(scenario_result& res, const std::vector<Rec>& input,
                         std::span<const Rec> out, const check_spec& spec) {
  if (out.size() != input.size()) {
    res.check = "fail";
    res.check_detail = "output size mismatch";
    return;
  }
  if (spec.permutation &&
      record_fingerprint(std::span<const Rec>(input)) !=
          record_fingerprint(out)) {
    res.check = "fail";
    res.check_detail = "output is not a permutation of the input";
    return;
  }
  if (spec.order) {
    const auto& ref = cached_sorted_keys(input);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (static_cast<std::uint64_t>(out[i].key) != ref[i]) {
        res.check = "fail";
        res.check_detail = "key at index " + std::to_string(i) +
                           " differs from the std::sort reference";
        return;
      }
    }
  }
  if (spec.order && spec.stable) {
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i - 1].key == out[i].key &&
          !(out[i - 1].value < out[i].value)) {
        res.check = "fail";
        res.check_detail =
            "stability violated at index " + std::to_string(i);
        return;
      }
    }
  }
  res.check = "pass";
  if (!spec.order) res.check_detail = "permutation only (order ablated)";
}

// ---------------------------------------------------------------------------
// The generic timed runner for whole-sort scenarios.

struct timed_sort_spec {
  check_spec check;               // which correctness properties to demand
  bool use_shared_workspace = true;
  int reps_override = 0;          // 0 = cfg.reps
  int warmups_override = -1;      // -1 = cfg.warmups
};

// `sort_fn(std::span<Rec>, dovetail::sort_stats*, dovetail::sort_workspace*)`
// sorts in place; the workspace pointer is the shared warm arena (or null
// when the spec opts out) and may be ignored by sorters without workspace
// support. Timing covers the sort only; the input copy is outside the clock.
template <typename Rec, typename SortFn>
scenario_result run_timed_sort(const run_config& cfg,
                               const std::vector<Rec>& input,
                               SortFn&& sort_fn,
                               const timed_sort_spec& spec = {}) {
  scenario_result res;
  res.n = input.size();
  const int reps = spec.reps_override > 0 ? spec.reps_override : cfg.reps;
  const int warmups =
      spec.warmups_override >= 0 ? spec.warmups_override : cfg.warmups;

  std::vector<Rec> work(input.size());
  dovetail::sort_stats stats;
  dovetail::sort_workspace* ws =
      spec.use_shared_workspace ? &suite_workspace() : nullptr;

  const auto one_run = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dovetail::timer t;
    sort_fn(std::span<Rec>(work), &stats, ws);
    return t.seconds();
  };

  run_warmups(warmups, one_run);

  // Snapshot the workspace counters here: any allocation recorded below
  // happened on a *warm* run, which the workspace design promises away.
  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  const std::uint64_t reuse0 =
      stats.workspace_reuses.load(std::memory_order_relaxed);

  run_timed_reps(reps, res, one_run);

  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  res.stats["ws_reuse_timed"] = static_cast<double>(
      stats.workspace_reuses.load(std::memory_order_relaxed) - reuse0);

  // Work-bound counters (Sec 4 of the paper), averaged per run. Only
  // instrumented sorters bump them; skip the noise for the rest.
  const double runs = static_cast<double>(warmups + reps);
  const double dn = static_cast<double>(input.size());
  if (const auto dr = stats.distributed_records.load(); dr > 0) {
    res.stats["levels"] = static_cast<double>(dr) / (runs * dn);
    res.stats["heavy_pct"] =
        100.0 * static_cast<double>(stats.heavy_records.load()) / (runs * dn);
    res.stats["base_pct"] = 100.0 *
                            static_cast<double>(stats.base_case_records.load()) /
                            (runs * dn);
    res.stats["ovf_pct"] = 100.0 *
                           static_cast<double>(stats.overflow_records.load()) /
                           (runs * dn);
    res.stats["max_depth"] = static_cast<double>(stats.max_depth.load());
  }

  if (cfg.check)
    check_sorted_output(res, input, std::span<const Rec>(work), spec.check);
  return res;
}

// ---------------------------------------------------------------------------
// JSON report (schema in bench_json.hpp).

inline std::string iso8601_now() {
  const std::time_t t =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  char buf[32];
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

inline json::value make_report(
    const run_config& cfg, const std::string& description,
    const std::vector<std::pair<const scenario*, scenario_result>>& runs) {
  json::object context;
  context["date"] = iso8601_now();
  context["host_cpus"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  context["threads"] = static_cast<std::uint64_t>(dovetail::par::num_workers());
  context["n_records"] = static_cast<std::uint64_t>(cfg.n);
  context["reps"] = cfg.reps;
  context["warmups"] = cfg.warmups;
  context["quick"] = cfg.quick;
#ifdef NDEBUG
  context["build_type"] = "release";
#else
  context["build_type"] = "debug";
#endif
  context["note"] =
      "relative shapes, not absolute times, are the signal (the paper runs "
      "n=1e9 on 96 cores)";

  json::array results;
  for (const auto& [sc, res] : runs) {
    json::object entry;
    entry["name"] = sc->name;
    entry["bench"] = sc->bench;
    entry["paper"] = sc->paper;
    entry["iterations"] =
        static_cast<std::uint64_t>(res.times_s.size());
    entry["real_time_ms"] = res.median_s() * 1e3;
    entry["min_ms"] = res.min_s() * 1e3;
    entry["median_ms"] = res.median_s() * 1e3;
    entry["mean_ms"] = res.mean_s() * 1e3;
    entry["stddev_ms"] = res.stddev_s() * 1e3;
    entry["max_ms"] = res.max_s() * 1e3;
    entry["time_unit"] = "ms";
    entry["n"] = static_cast<std::uint64_t>(res.n);
    entry["throughput_mrec_s"] =
        res.median_s() > 0
            ? static_cast<double>(res.n) / res.median_s() / 1e6
            : 0.0;
    entry["check"] = res.check;
    if (!res.check_detail.empty()) entry["check_detail"] = res.check_detail;
    json::object labels;
    for (const auto& [k, v] : sc->labels) labels[k] = v;
    entry["labels"] = std::move(labels);
    if (!res.stats.empty()) {
      json::object stats;
      for (const auto& [k, v] : res.stats) stats[k] = v;
      entry["stats"] = std::move(stats);
    }
    results.push_back(json::value(std::move(entry)));
  }

  json::object root;
  root["description"] = description;
  root["schema_version"] = 1;
  root["context"] = std::move(context);
  root["results"] = std::move(results);
  return {std::move(root)};
}

}  // namespace dtb
