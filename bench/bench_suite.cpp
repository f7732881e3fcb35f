// bench_suite — the single driver for the unified benchmark harness. All
// paper-reproduction benchmarks (Fig 4a-f, Tab 3, Tab 4, Appendix B, the
// Sec 4 work-bound validation) plus the engine/workspace micro-benchmarks
// are registered scenarios (scenarios_*.hpp) run through one timing,
// correctness-checking and JSON-emitting pipeline (harness.hpp).
//
// Usage:
//   bench_suite [--n N] [--reps R] [--warmup W] [--threads 1,2,4]
//               [--bench FAMILY] [--dist SUBSTR] [--algo SUBSTR]
//               [--width 32|64] [--json OUT.json] [--quick] [--list]
//               [--no-check]
//
//   --bench/--dist/--algo  substring filters (e.g. --bench table3-32,
//                          --dist Zipf, --algo DTSort)
//   --threads              comma-separated worker counts; the largest is
//                          the global worker count, all are fig4e sweep
//                          points (default: powers of two up to hardware)
//   --quick                CI smoke mode: tiny n, 2 reps — runs every
//                          scenario fast enough for a PR gate
//   --json                 write the schema-validated report (the file
//                          committed as BENCH_suite.json)
//
// Environment: DTBENCH_N / DTBENCH_REPS give the defaults for --n/--reps.
// Exit code: 0 iff every executed scenario's correctness check passed.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "harness.hpp"
#include "scenarios_ablation.hpp"
#include "scenarios_apps.hpp"
#include "scenarios_auto.hpp"
#include "scenarios_codec.hpp"
#include "scenarios_engine.hpp"
#include "scenarios_inplace.hpp"
#include "scenarios_matrix.hpp"
#include "scenarios_parallel.hpp"
#include "scenarios_query.hpp"
#include "scenarios_scaling.hpp"
#include "scenarios_service.hpp"
#include "scenarios_wide.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--n N] [--reps R] [--warmup W] [--threads 1,2,4]\n"
      "          [--bench FAMILY] [--dist SUBSTR] [--algo SUBSTR]\n"
      "          [--width 32|64] [--json OUT.json] [--quick] [--list]\n"
      "          [--no-check]\n",
      argv0);
}

// Strict: every comma-separated token must be a positive integer, or the
// run is rejected — a silently dropped typo ("1O" for 10) would produce a
// scaling sweep at the wrong thread counts.
bool parse_thread_list(const std::string& arg, std::vector<int>& out) {
  out.clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const long p = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || end != tok.c_str() + tok.size() || p < 1 ||
        p > 4096) {
      std::fprintf(stderr, "bad --threads token: '%s'\n", tok.c_str());
      return false;
    }
    out.push_back(static_cast<int>(p));
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

std::vector<int> default_thread_list() {
  const int maxp = dovetail::par::scheduler::default_num_workers();
  std::vector<int> out;
  for (int p = 1; p <= maxp; p *= 2) out.push_back(p);
  if (out.empty() || out.back() != maxp) out.push_back(maxp);
  return out;
}

bool parse_args(int argc, char** argv, dtb::run_config& cfg) {
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--n") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      // Range-check before the cast: float→size_t of a negative or
      // unrepresentable value is UB, so the n<2 guard below could not
      // catch it.
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(x >= 2) || x > 1e15) {
        std::fprintf(stderr, "bad --n value: '%s'\n", v);
        return false;
      }
      cfg.n = static_cast<std::size_t>(x);
    } else if (std::strcmp(a, "--reps") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.reps = std::atoi(v);
    } else if (std::strcmp(a, "--warmup") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.warmups = std::atoi(v);
    } else if (std::strcmp(a, "--threads") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      if (!parse_thread_list(v, cfg.thread_counts)) return false;
    } else if (std::strcmp(a, "--bench") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.bench_filter = v;
    } else if (std::strcmp(a, "--dist") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.dist_filter = v;
    } else if (std::strcmp(a, "--algo") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.algo_filter = v;
    } else if (std::strcmp(a, "--width") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      if (std::strcmp(v, "32") == 0) {
        cfg.width_filter = 32;
      } else if (std::strcmp(v, "64") == 0) {
        cfg.width_filter = 64;
      } else {
        std::fprintf(stderr, "--width must be 32 or 64, got '%s'\n", v);
        return false;
      }
    } else if (std::strcmp(a, "--json") == 0) {
      if ((v = need_value(i)) == nullptr) return false;
      cfg.json_path = v;
    } else if (std::strcmp(a, "--quick") == 0) {
      cfg.quick = true;
    } else if (std::strcmp(a, "--list") == 0) {
      cfg.list_only = true;
    } else if (std::strcmp(a, "--no-check") == 0) {
      cfg.check = false;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      usage(argv[0]);
      return false;
    }
  }
  if (cfg.quick) {
    cfg.n = std::min<std::size_t>(cfg.n, 50'000);
    cfg.reps = std::min(cfg.reps, 2);
  }
  if (cfg.n < 2 || cfg.reps < 1 || cfg.warmups < 0) {
    std::fprintf(stderr, "invalid --n/--reps/--warmup values\n");
    return false;
  }
  if (cfg.thread_counts.empty()) cfg.thread_counts = default_thread_list();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dtb::run_config cfg;
  if (!parse_args(argc, argv, cfg)) return 2;

  dovetail::par::scheduler::set_num_workers(cfg.max_threads());

  auto& registry = dtb::scenario_registry::instance();
  dtb::register_matrix_scenarios(cfg);
  dtb::register_ablation_scenarios(cfg);
  dtb::register_scaling_scenarios(cfg);
  dtb::register_engine_scenarios(cfg);
  dtb::register_apps_scenarios(cfg);
  dtb::register_theory_scenarios(cfg);
  dtb::register_auto_scenarios(cfg);
  dtb::register_codec_scenarios(cfg);
  dtb::register_wide_scenarios(cfg);
  dtb::register_parallel_scenarios(cfg);
  dtb::register_service_scenarios(cfg);
  dtb::register_query_scenarios(cfg);
  dtb::register_inplace_scenarios(cfg);

  std::vector<const dtb::scenario*> selected;
  for (const auto& s : registry.scenarios())
    if (dtb::scenario_matches(s, cfg)) selected.push_back(&s);

  if (cfg.list_only) {
    for (const auto* s : selected)
      std::printf("%-52s [%s] %s\n", s->name.c_str(), s->bench.c_str(),
                  s->paper.c_str());
    std::printf("%zu of %zu scenarios selected\n", selected.size(),
                registry.scenarios().size());
    // The distribution catalog: the names --dist (and dtsort_cli) accept.
    std::printf("\ndistribution families (instances are Family-param, any "
                "positive param):\n");
    for (const auto& f : dovetail::gen::distribution_families())
      std::printf("  %-6s %-8s %s\n", std::string(f.prefix).c_str(),
                  (std::string("<") + std::string(f.param) + ">").c_str(),
                  std::string(f.description).c_str());
    std::printf("paper instances (Tab 3):");
    for (const auto& d : dovetail::gen::paper_distributions())
      std::printf(" %s", d.name.c_str());
    std::printf("\n");
    return 0;
  }

  if (selected.empty()) {
    // A gate that selects nothing must not pass vacuously (typo'd filter,
    // renamed family).
    std::fprintf(stderr,
                 "no scenarios match the given filters (of %zu registered); "
                 "try --list\n",
                 registry.scenarios().size());
    // A --dist typo is the common cause; if the filter does not even parse
    // as a distribution name, say exactly why (satellite of the auto-sort
    // PR: unknown names fail distinguishably, not silently).
    if (!cfg.dist_filter.empty()) {
      std::string err;
      if (!dovetail::gen::find_distribution(cfg.dist_filter, &err)
               .has_value())
        std::fprintf(stderr, "note: --dist '%s' is also not a distribution "
                             "name: %s\n",
                     cfg.dist_filter.c_str(), err.c_str());
    }
    return 2;
  }

  std::printf("bench_suite: %zu scenarios (of %zu registered), n=%zu, "
              "reps=%d, warmup=%d, workers=%d%s\n",
              selected.size(), registry.scenarios().size(), cfg.n, cfg.reps,
              cfg.warmups, dovetail::par::num_workers(),
              cfg.quick ? ", quick" : "");

  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.reserve(selected.size());
  std::size_t failures = 0;
  bool report_invalid = false;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const dtb::scenario* s = selected[i];
    dtb::scenario_result res = s->run(cfg);
    const char* mark = res.check == "fail" ? "FAIL" : "ok";
    if (res.check == "fail") ++failures;
    std::printf("[%4zu/%zu] %-52s %9.3f ms  %s\n", i + 1, selected.size(),
                s->name.c_str(), res.median_s() * 1e3, mark);
    if (res.check == "fail")
      std::printf("          check failed: %s\n", res.check_detail.c_str());
    std::fflush(stdout);
    runs.emplace_back(s, std::move(res));
  }

  // Paper-style tables, one per family, in first-seen order.
  std::vector<std::string> family_order;
  std::map<std::string, dtb::result_table> tables;
  std::map<std::string, std::string> family_paper;
  for (const auto& [s, res] : runs) {
    if (tables.find(s->bench) == tables.end()) family_order.push_back(s->bench);
    tables[s->bench].add(s->row, s->col, res.median_s());
    family_paper[s->bench] = s->paper;
  }
  for (const auto& fam : family_order) {
    const bool heatmap = fam.rfind("table3", 0) == 0;
    tables[fam].print(fam + " — " + family_paper[fam] +
                          " (seconds, median of " +
                          std::to_string(cfg.reps) + ")",
                      heatmap);
  }

  if (!cfg.json_path.empty()) {
    const dtb::json::value report = dtb::make_report(
        cfg,
        "Unified benchmark suite: sorter x distribution x width x payload "
        "matrix, paper figure/table reproductions (Fig 4a-f, Tab 3, Tab 4, "
        "Appendix B), engine micro-benchmarks, Sec 4 work-bound "
        "validation, the adaptive front door (auto families: "
        "dovetail::sort vs pinned kernels), the typed-key/SoA codec "
        "families (codec-32/64: signed/float/pair keys vs std::stable_sort; "
        "codec-soa: sort_by_key + rank vs the AoS wide-record sort), and "
        "the wide-key families (wide-128: u128/pair-u64 keys through the "
        "refine-by-segment driver vs std::stable_sort; wide-str: string "
        "keys, 16-byte radix prefix + tie-break), and the parallel "
        "families (parallel-auto/codec/wide: the per-call num_threads "
        "sweep, the wide one through the workspace_pool refine), and "
        "the service families (service-batch: the open-loop batched sort "
        "service, request-size mix x concurrency, req/s with p50/p99 "
        "latency; service-stream: chunked streaming ingestion vs the "
        "one-shot front door), and the query families (query-topk/select: "
        "rank-pruned stable top_k and nth_element vs std::partial_sort / "
        "std::nth_element and vs paying for the full sort; query-groupby: "
        "first-class group_by vs stable_sort-then-scan), and the in-place "
        "families (inplace-32/64: the block-permutation kernel vs the "
        "engine's out-of-place pick, with peak leased workspace reported "
        "per variant). Times "
        "are medians over the "
        "timed repetitions on a warm workspace; every scenario is "
        "cross-checked (see 'check').",
        runs);
    std::string err;
    dtb::json::value reparsed;
    const std::string text = report.dump();
    if (!dtb::json::parse(text, reparsed, err) ||
        !dtb::json::validate_bench_schema(reparsed, err)) {
      // A "fail" check intentionally violates the schema: never let such a
      // report masquerade as a baseline.
      std::fprintf(stderr, "emitted JSON failed self-validation: %s\n",
                   err.c_str());
      report_invalid = true;
    }
    std::ofstream out(cfg.json_path);
    out << text;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s (%zu results)\n", cfg.json_path.c_str(),
                runs.size());
  }

  if (failures > 0)
    std::fprintf(stderr, "%zu scenario(s) FAILED their correctness check\n",
                 failures);
  if (report_invalid && failures == 0)
    std::fprintf(stderr,
                 "all scenarios passed, but the emitted report is not "
                 "schema-valid — do not commit it\n");
  return failures > 0 || report_invalid ? 1 : 0;
}
