// Tests for the unified benchmark harness (bench/harness.hpp) and the JSON
// schema machinery (bench/bench_json.hpp):
//   * a registered scenario runs and produces a report that passes the
//     BENCH_suite.json schema validator (the same code path CI gates on);
//   * an incorrect sorter is caught by the std::sort cross-check, and a
//     "fail" result is rejected by the schema (it can never be committed);
//   * warm runs perform zero workspace allocations (the timed-phase
//     allocation counter the harness exposes per scenario);
//   * filters, named-distribution lookup, and JSON parser round-trips;
//   * the engine-finish family cross-checks the base case and reports the
//     cost stats its schema contract demands.
#include <gtest/gtest.h>

#include <span>
#include <string>

#include "bench/harness.hpp"
#include "bench/scenarios_engine.hpp"
#include "bench/scenarios_service.hpp"
#include "dovetail/core/dovetail_sort.hpp"

namespace {

using dovetail::kv32;

dtb::run_config small_config() {
  dtb::run_config cfg;
  cfg.n = 20'000;
  cfg.reps = 2;
  cfg.warmups = 1;
  cfg.thread_counts = {1};
  return cfg;
}

const dovetail::gen::distribution kZipf{dovetail::gen::dist_kind::zipfian,
                                        1.0, "Zipf-1"};

dtb::scenario make_dtsort_scenario(const char* name) {
  dtb::scenario s;
  s.bench = "unit";
  s.name = name;
  s.paper = "unit test";
  s.row = "Zipf-1";
  s.col = "DTSort";
  s.labels = {{"dist", "Zipf-1"}, {"algo", "DTSort"}, {"width", "32"}};
  s.run = [](const dtb::run_config& rc) {
    const auto& input = dtb::cached_input<kv32>(kZipf, rc.n);
    return dtb::run_timed_sort(
        rc, input,
        [](std::span<kv32> sp, dovetail::sort_stats* st,
           dovetail::sort_workspace* ws) {
          dovetail::sort_options opt;
          opt.stats = st;
          opt.workspace = ws;
          dovetail::dovetail_sort(sp, dovetail::key_of_kv32, opt);
        });
  };
  return s;
}

TEST(BenchHarness, ScenarioProducesSchemaValidJson) {
  const dtb::run_config cfg = small_config();
  const dtb::scenario s = make_dtsort_scenario("unit/json/DTSort");
  dtb::scenario_result res = s.run(cfg);
  EXPECT_EQ(res.check, "pass") << res.check_detail;
  ASSERT_EQ(res.times_s.size(), 2u);
  EXPECT_GT(res.median_s(), 0.0);
  EXPECT_LE(res.min_s(), res.median_s());
  EXPECT_LE(res.median_s(), res.max_s());
  EXPECT_GE(res.stddev_s(), 0.0);

  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.emplace_back(&s, res);
  const std::string text = dtb::make_report(cfg, "unit report", runs).dump();

  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(text, root, err)) << err;
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;

  // The entry carries the fields the trajectory tooling depends on.
  const auto& entry = root.find("results")->as_array().at(0);
  EXPECT_EQ(entry.find("name")->as_string(), "unit/json/DTSort");
  EXPECT_EQ(entry.find("check")->as_string(), "pass");
  EXPECT_DOUBLE_EQ(entry.find("real_time_ms")->as_number(),
                   entry.find("median_ms")->as_number());
  EXPECT_GT(entry.find("throughput_mrec_s")->as_number(), 0.0);
}

TEST(BenchHarness, IncorrectSorterFailsCheckAndSchema) {
  const dtb::run_config cfg = small_config();
  dtb::scenario s;
  s.bench = "unit";
  s.name = "unit/broken";
  s.paper = "unit test";
  s.labels = {{"algo", "Broken"}};
  s.run = [](const dtb::run_config& rc) {
    const auto& input = dtb::cached_input<kv32>(kZipf, rc.n);
    return dtb::run_timed_sort(
        rc, input,
        [](std::span<kv32> sp, dovetail::sort_stats*,
           dovetail::sort_workspace*) {
          sp[0].key = sp[1].key + 1;  // "sorter" that corrupts one record
        });
  };
  dtb::scenario_result res = s.run(cfg);
  EXPECT_EQ(res.check, "fail");
  EXPECT_FALSE(res.check_detail.empty());

  // A report containing a failed check must not validate — CI can never
  // accept a BENCH_suite.json with a broken sorter in it.
  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.emplace_back(&s, res);
  const std::string text = dtb::make_report(cfg, "unit report", runs).dump();
  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(text, root, err)) << err;
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err));
}

TEST(BenchHarness, UnsortedOutputIsCaught) {
  const dtb::run_config cfg = small_config();
  const auto& input = dtb::cached_input<kv32>(kZipf, cfg.n);
  // Identity "sorter": a permutation (fingerprint passes) that is almost
  // surely not sorted — the std::sort cross-check must flag it.
  auto res = dtb::run_timed_sort(
      cfg, input,
      [](std::span<kv32>, dovetail::sort_stats*, dovetail::sort_workspace*) {
      });
  EXPECT_EQ(res.check, "fail");
}

TEST(BenchHarness, WarmRunsDoZeroWorkspaceAllocations) {
  dtb::run_config cfg = small_config();
  cfg.warmups = 1;  // one warm-up sizes the shared arena for this n
  cfg.reps = 3;
  const dtb::scenario s = make_dtsort_scenario("unit/warm/DTSort");
  const dtb::scenario_result res = s.run(cfg);
  EXPECT_EQ(res.check, "pass") << res.check_detail;
  ASSERT_TRUE(res.stats.count("ws_alloc_timed"));
  EXPECT_EQ(res.stats.at("ws_alloc_timed"), 0.0)
      << "timed (warm) runs must not allocate workspace memory";
  EXPECT_GT(res.stats.at("ws_reuse_timed"), 0.0);
}

TEST(BenchHarness, FiltersSelectByFamilyDistAlgoWidth) {
  const dtb::scenario s = make_dtsort_scenario("unit/filter/DTSort");
  dtb::run_config cfg = small_config();
  EXPECT_TRUE(dtb::scenario_matches(s, cfg));
  cfg.bench_filter = "unit";
  cfg.dist_filter = "Zipf";
  cfg.algo_filter = "DTSort";
  cfg.width_filter = 32;
  EXPECT_TRUE(dtb::scenario_matches(s, cfg));
  cfg.algo_filter = "LSD";
  EXPECT_FALSE(dtb::scenario_matches(s, cfg));
  cfg.algo_filter = "";
  cfg.width_filter = 64;
  EXPECT_FALSE(dtb::scenario_matches(s, cfg));
  cfg.width_filter = 0;
  cfg.bench_filter = "table3";
  EXPECT_FALSE(dtb::scenario_matches(s, cfg));
}

TEST(BenchHarness, NamedDistributionLookup) {
  namespace gen = dovetail::gen;
  const auto unif = gen::find_distribution("Unif-1e7");
  ASSERT_TRUE(unif.has_value());
  EXPECT_EQ(unif->kind, gen::dist_kind::uniform);
  EXPECT_DOUBLE_EQ(unif->param, 1e7);
  EXPECT_EQ(unif->name, "Unif-1e7");

  const auto zipf = gen::find_distribution("Zipf-1.2");
  ASSERT_TRUE(zipf.has_value());
  EXPECT_EQ(zipf->kind, gen::dist_kind::zipfian);
  EXPECT_DOUBLE_EQ(zipf->param, 1.2);

  const auto bexp = gen::find_distribution("BExp-30");
  ASSERT_TRUE(bexp.has_value());
  EXPECT_EQ(bexp->kind, gen::dist_kind::bexp);

  EXPECT_FALSE(gen::find_distribution("Gauss-3").has_value());
  EXPECT_FALSE(gen::find_distribution("Unif-").has_value());
  EXPECT_FALSE(gen::find_distribution("Unif-abc").has_value());
  EXPECT_FALSE(gen::find_distribution("nodash").has_value());

  // Failures are distinguishable: the error names the exact problem, so a
  // bench_suite --dist typo fails loudly instead of matching nothing.
  std::string err;
  EXPECT_FALSE(gen::find_distribution("Gauss-3", &err).has_value());
  EXPECT_NE(err.find("unknown distribution family 'Gauss'"),
            std::string::npos)
      << err;
  err.clear();
  EXPECT_FALSE(gen::find_distribution("Unif-abc", &err).has_value());
  EXPECT_NE(err.find("bad parameter 'abc'"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(gen::find_distribution("nodash", &err).has_value());
  EXPECT_NE(err.find("Family-param"), std::string::npos) << err;
  err.clear();
  EXPECT_TRUE(gen::find_distribution("zipf-1.2", &err).has_value());
  EXPECT_TRUE(err.empty());

  // Every paper instance's name round-trips through the lookup.
  for (const auto& d : gen::paper_distributions()) {
    const auto parsed = gen::find_distribution(d.name);
    ASSERT_TRUE(parsed.has_value()) << d.name;
    EXPECT_EQ(parsed->kind, d.kind) << d.name;
    EXPECT_DOUBLE_EQ(parsed->param, d.param) << d.name;
  }
}

TEST(BenchJson, ParserRoundTripAndErrors) {
  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(
      R"({"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}})", root, err))
      << err;
  EXPECT_EQ(root.find("a")->as_array().size(), 5u);
  EXPECT_DOUBLE_EQ(root.find("a")->as_array()[1].as_number(), 2.5);
  EXPECT_EQ(root.find("a")->as_array()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(root.find("b")->find("c")->as_number(), -300.0);

  // Round-trip: dump then re-parse yields the same structure.
  dtb::json::value again;
  ASSERT_TRUE(dtb::json::parse(root.dump(), again, err)) << err;
  EXPECT_DOUBLE_EQ(again.find("b")->find("c")->as_number(), -300.0);

  EXPECT_FALSE(dtb::json::parse("{", root, err));
  EXPECT_FALSE(dtb::json::parse("[1,]", root, err));
  EXPECT_FALSE(dtb::json::parse("{\"a\":1} extra", root, err));
  EXPECT_FALSE(dtb::json::parse("\"unterminated", root, err));
  // Malformed numbers must be parse errors, not crashes.
  EXPECT_FALSE(dtb::json::parse("[-]", root, err));
  EXPECT_FALSE(dtb::json::parse(".", root, err));
  EXPECT_FALSE(dtb::json::parse("[1e]", root, err));
  EXPECT_FALSE(dtb::json::parse("[1e999]", root, err)) << "out of range";
}

TEST(BenchJson, SchemaRejectsMalformedReports) {
  const dtb::run_config cfg = small_config();
  const dtb::scenario s = make_dtsort_scenario("unit/schema/DTSort");
  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.emplace_back(&s, s.run(cfg));
  const std::string good = dtb::make_report(cfg, "unit", runs).dump();

  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(good, root, err));
  ASSERT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;

  // Break it in targeted ways. value copies are deep, so mutating
  // `broken` must leave `root` valid.
  auto broken = root;
  broken.as_object().erase("context");
  EXPECT_FALSE(dtb::json::validate_bench_schema(broken, err));
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;

  ASSERT_TRUE(dtb::json::parse(good, broken, err));
  broken.as_object()["schema_version"] = dtb::json::value(2);
  EXPECT_FALSE(dtb::json::validate_bench_schema(broken, err));

  ASSERT_TRUE(dtb::json::parse(good, broken, err));
  broken.as_object()["results"] = dtb::json::value(dtb::json::array{});
  EXPECT_FALSE(dtb::json::validate_bench_schema(broken, err));

  // Duplicate scenario names are rejected.
  ASSERT_TRUE(dtb::json::parse(good, broken, err));
  auto& arr = broken.as_object()["results"].as_array();
  arr.push_back(arr[0]);
  EXPECT_FALSE(dtb::json::validate_bench_schema(broken, err));
}

TEST(BenchHarness, ServiceRequestSizesAreDeterministic) {
  // The open-loop generator is the reproducibility anchor of the
  // service-batch family: same (mix, total, seed) must give the same
  // request plan, so a committed BENCH_service.json is re-runnable.
  for (const char* mix : {"tiny", "small", "mixed"}) {
    const auto a = dtb::service_request_sizes(mix, 200'000, 42);
    const auto b = dtb::service_request_sizes(mix, 200'000, 42);
    EXPECT_EQ(a, b) << mix;
    ASSERT_FALSE(a.empty()) << mix;
    std::size_t total = 0;
    for (const std::size_t sz : a) {
      EXPECT_GE(sz, 1u) << mix;
      EXPECT_LE(sz, 65'536u) << mix;
      total += sz;
    }
    EXPECT_EQ(total, 200'000u) << mix << ": sizes must cover total exactly";
    const auto c = dtb::service_request_sizes(mix, 200'000, 43);
    EXPECT_NE(a, c) << mix << ": a different seed must give a different plan";
  }
  // Mix bounds (all but the clamped final request).
  const auto tiny = dtb::service_request_sizes("tiny", 100'000, 7);
  for (std::size_t i = 0; i + 1 < tiny.size(); ++i) {
    EXPECT_GE(tiny[i], 64u);
    EXPECT_LE(tiny[i], 1024u);
  }
  const auto small = dtb::service_request_sizes("small", 100'000, 7);
  for (std::size_t i = 0; i + 1 < small.size(); ++i) {
    EXPECT_GE(small[i], 1024u);
    EXPECT_LE(small[i], 16'384u);
  }
  EXPECT_TRUE(dtb::service_request_sizes("tiny", 0, 1).empty());
}

TEST(BenchJson, ServiceEntriesNeedConcurrencyAndLoadStats) {
  // Start from a known-good report and rebadge its entry as a service
  // one: the schema must then demand the concurrency label and (for the
  // batch family) the req_per_s / p50_ms / p99_ms stats, ordered.
  const dtb::run_config cfg = small_config();
  const dtb::scenario s = make_dtsort_scenario("unit/service/DTSort");
  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.emplace_back(&s, s.run(cfg));
  const std::string good = dtb::make_report(cfg, "unit", runs).dump();

  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(good, root, err)) << err;
  auto& entry = root.as_object()["results"].as_array().at(0);

  entry.as_object()["bench"] = dtb::json::value("service-stream");
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err));
  EXPECT_NE(err.find("concurrency"), std::string::npos) << err;

  auto& labels = entry.as_object()["labels"].as_object();
  labels["concurrency"] = dtb::json::value("04");
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err)) << "leading zero";
  labels["concurrency"] = dtb::json::value("4");
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;

  // The batch family additionally requires the load-generator stats.
  entry.as_object()["bench"] = dtb::json::value("service-batch");
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err));
  EXPECT_NE(err.find("req_per_s"), std::string::npos) << err;
  dtb::json::object st;
  st["req_per_s"] = dtb::json::value(1000.0);
  st["p50_ms"] = dtb::json::value(2.0);
  st["p99_ms"] = dtb::json::value(1.0);  // misordered
  entry.as_object()["stats"] = dtb::json::value(st);
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err));
  EXPECT_NE(err.find("p50_ms exceeds p99_ms"), std::string::npos) << err;
  st["p99_ms"] = dtb::json::value(3.0);
  entry.as_object()["stats"] = dtb::json::value(st);
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;

  // Non-service families are untouched by the addendum.
  entry.as_object()["bench"] = dtb::json::value("unit");
  labels.erase("concurrency");
  entry.as_object()["stats"] = dtb::json::value(dtb::json::object{});
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;
}

TEST(BenchJson, FinishEntriesCrossCheckAndNeedTheirCostStats) {
  const dtb::run_config cfg = small_config();
  dtb::scenario s;
  s.bench = "engine-finish";
  s.name = "unit/finish/Zipf-1";
  s.paper = "unit test";
  s.row = "Zipf-1";
  s.col = "RadixFinish";
  s.labels = {{"dist", "Zipf-1"}, {"algo", "RadixFinish"}, {"width", "64"}};
  std::vector<std::pair<const dtb::scenario*, dtb::scenario_result>> runs;
  runs.emplace_back(&s, dtb::run_finish_once<dovetail::kv64>(cfg, kZipf,
                                                             cfg.n));
  EXPECT_EQ(runs[0].second.check, "pass") << runs[0].second.check_detail;
  const std::string good = dtb::make_report(cfg, "unit", runs).dump();

  dtb::json::value root;
  std::string err;
  ASSERT_TRUE(dtb::json::parse(good, root, err)) << err;
  EXPECT_TRUE(dtb::json::validate_bench_schema(root, err)) << err;
  auto& entry = root.as_object()["results"].as_array().at(0);
  entry.as_object()["stats"].as_object().erase("ns_per_rec");
  EXPECT_FALSE(dtb::json::validate_bench_schema(root, err));
  EXPECT_NE(err.find("ns_per_rec"), std::string::npos) << err;
}

}  // namespace
