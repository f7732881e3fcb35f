// The service-* families: evidence for the sort-as-a-service layer
// (core/sort_service.hpp + core/stream_sort.hpp) on top of the
// parallel-by-default front door.
//
//   service-batch  — an open-loop load generator: a deterministic stream of
//       independent kv64 sort requests whose sizes are drawn from a named
//       mix (tiny 64..1024, small 1k..16k, mixed log-uniform 64..64k),
//       submitted as one dovetail::sort_batch over a per-cell
//       workspace_pool, on a pool of p workers for each p in --threads
//       (pool_size_scope; the batch runs at its default concurrency, the
//       whole pool, so the 'concurrency' label is p). Reports
//       requests/sec (req_per_s) plus the p50/p99
//       per-request latency quantiles pooled over the timed reps — the
//       serving-layer headline numbers the BENCH_service.json baseline
//       commits — and the pool counter deltas (checkouts / hits /
//       creations over the timed reps) proving warm requests lease arenas
//       instead of allocating them.
//   service-stream — chunked ingestion through stream_sorter versus the
//       one-shot front door on the same input, both on the full --threads
//       pool, interleaved rep by rep: stream_overhead is the
//       stream/one-shot median ratio (the price of sort-on-arrival plus
//       the k-way merge), with the stream_chunks / stream_merge_records
//       counter deltas from sort_stats.
//
// The request-size generator (service_request_sizes) is deliberately a
// standalone deterministic function: test_bench_harness pins its
// fixed-seed reproducibility, and the schema gate (bench_json.hpp)
// requires every service* entry to carry the 'concurrency' label and the
// batch family to report req_per_s / p50_ms / p99_ms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dovetail/core/sort_service.hpp"
#include "dovetail/core/stream_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "harness.hpp"
#include "scenarios_parallel.hpp"

namespace dtb {

// ---------------------------------------------------------------------------
// Open-loop request-size generator. Deterministic in (mix, total, seed):
// sizes are drawn from par::rand_range streams keyed by the request index,
// and the final request is clamped so the sizes sum to exactly
// total_records. Mixes:
//   "tiny"  — 64 .. 1024 uniformly (dispatcher stays serial per request;
//             throughput comes from batch concurrency alone)
//   "small" — 1k .. 16k uniformly (straddles the parallel crossover)
//   "mixed" — log-uniform 64 .. 64k (each size decade equally likely — the
//             heavy-tailed request mix a shared sorting service sees)

inline std::vector<std::size_t> service_request_sizes(const std::string& mix,
                                                      std::size_t total_records,
                                                      std::uint64_t seed) {
  namespace par = dovetail::par;
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  std::uint64_t i = 0;
  while (total < total_records) {
    std::size_t sz;
    if (mix == "tiny") {
      sz = 64 + par::rand_range(seed, i, 961);  // 64..1024
    } else if (mix == "small") {
      sz = 1024 + par::rand_range(seed, i, 15 * 1024 + 1);  // 1k..16k
    } else {  // "mixed": exponent first, then uniform within the decade
      const std::uint64_t e = 6 + par::rand_range(seed, 2 * i, 10);  // 6..15
      const std::size_t lo = std::size_t{1} << e;
      sz = lo + par::rand_range(seed, 2 * i + 1, lo);  // lo .. 2*lo-1
    }
    sz = std::min(sz, total_records - total);
    sizes.push_back(sz);
    total += sz;
    ++i;
  }
  return sizes;
}

// ---------------------------------------------------------------------------
// service-batch cell: one batch of mixed-size requests per rep, all data
// restored from pristine copies before the clock starts. Request inputs
// alternate uniform/zipfian so one batch mixes dispatcher decisions.

inline scenario_result run_service_batch_cell(const run_config& rc,
                                              const std::string& mix, int p,
                                              const std::string& cell_key) {
  using dovetail::gen::dist_kind;
  using dovetail::gen::distribution;
  namespace dt = dovetail;

  const pool_size_scope workers(rc, p);
  scenario_result res;
  const std::vector<std::size_t> sizes =
      service_request_sizes(mix, rc.n, /*seed=*/42);
  std::size_t total = 0;
  for (const std::size_t sz : sizes) total += sz;
  res.n = total;

  std::vector<std::vector<dt::kv64>> pristine(sizes.size());
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const distribution d =
        r % 2 == 0 ? distribution{dist_kind::uniform, 1e7, "Unif-1e7"}
                   : distribution{dist_kind::zipfian, 1.2, "Zipf-1.2"};
    pristine[r] = dt::gen::generate_records<dt::kv64>(d, sizes[r], 1000 + r);
  }
  std::vector<std::vector<dt::kv64>> work = pristine;

  dt::workspace_pool pool(static_cast<std::size_t>(p));
  pool.prewarm();
  dt::sort_stats stats;
  std::vector<double> latencies_s;  // pooled over the timed reps only
  bool record_latencies = false;

  const auto one_run = [&]() -> double {
    for (std::size_t r = 0; r < work.size(); ++r)
      std::copy(pristine[r].begin(), pristine[r].end(), work[r].begin());
    std::vector<dt::sort_request<dt::kv64, decltype(dt::key_of_kv64)>> reqs(
        work.size());
    for (std::size_t r = 0; r < work.size(); ++r)
      reqs[r].data = std::span<dt::kv64>(work[r]);
    dt::service_options opt;
    opt.pool = &pool;
    opt.stats = &stats;
    dt::timer t;
    dt::sort_batch(reqs, opt);
    const double s = t.seconds();
    if (record_latencies)
      for (const auto& req : reqs) latencies_s.push_back(req.result.seconds);
    return s;
  };

  run_warmups(std::max(rc.warmups, 1), one_run);
  if (rc.check) {
    res.check = "pass";
    for (std::size_t r = 0; r < work.size(); ++r) {
      std::vector<dt::kv64> ref = pristine[r];
      std::stable_sort(ref.begin(), ref.end(),
                       [](const dt::kv64& a, const dt::kv64& b) {
                         return a.key < b.key;
                       });
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (work[r][i].key != ref[i].key ||
            work[r][i].value != ref[i].value) {
          res.check = "fail";
          res.check_detail = "request " + std::to_string(r) + " record " +
                             std::to_string(i) +
                             " differs from the serial one-shot at p=" +
                             std::to_string(p);
          return res;
        }
      }
    }
  }

  record_latencies = true;
  const std::uint64_t alloc0 =
      stats.workspace_allocations.load(std::memory_order_relaxed);
  const std::uint64_t co0 = pool.checkouts(), hit0 = pool.pool_hits(),
                      cr0 = pool.creations();
  run_timed_reps(rc.reps, res, one_run);
  res.stats["ws_alloc_timed"] = static_cast<double>(
      stats.workspace_allocations.load(std::memory_order_relaxed) - alloc0);
  res.stats["pool_checkouts_timed"] =
      static_cast<double>(pool.checkouts() - co0);
  res.stats["pool_hits_timed"] = static_cast<double>(pool.pool_hits() - hit0);
  res.stats["pool_creations_timed"] =
      static_cast<double>(pool.creations() - cr0);
  res.stats["requests"] = static_cast<double>(sizes.size());
  if (res.median_s() > 0)
    res.stats["req_per_s"] =
        static_cast<double>(sizes.size()) / res.median_s();
  std::sort(latencies_s.begin(), latencies_s.end());
  if (!latencies_s.empty()) {
    const std::size_t last = latencies_s.size() - 1;
    res.stats["p50_ms"] = latencies_s[last / 2] * 1e3;
    res.stats["p99_ms"] = latencies_s[last - last / 100] * 1e3;
  }
  note_parallel_speedup(cell_key, p, res);
  return res;
}

// ---------------------------------------------------------------------------
// service-stream cell: chunked ingestion vs the one-shot front door on the
// same pristine input, interleaved rep by rep like every A-vs-B pair in
// the suite.

inline scenario_result run_service_stream_cell(const run_config& rc,
                                               const std::vector<dovetail::kv64>& input,
                                               std::size_t chunk, int p) {
  namespace dt = dovetail;
  scenario_result res;
  res.n = input.size();

  dt::workspace_pool pool(static_cast<std::size_t>(p));
  pool.prewarm();
  dt::sort_stats stats;
  std::vector<dt::kv64> got;
  std::vector<dt::kv64> work(input.size());

  const auto run_stream = [&]() -> double {
    dt::timer t;
    dt::stream_options sopt;
    sopt.pool = &pool;
    sopt.stats = &stats;
    dt::stream_sorter<dt::kv64, decltype(dt::key_of_kv64)> s(sopt,
                                                             dt::key_of_kv64);
    for (std::size_t off = 0; off < input.size(); off += chunk)
      s.push(std::span<const dt::kv64>(
          input.data() + off, std::min(chunk, input.size() - off)));
    got = s.finish();
    return t.seconds();
  };
  const auto run_one_shot = [&]() -> double {
    std::copy(input.begin(), input.end(), work.begin());
    dt::timer t;
    dt::auto_sort_options opt;
    opt.workspace = &suite_workspace();
    dt::sort(std::span<dt::kv64>(work), dt::key_of_kv64, opt);
    return t.seconds();
  };

  run_warmups(std::max(rc.warmups, 1), run_stream);
  if (rc.check) {
    std::vector<dt::kv64> ref = input;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const dt::kv64& a, const dt::kv64& b) {
                       return a.key < b.key;
                     });
    res.check = "pass";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (got[i].key != ref[i].key || got[i].value != ref[i].value) {
        res.check = "fail";
        res.check_detail = "streamed record " + std::to_string(i) +
                           " differs from the stable reference (chunk=" +
                           std::to_string(chunk) + ")";
        return res;
      }
    }
  }

  const std::uint64_t ch0 =
      stats.stream_chunks.load(std::memory_order_relaxed);
  const std::uint64_t mr0 =
      stats.stream_merge_records.load(std::memory_order_relaxed);
  const std::uint64_t co0 = pool.checkouts(), hit0 = pool.pool_hits(),
                      cr0 = pool.creations();
  const std::vector<double> one_shot_times =
      run_interleaved_reps(rc.reps, res, run_stream, run_one_shot);
  res.stats["stream_chunks_timed"] = static_cast<double>(
      stats.stream_chunks.load(std::memory_order_relaxed) - ch0);
  res.stats["stream_merge_records_timed"] = static_cast<double>(
      stats.stream_merge_records.load(std::memory_order_relaxed) - mr0);
  res.stats["pool_checkouts_timed"] =
      static_cast<double>(pool.checkouts() - co0);
  res.stats["pool_hits_timed"] = static_cast<double>(pool.pool_hits() - hit0);
  res.stats["pool_creations_timed"] =
      static_cast<double>(pool.creations() - cr0);
  scenario_result one_shot;
  one_shot.times_s = one_shot_times;
  res.stats["ms_OneShot"] = one_shot.median_s() * 1e3;
  if (one_shot.median_s() > 0)
    res.stats["stream_overhead"] = res.median_s() / one_shot.median_s();
  return res;
}

// ---------------------------------------------------------------------------
// Registration: the batch family sweeps mix × pool size (the matrix the
// committed baseline holds), the stream family sweeps chunk size at the
// full worker count.

inline void register_service_scenarios(const run_config& cfg) {
  using dovetail::gen::dist_kind;
  using dovetail::gen::distribution;
  const std::vector<int> ps = parallel_sweep_points(cfg);

  static const std::vector<std::string> mixes = {"tiny", "small", "mixed"};
  for (const std::string& mix : mixes) {
    for (const int p : ps) {
      scenario s;
      s.bench = "service-batch";
      const std::string cell =
          s.bench + "/" + mix + "/n=" + std::to_string(cfg.n);
      s.name = cell + "/c=" + std::to_string(p);
      s.paper = "open-loop batched sort service over the workspace pool";
      s.row = mix + "/n=" + std::to_string(cfg.n);
      s.col = "c=" + std::to_string(p);
      s.labels = {{"dist", mix},
                  {"algo", "Service"},
                  {"width", "64"},
                  {"n", std::to_string(cfg.n)},
                  {"concurrency", std::to_string(p)},
                  {"threads", std::to_string(p)}};
      s.run = [mix, p, cell](const run_config& rc) {
        return run_service_batch_cell(rc, mix, p, cell);
      };
      scenario_registry::instance().add(std::move(s));
    }
  }

  static const distribution stream_dist = {dist_kind::zipfian, 1.2,
                                           "Zipf-1.2"};
  const int p = cfg.max_threads();
  std::vector<std::size_t> chunks;
  for (const std::size_t c : {std::max<std::size_t>(1, cfg.n / 64),
                              std::max<std::size_t>(1, cfg.n / 8)})
    if (std::find(chunks.begin(), chunks.end(), c) == chunks.end())
      chunks.push_back(c);
  for (const std::size_t chunk : chunks) {
    scenario s;
    s.bench = "service-stream";
    s.name = s.bench + "/" + stream_dist.name + "/n=" +
             std::to_string(cfg.n) + "/chunk=" + std::to_string(chunk);
    s.paper = "chunked streaming ingestion vs the one-shot front door";
    s.row = stream_dist.name + "/n=" + std::to_string(cfg.n);
    s.col = "chunk=" + std::to_string(chunk);
    s.labels = {{"dist", stream_dist.name},
                {"algo", "Stream"},
                {"width", "64"},
                {"n", std::to_string(cfg.n)},
                {"chunk", std::to_string(chunk)},
                {"concurrency", "1"},
                {"threads", std::to_string(p)}};
    s.run = [chunk, p](const run_config& rc) {
      const auto& input = cached_input<dovetail::kv64>(stream_dist, rc.n);
      return run_service_stream_cell(rc, input, chunk, p);
    };
    scenario_registry::instance().add(std::move(s));
  }
}

}  // namespace dtb
