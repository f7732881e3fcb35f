// perfbench — the repository benchmark.
//
//   perfbench --workload <bulk-light|bulk-dup|serve-mixed|query-wide|all>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--corrupt <ops>] [--scale <f>]
//
// One process, kWorkers scheduler workers (the main thread is worker 0).
// Each run sets the workload up several times (input generation,
// scheduler start, workspace/pool prewarm and warm-up ops) and reports
// the median as setup_s, then repeats the workload's op until --seconds
// have passed. Every output of every op is checked against a
// std::stable_sort reference; an op that throws or fails a check counts as
// failed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// each layer call (traced ops alternate with untraced ones, so the tracing
// overhead is measured in the same process), replays each op layer by
// layer through the public functions of src/dovetail, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it, prefixed '#', are the human-readable report.
//
// --corrupt N damages one output in each of the first N ops before it is
// checked (the self-test of the checker); --scale shrinks every input size.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/sort_service.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/record.hpp"
#include "dovetail/util/simd.hpp"
#include "dovetail/util/timer.hpp"
#include "trace.hpp"
#include "verify.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace dt = dovetail;
namespace gen = dovetail::gen;
using perfbench::span_scope;
using perfbench::tracer;

constexpr int kWorkers = 4;
// Set-up rounds: at least kMinSetupReps, more while they take less than
// kSetupBudgetS in total, at most kMaxSetupReps.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 11;
constexpr double kSetupBudgetS = 1.5;
constexpr int kServeWarmupBatches = 8;
constexpr std::size_t kTopK = 1000;
constexpr std::uint64_t kSortSeed = 42;  // auto_sort_options' default seed

// ---------------------------------------------------------------------------
// Small statistics helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, r == 0 ? 0 : r - 1)];
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1000, static_cast<std::size_t>(
                                         static_cast<double>(n) * scale));
}

const char* kernel_key(dt::sort_kernel k) {
  switch (k) {
    case dt::sort_kernel::std_sort: return "std_sort";
    case dt::sort_kernel::run_merge: return "run_merge";
    case dt::sort_kernel::counting: return "counting";
    case dt::sort_kernel::lsd: return "lsd";
    case dt::sort_kernel::dtsort: return "dtsort";
    case dt::sort_kernel::inplace: return "inplace";
  }
  return "unknown";
}

void spin_for(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ---------------------------------------------------------------------------
// Per-layer values. Each traced op sets a value per metric (the reported
// figure is the median over traced ops); totals accumulate over the run.

struct layer_values {
  std::map<std::string, std::vector<double>> per_op;
  std::map<std::string, double> totals;

  void add_total(const std::string& name, double v) { totals[name] += v; }
  [[nodiscard]] double value(const std::string& name) const {
    if (auto t = totals.find(name); t != totals.end()) return t->second;
    if (auto p = per_op.find(name); p != per_op.end()) return median(p->second);
    return 0.0;
  }
};

// What one traced op measured, summed over its calls, then flushed into
// layer_values as one per-op sample.
struct op_notes {
  std::map<std::string, double> v;
  void add(const std::string& name, double x) { v[name] += x; }
  void set(const std::string& name, double x) { v[name] = x; }
  void max(const std::string& name, double x) {
    v[name] = std::max(v[name], x);
  }
  void flush(layer_values& into) const {
    for (const auto& [name, x] : v) into.per_op[name].push_back(x);
  }
};

// One front-door call kind of a workload's op: its records and the time
// of every call at kWorkers workers (t4) and at one worker (t1).
struct call_kind {
  std::string name;
  std::size_t records = 0;
  std::vector<double> t4, t1;
};

struct op_ctx {
  std::size_t op = 0;
  tracer* tr = nullptr;  // non-null = traced op
  bool corrupt = false;
  op_notes notes;
  [[nodiscard]] bool traced() const { return tr != nullptr; }
};

// The notes every traced call of the front door leaves: kernel chosen,
// planned width, warm allocations and the workspace high-water mark.
void note_front_door_call(op_notes& n, dt::sort_kernel k,
                          const dt::sort_stats& st) {
  n.add(std::string("auto_sort.kernel.") + kernel_key(k), 1);
  n.add("auto_sort.parallel_calls",
        st.chosen_parallelism.load() > 1 ? 1.0 : 0.0);
  n.add("workspace.warm_allocs", static_cast<double>(
                                     st.workspace_allocations.load()));
  n.max("workspace.peak_mb", static_cast<double>(st.peak_workspace()) / 1e6);
}

// Scheduler probes, run once per traced op on every workload:
// wake latency of a small fork after idle, and the per-task cost of a hot
// grain-1 loop.
void probe_scheduler(op_ctx& c) {
  constexpr double kTask = 20e-6;
  std::vector<double> wake;
  for (int r = 0; r < 3; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    span_scope s(c.tr, "parallel.wake", c.op);
    dt::par::parallel_for(0, kWorkers, [&](std::size_t) { spin_for(kTask); },
                          1);
    wake.push_back(std::max(0.0, s.stop() - kTask) * 1e6);
  }
  c.notes.set("parallel.wake_us", median(wake));

  constexpr std::size_t kTasks = 4096;
  std::vector<std::uint64_t> sink(kTasks);
  const auto body = [&](std::size_t i) { sink[i] += i; };
  dt::par::parallel_for(0, kTasks, body, 1);  // make it hot
  span_scope s(c.tr, "parallel.tasks", c.op);
  dt::par::parallel_for(0, kTasks, body, 1);
  c.notes.set("parallel.task_ns", s.stop() * 1e9 / kTasks);
}

// The input sketch the front door takes of a kv64 input, timed alone.
void probe_sketch(op_ctx& c, std::span<const dt::kv64> in) {
  span_scope s(c.tr, "input_sketch", c.op);
  (void)dt::sketch_input(in, dt::key_of_kv64, dt::sketch_options{});
  c.notes.add("input_sketch.us_total", s.stop() * 1e6);
  c.notes.add("input_sketch.calls", 1);
}

// One 256-bucket distribution pass over a kv64 input (the engine under
// every radix kernel), timed, with its bandwidth computed from bytes read
// and written.
void probe_distribute(op_ctx& c, std::span<const dt::kv64> in,
                      std::span<dt::kv64> out, dt::sort_workspace& ws) {
  std::vector<std::size_t> offsets(257);
  dt::distribute_options o;
  o.workspace = &ws;
  span_scope s(c.tr, "distribute", c.op);
  dt::distribute(
      in, out, 256,
      [](const dt::kv64& r) { return static_cast<std::size_t>(r.key >> 56); },
      std::span<std::size_t>(offsets), o);
  const double secs = s.stop();
  c.notes.set("distribute.pass_ms", secs * 1e3);
  c.notes.set("distribute.gbs_computed",
              2.0 * static_cast<double>(in.size() * sizeof(dt::kv64)) / secs /
                  1e9);
}

template <typename Rec>
constexpr auto key_fn() {
  if constexpr (std::is_same_v<Rec, dt::kv32>)
    return dt::key_of_kv32;
  else
    return dt::key_of_kv64;
}

template <typename Rec>
void stable_sort_by_key(std::vector<Rec>& v, std::size_t lo, std::size_t hi) {
  std::stable_sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.begin() + static_cast<std::ptrdiff_t>(hi),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
}

// ---------------------------------------------------------------------------
// Workloads.

class workload {
 public:
  virtual ~workload() = default;
  // Inputs, workspaces, pool prewarm and warm-up ops at kWorkers.
  virtual void setup() = 0;
  // The std::stable_sort references (not part of setup_s).
  virtual void make_reference() = 0;
  // Runs one op; returns the number of outputs that failed their check.
  virtual std::size_t run_op(op_ctx& c) = 0;
  // Run-level per-layer values (totals, latency percentiles).
  virtual void finish(layer_values& lv) { (void)lv; }
  // Workload-specific lines of the human-readable report.
  virtual void report() const {}
  [[nodiscard]] virtual double input_bytes() const = 0;
  // Bytes one op touches: inputs, working copies and the kernels' scratch.
  [[nodiscard]] virtual double working_set_bytes() const = 0;

  std::vector<call_kind> kinds;
};

// A record input sorted by dovetail::sort: the generated input, a working
// copy, the stable-sort reference and a warm workspace of its own.
template <typename Rec>
struct sorted_input {
  gen::distribution dist;
  std::vector<Rec> input, work, ref;
  std::uint64_t fp = 0;
  dt::sort_workspace ws;

  void generate(std::size_t n, std::uint64_t seed) {
    input = gen::generate_records<Rec>(dist, n, seed);
    work.resize(n);
    fp = perfbench::fingerprint(std::span<const Rec>(input));
  }
  void restore() {
    dt::par::copy(std::span<const Rec>(input), std::span<Rec>(work));
  }
  [[nodiscard]] std::span<Rec> w() { return std::span<Rec>(work); }
  [[nodiscard]] std::span<const Rec> cw() const {
    return std::span<const Rec>(work);
  }
  [[nodiscard]] const char* check() const {
    return perfbench::check_sorted(cw(), std::span<const Rec>(ref), fp);
  }
  [[nodiscard]] double bytes() const {
    return static_cast<double>(input.size() * sizeof(Rec));
  }
};

std::size_t report_failure(const char* what, const char* why) {
  if (why == nullptr) return 0;
  std::printf("# check failed: %s: %s\n", what, why);
  return 1;
}

// bulk-light / bulk-dup: dovetail::sort on two large record inputs with a
// warm workspace, at kWorkers workers and again at one worker.
template <typename RecA, typename RecB>
class bulk_workload final : public workload {
 public:
  bulk_workload(gen::distribution da, gen::distribution db, std::size_t n,
                std::uint64_t seed)
      : n_(n), seed_(seed) {
    a_.dist = std::move(da);
    b_.dist = std::move(db);
    kinds = {{"sort " + label<RecA>(a_.dist), n, {}, {}},
             {"sort " + label<RecB>(b_.dist), n, {}, {}}};
  }

  void setup() override {
    a_.generate(n_, seed_);
    b_.generate(n_, seed_ + 1);
    // Warm-up op: fault in the work buffers and both workspaces.
    for (int i = 0; i < 2; ++i) {
      a_.restore();
      b_.restore();
      sort_once(a_, 0, nullptr);
      sort_once(b_, 0, nullptr);
    }
  }

  void make_reference() override {
    dt::par::parallel_for(
        0, 2,
        [&](std::size_t i) {
          if (i == 0) {
            a_.ref = a_.input;
            stable_sort_by_key(a_.ref, 0, n_);
          } else {
            b_.ref = b_.input;
            stable_sort_by_key(b_.ref, 0, n_);
          }
        },
        1);
  }

  std::size_t run_op(op_ctx& c) override {
    std::size_t failures = 0;
    // Alternate which input goes first, so neither always follows the
    // other's cache footprint.
    const bool a_first = c.op % 2 == 0;
    double call4[2] = {0, 0};
    for (const int threads : {0, 1}) {
      for (int j = 0; j < 2; ++j) {
        const bool is_a = (j == 0) == a_first;
        const double secs =
            is_a ? timed_call(a_, kinds[0], threads, c, failures)
                 : timed_call(b_, kinds[1], threads, c, failures);
        if (threads == 0) call4[is_a ? 0 : 1] = secs;
      }
    }
    if (c.traced()) {
      failures += replay(a_, call4[0], c);
      failures += replay(b_, call4[1], c);
      c.notes.set("dovetail_sort.levels",
                  dts_n_ == 0 ? 0.0 : dts_distributed_ / dts_n_);
      c.notes.set("dovetail_sort.heavy_pct",
                  dts_n_ == 0 ? 0.0 : 100.0 * dts_heavy_ / dts_n_);
      c.notes.set("dovetail_sort.base_pct",
                  dts_n_ == 0 ? 0.0 : 100.0 * dts_base_ / dts_n_);
      dts_n_ = dts_distributed_ = dts_heavy_ = dts_base_ = 0;
      a_.restore();
      probe_distribute(c, std::span<const dt::kv64>(a_.input), a_.w(), a_.ws);
    }
    return failures;
  }

  [[nodiscard]] double input_bytes() const override {
    return a_.bytes() + b_.bytes();
  }
  [[nodiscard]] double working_set_bytes() const override {
    return 3 * input_bytes();  // input + working copy + ping-pong buffer
  }

 private:
  template <typename Rec>
  static std::string label(const gen::distribution& d) {
    return std::string(std::is_same_v<Rec, dt::kv32> ? "kv32 " : "kv64 ") +
           d.name;
  }

  template <typename Rec>
  dt::sort_kernel sort_once(sorted_input<Rec>& in, int threads,
                            dt::sort_stats* st) {
    dt::auto_sort_options opt;
    opt.workspace = &in.ws;
    opt.num_threads = threads;
    opt.stats = st;
    return dt::sort(in.w(), key_fn<Rec>(), opt);
  }

  template <typename Rec>
  double timed_call(sorted_input<Rec>& in, call_kind& kind, int threads,
                    op_ctx& c, std::size_t& failures) {
    in.restore();
    dt::sort_stats st;
    const bool note = c.traced() && threads == 0;
    span_scope s(c.tr, threads == 1 ? "auto_sort.sort_1t" : "auto_sort.sort",
                 c.op);
    const dt::sort_kernel k = sort_once(in, threads, note ? &st : nullptr);
    const double secs = s.stop();
    (threads == 1 ? kind.t1 : kind.t4).push_back(secs);
    if (note) note_front_door_call(c.notes, k, st);
    if (c.corrupt && threads == 0) std::swap(in.work.front(), in.work.back());
    failures += report_failure(kind.name.c_str(), in.check());
    return secs;
  }

  // Replays one front-door call layer by layer: the sketch, the dispatch
  // decision, then the chosen kernel called directly with the plan's
  // parameters. Glue = call time minus the replayed sketch and kernel.
  template <typename Rec>
  std::size_t replay(sorted_input<Rec>& in, double call_secs, op_ctx& c) {
    constexpr auto key = key_fn<Rec>();
    std::size_t failures = 0;
    dt::input_sketch sk;
    double sketch_secs = 0;
    {
      span_scope s(c.tr, "input_sketch", c.op);
      sk = dt::sketch_input(std::span<const Rec>(in.input), key,
                            dt::sketch_options{});
      sketch_secs = s.stop();
    }
    c.notes.add("input_sketch.us_total", sketch_secs * 1e6);
    c.notes.add("input_sketch.calls", 1);
    sk.record_bytes = sizeof(Rec);
    sk.pure_key_records = dt::is_pure_key_fn_v<decltype(key)>;
    const dt::kernel_plan plan = dt::dispatch_policy{}.choose(sk);

    double kernel_secs = 0;
    if (plan.kernel == dt::sort_kernel::dtsort) {
      dt::sort_stats st;
      dt::sort_options o;
      o.gamma = plan.gamma;
      o.seed = kSortSeed;
      o.workspace = &in.ws;
      o.stats = &st;
      in.restore();
      {
        span_scope s(c.tr, "dovetail_sort", c.op);
        dt::dovetail_sort(in.w(), key, o);
        kernel_secs = s.stop();
      }
      failures += report_failure("dovetail_sort replay", in.check());
      dts_n_ += static_cast<double>(in.input.size());
      dts_distributed_ += static_cast<double>(st.distributed_records.load());
      dts_heavy_ += static_cast<double>(st.heavy_records.load());
      dts_base_ += static_cast<double>(st.base_case_records.load());
      c.notes.add("dovetail_sort.ms", kernel_secs * 1e3);

      // The same sort with every merge step skipped: the difference is
      // the dovetail merge's share. Its output is a permutation only.
      o.ablate_skip_merge = true;
      o.stats = nullptr;
      in.restore();
      double skip_secs = 0;
      {
        span_scope s(c.tr, "dovetail_sort.skip_merge", c.op);
        dt::dovetail_sort(in.w(), key, o);
        skip_secs = s.stop();
      }
      if (perfbench::fingerprint(in.cw()) != in.fp)
        failures += report_failure("skip-merge replay",
                                   "not a permutation of the input");
      c.notes.add("dt_merge.ms", (kernel_secs - skip_secs) * 1e3);
    } else if (plan.kernel == dt::sort_kernel::lsd) {
      dt::baseline::lsd_options o;
      if (plan.gamma > 0) o.gamma = plan.gamma;
      o.scatter = plan.scatter;
      o.workspace = &in.ws;
      in.restore();
      {
        span_scope s(c.tr, "lsd_radix_sort", c.op);
        dt::baseline::lsd_radix_sort(in.w(), key, o);
        kernel_secs = s.stop();
      }
      failures += report_failure("lsd_radix_sort replay", in.check());
      c.notes.add("lsd_radix_sort.ms", kernel_secs * 1e3);
    }
    if (kernel_secs > 0)
      c.notes.add("auto_sort.glue_ms",
                  (call_secs - sketch_secs - kernel_secs) * 1e3);
    return failures;
  }

  std::size_t n_;
  std::uint64_t seed_;
  sorted_input<RecA> a_;
  sorted_input<RecB> b_;
  double dts_n_ = 0, dts_distributed_ = 0, dts_heavy_ = 0, dts_base_ = 0;
};

// serve-mixed: closed loop, one client, one batch in flight. Each op is
// one sort_batch over ~93 requests whose sizes are log-uniform in
// [64, 64Ki], run at concurrency kWorkers and again at concurrency 1.
class serve_workload final : public workload {
 public:
  using key_t = std::remove_cvref_t<decltype(dt::key_of_kv64)>;
  using request = dt::sort_request<dt::kv64, key_t>;

  serve_workload(std::uint64_t seed, double scale) : seed_(seed) {
    // Stratified log-uniform sizes: stratum i gets the (i + 1/2)/m
    // quantile, so every seed draws the same multiset of sizes and only
    // their order and keys change. Even strata get Unif-1e7 keys, odd
    // strata Zipf-1.2.
    constexpr std::size_t m = 93;
    std::size_t off = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double q = (static_cast<double>(i) + 0.5) / m;
      const auto sz = std::max<std::size_t>(
          64, static_cast<std::size_t>(64.0 * std::pow(1024.0, q) * scale));
      segs_.push_back({0, sz, i % 2 == 0});
    }
    std::mt19937_64 rng(seed);
    std::shuffle(segs_.begin(), segs_.end(), rng);
    for (segment& s : segs_) {
      s.offset = off;
      off += s.size;
    }
    total_ = off;
    kinds = {
        {"sort_batch " + std::to_string(m) + " requests", total_, {}, {}}};
  }

  void setup() override {
    input_.resize(total_);
    work_.resize(total_);
    const gen::distribution unif{gen::dist_kind::uniform, 1e7, "Unif-1e7"};
    const gen::distribution zipf{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
    for (std::size_t i = 0; i < segs_.size(); ++i) {
      segment& s = segs_[i];
      const std::vector<dt::kv64> recs = gen::generate_records<dt::kv64>(
          s.uniform ? unif : zipf, s.size, seed_ * 1000003 + i);
      std::copy(recs.begin(), recs.end(),
                input_.begin() + static_cast<std::ptrdiff_t>(s.offset));
      s.fp = perfbench::fingerprint(std::span<const dt::kv64>(recs));
    }
    reqs_.resize(segs_.size());
    for (std::size_t i = 0; i < segs_.size(); ++i)
      reqs_[i].data = std::span<dt::kv64>(work_).subspan(segs_[i].offset,
                                                        segs_[i].size);
    req_stats_ = std::make_unique<dt::sort_stats[]>(segs_.size());
    pool_.prewarm(kWorkers);
    // Warm-up ops. Requests land on arenas at random, so it takes several
    // batches before every arena has held the largest request and the
    // footprint stops growing.
    for (int i = 0; i < kServeWarmupBatches; ++i) batch(kWorkers, false);
    creations_at_start_ = pool_.creations();
  }

  void make_reference() override {
    ref_ = input_;
    for (const segment& s : segs_)
      stable_sort_by_key(ref_, s.offset, s.offset + s.size);
  }

  std::size_t run_op(op_ctx& c) override {
    std::size_t failures = 0;
    for (const int conc : {kWorkers, 1}) {
      span_scope s(c.tr, conc == 1 ? "sort_service.batch_1t"
                                   : "sort_service.batch",
                   c.op);
      batch(conc, c.traced() && conc == kWorkers);
      const double secs = s.stop();
      (conc == 1 ? kinds[0].t1 : kinds[0].t4).push_back(secs);
      if (conc == kWorkers) {
        double busy = 0;
        for (std::size_t i = 0; i < reqs_.size(); ++i) {
          req_us_.push_back(reqs_[i].result.seconds * 1e6);
          busy += reqs_[i].result.seconds;
          if (c.traced())
            note_front_door_call(c.notes, reqs_[i].result.kernel,
                                 req_stats_[i]);
        }
        idle_.push_back(1.0 - busy / (kWorkers * secs));
        if (c.corrupt)
          std::swap(work_[segs_[0].offset], work_[segs_[0].offset + 1]);
      }
      for (std::size_t i = 0; i < segs_.size(); ++i) {
        const segment& sg = segs_[i];
        const char* why =
            !reqs_[i].result.completed
                ? "request not completed"
                : perfbench::check_sorted(
                      std::span<const dt::kv64>(work_).subspan(sg.offset,
                                                               sg.size),
                      std::span<const dt::kv64>(ref_).subspan(sg.offset,
                                                              sg.size),
                      sg.fp);
        failures += report_failure("request", why);
      }
    }
    if (c.traced()) {
      for (const segment& sg : segs_)
        probe_sketch(c, std::span<const dt::kv64>(input_).subspan(sg.offset,
                                                                  sg.size));
      probe_distribute(c, std::span<const dt::kv64>(input_),
                       std::span<dt::kv64>(work_), dist_ws_);
    }
    return failures;
  }

  void finish(layer_values& lv) override {
    lv.add_total("workspace_pool.creations",
                 static_cast<double>(pool_.creations() - creations_at_start_));
    lv.per_op["sort_service.idle_frac"] = idle_;
    lv.add_total("sort_service.req_us_p50", quantile(req_us_, 0.50));
    lv.add_total("sort_service.req_us_p99", quantile(req_us_, 0.99));
    lv.add_total("sort_service.req_samples",
                 static_cast<double>(req_us_.size()));
    lv.add_total("sort_service.req_s", req_s());
  }

  void report() const override {
    std::printf("# req_s = %.6g req/s (batch of %zu requests, %zu records)\n",
                req_s(), segs_.size(), total_);
    std::printf("# req_us_p50 = %.6g us, req_us_p99 = %.6g us (%zu samples)\n",
                quantile(req_us_, 0.50), quantile(req_us_, 0.99),
                req_us_.size());
    std::printf("# idle_frac = %.4f (median over batches)\n", median(idle_));
  }

  [[nodiscard]] double input_bytes() const override {
    return static_cast<double>(total_ * sizeof(dt::kv64));
  }
  [[nodiscard]] double working_set_bytes() const override {
    return 3 * input_bytes();
  }

 private:
  struct segment {
    std::size_t offset = 0, size = 0;
    bool uniform = true;
    std::uint64_t fp = 0;
  };

  // Requests completed per second of batch wall time at kWorkers.
  [[nodiscard]] double req_s() const {
    return static_cast<double>(segs_.size()) / median(kinds[0].t4);
  }

  void batch(int concurrency, bool with_stats) {
    dt::par::copy(std::span<const dt::kv64>(input_),
                  std::span<dt::kv64>(work_));
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      reqs_[i].result = {};
      req_stats_[i].reset();
      reqs_[i].stats = with_stats ? &req_stats_[i] : nullptr;
    }
    dt::service_options so;
    so.concurrency = concurrency;
    so.pool = &pool_;
    dt::sort_batch(reqs_, so);
  }

  std::uint64_t seed_;
  std::vector<segment> segs_;
  std::size_t total_ = 0;
  std::vector<dt::kv64> input_, work_, ref_;
  std::vector<request> reqs_;
  std::unique_ptr<dt::sort_stats[]> req_stats_;
  dt::workspace_pool pool_{kWorkers};
  dt::sort_workspace dist_ws_;
  std::uint64_t creations_at_start_ = 0;
  std::vector<double> req_us_, idle_;
};

// query-wide: top_k(k = 1000) over kv64 Zipf-1.2 records, then a full
// dovetail::sort of URL strings with Zipf-1.2 keys.
class query_workload final : public workload {
 public:
  query_workload(std::size_t n_topk, std::size_t n_str, std::uint64_t seed)
      : n_topk_(n_topk), n_str_(n_str), seed_(seed) {
    topk_.dist = {gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
    kinds = {{"top_k(1000) kv64 Zipf-1.2", n_topk, {}, {}},
             {"sort url strings Zipf-1.2", n_str, {}, {}}};
  }

  void setup() override {
    topk_.generate(n_topk_, seed_);
    str_in_ = gen::generate_url_keys(
        {gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, n_str_, seed_ + 1);
    pool_.prewarm(kWorkers);
    for (int i = 0; i < 2; ++i) {  // warm-up op
      topk_.restore();
      query_once(0, nullptr);
      str_work_ = str_in_;
      sort_strings_once(0, nullptr);
    }
  }

  void make_reference() override {
    topk_.ref = topk_.input;
    const auto by_key_then_index = [](const dt::kv64& a, const dt::kv64& b) {
      return a.key < b.key || (a.key == b.key && a.value < b.value);
    };
    const std::size_t k = std::min(kTopK, topk_.ref.size());
    std::partial_sort(topk_.ref.begin(),
                      topk_.ref.begin() + static_cast<std::ptrdiff_t>(k),
                      topk_.ref.end(), by_key_then_index);
    topk_.ref.resize(k);
    str_ref_ = str_in_;
    std::stable_sort(str_ref_.begin(), str_ref_.end());
  }

  std::size_t run_op(op_ctx& c) override {
    std::size_t failures = 0;
    const bool topk_first = c.op % 2 == 0;
    double topk_secs = 0;
    for (const int threads : {0, 1}) {
      for (int j = 0; j < 2; ++j) {
        if ((j == 0) == topk_first) {
          const double secs = timed_top_k(threads, c, failures);
          if (threads == 0) topk_secs = secs;
        } else {
          timed_string_sort(threads, c, failures);
        }
      }
    }
    if (c.traced()) {
      probe_sketch(c, std::span<const dt::kv64>(topk_.input));
      probe_distribute(c, std::span<const dt::kv64>(topk_.input), topk_.w(),
                       topk_.ws);
      c.notes.set("order_stats.pass_equiv",
                  topk_secs * 1e3 / c.notes.v["distribute.pass_ms"]);
      words_.resize(str_in_.size() * dt::kStringPrefixWords);
      span_scope s(c.tr, "key_codec.encode", c.op);
      dt::par::parallel_for(0, str_in_.size(), [&](std::size_t i) {
        for (std::size_t w = 0; w < dt::kStringPrefixWords; ++w)
          words_[i * dt::kStringPrefixWords + w] =
              dt::key_codec<std::string>::encode_word(str_in_[i], w);
      });
      c.notes.set("key_codec.encode_ms", s.stop() * 1e3);
    }
    return failures;
  }

  void report() const override {
    std::printf("# topk_ms_p50 = %.6g ms\n", median(kinds[0].t4) * 1e3);
    std::printf("# strsort_ms_p50 = %.6g ms\n", median(kinds[1].t4) * 1e3);
  }

  [[nodiscard]] double input_bytes() const override {
    double str_bytes = 0;
    for (const std::string& s : str_in_)
      str_bytes += static_cast<double>(sizeof(std::string) + s.capacity());
    return topk_.bytes() + str_bytes;
  }
  [[nodiscard]] double working_set_bytes() const override {
    // Working copies of both inputs, the top-k ping-pong buffer, and the
    // (encoded words, index) records the string sort materializes.
    const double pair_bytes = static_cast<double>(
        n_str_ * (dt::kStringPrefixWords * 8 + 8));
    return 2 * input_bytes() + topk_.bytes() + 2 * pair_bytes;
  }

 private:
  void query_once(int threads, dt::sort_stats* st) {
    dt::auto_sort_options opt;
    opt.workspace = &topk_.ws;
    opt.pool = &pool_;
    opt.num_threads = threads;
    opt.stats = st;
    (void)dt::top_k(topk_.w(), kTopK, dt::key_of_kv64, dt::rank_side::smallest,
                    opt);
  }

  dt::sort_kernel sort_strings_once(int threads, dt::sort_stats* st) {
    dt::auto_sort_options opt;
    opt.workspace = &str_ws_;
    opt.pool = &pool_;
    opt.num_threads = threads;
    opt.stats = st;
    return dt::sort(std::span<std::string>(str_work_), opt);
  }

  double timed_top_k(int threads, op_ctx& c, std::size_t& failures) {
    topk_.restore();
    dt::sort_stats st;
    const bool note = c.traced() && threads == 0;
    span_scope s(c.tr,
                 threads == 1 ? "order_stats.top_k_1t" : "order_stats.top_k",
                 c.op);
    query_once(threads, note ? &st : nullptr);
    const double secs = s.stop();
    (threads == 1 ? kinds[0].t1 : kinds[0].t4).push_back(secs);
    if (note) {
      c.notes.set("order_stats.topk_ms", secs * 1e3);
      c.notes.set("order_stats.pruned_pct",
                  100.0 * static_cast<double>(st.records_pruned.load()) /
                      static_cast<double>(n_topk_));
      c.notes.add("workspace.warm_allocs",
                  static_cast<double>(st.workspace_allocations.load()));
      c.notes.max("workspace.peak_mb",
                  static_cast<double>(st.peak_workspace()) / 1e6);
    }
    if (c.corrupt && threads == 0) std::swap(topk_.work[0], topk_.work[1]);
    failures += report_failure(
        "top_k", perfbench::check_top_k(topk_.cw(),
                                        std::span<const dt::kv64>(topk_.ref),
                                        topk_.fp));
    return secs;
  }

  void timed_string_sort(int threads, op_ctx& c, std::size_t& failures) {
    str_work_ = str_in_;
    dt::sort_stats st;
    const bool note = c.traced() && threads == 0;
    span_scope s(c.tr, threads == 1 ? "wide_sort.sort_1t" : "wide_sort.sort",
                 c.op);
    const dt::sort_kernel k = sort_strings_once(threads, note ? &st : nullptr);
    const double secs = s.stop();
    (threads == 1 ? kinds[1].t1 : kinds[1].t4).push_back(secs);
    if (note) {
      note_front_door_call(c.notes, k, st);
      c.notes.set("wide_sort.strsort_ms", secs * 1e3);
      c.notes.set("wide_sort.refine_rounds",
                  static_cast<double>(st.refine_rounds.load()));
      c.notes.set("wide_sort.continuation_rounds",
                  static_cast<double>(st.wide_continuation_rounds.load()));
      c.notes.set("wide_sort.segments",
                  static_cast<double>(st.wide_segments.load()));
    }
    if (c.corrupt && threads == 0) str_work_.front().push_back('!');
    failures += report_failure("string sort",
                               perfbench::check_strings(str_work_, str_ref_));
  }

  std::size_t n_topk_, n_str_;
  std::uint64_t seed_;
  sorted_input<dt::kv64> topk_;
  std::vector<std::string> str_in_, str_work_, str_ref_;
  std::vector<std::uint64_t> words_;
  dt::sort_workspace str_ws_;
  dt::workspace_pool pool_{kWorkers};
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double scale) {
  const std::size_t n = scaled(10'000'000, scale);
  const gen::distribution unif9{gen::dist_kind::uniform, 1e9, "Unif-1e9"};
  if (name == "bulk-light")
    return std::make_unique<bulk_workload<dt::kv64, dt::kv32>>(unif9, unif9,
                                                               n, seed);
  if (name == "bulk-dup")
    return std::make_unique<bulk_workload<dt::kv64, dt::kv64>>(
        gen::distribution{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"},
        gen::distribution{gen::dist_kind::exponential, 5, "Exp-5"}, n, seed);
  if (name == "serve-mixed")
    return std::make_unique<serve_workload>(seed, scale);
  if (name == "query-wide")
    return std::make_unique<query_workload>(n, scaled(1'000'000, scale),
                                            seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The harness.

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct run_result {
  std::size_t attempted = 0, failed = 0;
  std::vector<metric> metrics;
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::size_t corrupt = 0;
  double scale = 1.0;
};

// Records per second at the given width: the geometric mean over the op's
// call kinds of records / median call time, in Mrec/s.
double mrec_s(const std::vector<call_kind>& kinds, bool serial) {
  double log_sum = 0;
  for (const call_kind& k : kinds) {
    const double t = median(serial ? k.t1 : k.t4);
    if (t <= 0) return 0.0;
    log_sum += std::log(static_cast<double>(k.records) / t / 1e6);
  }
  return std::exp(log_sum / static_cast<double>(kinds.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The per-layer metrics of the traced run, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"parallel.wake_us", "us"},
      {"parallel.task_ns", "ns"},
      {"parallel.speedup_vs_1t", "x"},
      {"input_sketch.us_per_call", "us"},
      {"auto_sort.kernel.std_sort", "count"},
      {"auto_sort.kernel.lsd", "count"},
      {"auto_sort.kernel.dtsort", "count"},
      {"auto_sort.kernel.counting", "count"},
      {"auto_sort.kernel.run_merge", "count"},
      {"auto_sort.kernel.inplace", "count"},
      {"auto_sort.parallel_calls", "count"},
      {"auto_sort.glue_ms", "ms"},
      {"distribute.pass_ms", "ms"},
      {"distribute.gbs_computed", "GB/s"},
      {"dovetail_sort.ms", "ms"},
      {"dovetail_sort.levels", "x"},
      {"dovetail_sort.heavy_pct", "%"},
      {"dovetail_sort.base_pct", "%"},
      {"dt_merge.ms", "ms"},
      {"lsd_radix_sort.ms", "ms"},
      {"workspace.warm_allocs", "count"},
      {"workspace.peak_mb", "MB"},
      {"workspace_pool.creations", "count"},
      {"sort_service.idle_frac", "fraction"},
      {"sort_service.req_s", "req/s"},
      {"sort_service.req_us_p50", "us"},
      {"sort_service.req_us_p99", "us"},
      {"sort_service.req_samples", "count"},
      {"order_stats.topk_ms", "ms"},
      {"order_stats.pruned_pct", "%"},
      {"order_stats.pass_equiv", "x"},
      {"wide_sort.strsort_ms", "ms"},
      {"wide_sort.refine_rounds", "count"},
      {"wide_sort.continuation_rounds", "count"},
      {"wide_sort.segments", "count"},
      {"key_codec.encode_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"verify.error_rate", "fraction"},
  };
  return m;
}

run_result run_workload(const options& o) {
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  // Bring every core out of idle before anything is timed: on a VM, a
  // vCPU that has idled for a while wakes slowly for tens of ms.
  dt::par::scheduler::set_num_workers(kWorkers);
  dt::par::parallel_for(0, kWorkers, [](std::size_t) { spin_for(0.25); }, 1);

  // Set-up, several times; the median is setup_s. The previous copy is
  // freed before the next is built, so peak memory is one copy's.
  std::unique_ptr<workload> w;
  std::vector<double> setup_secs;
  double setup_total = 0;
  for (int rep = 0; rep < kMinSetupReps ||
                    (setup_total < kSetupBudgetS && rep < kMaxSetupReps);
       ++rep) {
    w.reset();
    dt::timer t;
    dt::par::scheduler::set_num_workers(kWorkers);
    w = make_workload(o.workload, o.seed, o.scale);
    w->setup();
    setup_secs.push_back(t.seconds());
    setup_total += setup_secs.back();
  }
  w->make_reference();

  // Timed phase. In the traced run even ops are traced and odd ones are
  // not, so the tracing overhead is measured in one process.
  tracer tr;
  layer_values lv;
  run_result r;
  std::vector<double> op4_traced, op4_plain;
  const std::size_t min_ops = o.trace ? 4 : 3;
  dt::timer phase;
  for (std::size_t op = 0; op < min_ops || phase.seconds() < o.seconds;
       ++op) {
    op_ctx c;
    c.op = op;
    c.tr = o.trace && op % 2 == 0 ? &tr : nullptr;
    c.corrupt = op < o.corrupt;
    std::vector<std::size_t> before;
    for (const call_kind& k : w->kinds) before.push_back(k.t4.size());
    std::size_t failures = 0;
    {
      span_scope root(c.tr, "op", op);
      try {
        failures = w->run_op(c);
        if (c.traced()) probe_scheduler(c);
      } catch (const std::exception& e) {
        std::printf("# op %zu threw: %s\n", op, e.what());
        failures = 1;
      }
    }
    ++r.attempted;
    if (failures != 0) ++r.failed;
    double op4 = 0;
    for (std::size_t i = 0; i < w->kinds.size(); ++i)
      if (w->kinds[i].t4.size() > before[i]) op4 += w->kinds[i].t4.back();
    (c.traced() ? op4_traced : op4_plain).push_back(op4);
    if (c.traced()) c.notes.flush(lv);
  }
  const double elapsed = phase.seconds();

  const double m4 = mrec_s(w->kinds, false);
  const double m1 = mrec_s(w->kinds, true);
  const double error_rate =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);

  // Human-readable report.
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("# host: nproc %ld, workers %d, llc_bytes %ld, build %s, "
              "simd %s\n",
              sysconf(_SC_NPROCESSORS_ONLN), dt::par::num_workers(), llc,
              PERFBENCH_BUILD_TYPE, dt::simd::isa_name(dt::simd::level()));
  std::printf("# input_bytes %.0f (%.2fx llc), working_set_bytes %.0f "
              "(%.2fx llc, computed)\n",
              w->input_bytes(), llc > 0 ? w->input_bytes() / llc : 0.0,
              w->working_set_bytes(),
              llc > 0 ? w->working_set_bytes() / llc : 0.0);
  std::printf("# setup_s reps:");
  for (const double s : setup_secs) std::printf(" %.4f", s);
  std::printf("\n# ops attempted %zu, failed %zu, error_rate %g fraction, "
              "timed phase %.2f s\n",
              r.attempted, r.failed, error_rate, elapsed);
  for (const call_kind& k : w->kinds)
    std::printf("# call %s: %zu records; at %d workers median %.3f ms, "
                "range %.3f-%.3f (%zu samples); at 1 worker median %.3f ms, "
                "range %.3f-%.3f (%zu samples)\n",
                k.name.c_str(), k.records, kWorkers, median(k.t4) * 1e3,
                quantile(k.t4, 0) * 1e3, quantile(k.t4, 1) * 1e3, k.t4.size(),
                median(k.t1) * 1e3, quantile(k.t1, 0) * 1e3,
                quantile(k.t1, 1) * 1e3, k.t1.size());
  w->report();

  if (!o.trace) {
    r.metrics = {{"setup_s", median(setup_secs), "s"},
                 {"mrec_s", m4, "Mrec/s"},
                 {"mrec_s_1t", m1, "Mrec/s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    w->finish(lv);
    lv.add_total("parallel.speedup_vs_1t", m1 > 0 ? m4 / m1 : 0.0);
    const double calls = lv.value("input_sketch.calls");
    lv.add_total("input_sketch.us_per_call",
                 calls > 0 ? lv.value("input_sketch.us_total") / calls : 0.0);
    double allocs = 0;
    for (const double a : lv.per_op["workspace.warm_allocs"]) allocs += a;
    lv.add_total("workspace.warm_allocs", allocs);
    const double plain = median(op4_plain);
    lv.add_total("trace.overhead_pct",
                 plain > 0 ? 100.0 * (median(op4_traced) / plain - 1.0) : 0.0);
    lv.add_total("verify.error_rate", error_rate);
    for (const auto& [name, unit] : layer_metrics())
      r.metrics.push_back({name, lv.value(name), unit});

    std::printf("# self time per span (ms per traced op, %zu traced ops):\n",
                op4_traced.size());
    for (const auto& [name, secs] : tr.self_seconds())
      std::printf("#   %-28s %10.3f\n", name.c_str(),
                  secs * 1e3 / static_cast<double>(op4_traced.size()));
    if (!o.spans_path.empty() && !tr.write_jsonl(o.spans_path))
      std::printf("# could not write spans to %s\n", o.spans_path.c_str());
  }
  for (const metric& m : r.metrics)
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return r;
}

void print_json(const run_result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <bulk-light|bulk-dup|serve-mixed|"
               "query-wide|all> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>] [--corrupt <ops>] [--scale <f>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") o.trace = std::string(v) == "1";
    else if (flag == "--spans") o.spans_path = v;
    else if (flag == "--corrupt") o.corrupt = std::strtoull(v, nullptr, 10);
    else if (flag == "--scale") o.scale = std::strtod(v, nullptr);
    else return usage();
  }
  const std::vector<std::string> all = {"bulk-light", "bulk-dup",
                                        "serve-mixed", "query-wide"};
  if (o.workload != "all" &&
      std::find(all.begin(), all.end(), o.workload) == all.end())
    return usage();
  if (!(o.scale > 0) || !(o.seconds >= 0)) return usage();

  if (o.workload != "all") {
    print_json(run_workload(o));
    return 0;
  }
  // Every workload in turn, one process; metrics are prefixed by workload.
  run_result total;
  const std::string spans = o.spans_path;
  for (const std::string& name : all) {
    o.workload = name;
    if (!spans.empty()) o.spans_path = spans + "." + name;
    run_result r = run_workload(o);
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (metric& m : r.metrics)
      total.metrics.push_back({name + "." + m.name, m.value, m.unit});
  }
  print_json(total);
  return 0;
}
