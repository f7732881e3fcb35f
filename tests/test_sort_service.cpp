// Concurrency battery for the batched serving layer (sort_service.hpp):
//   * sort_batch correctness — every request sorted, stable, a permutation
//     of its input, across mixed sizes including empty and singleton;
//   * byte-identical to serial — a batched run reproduces, bit for bit,
//     sorting each request one at a time with a private workspace;
//   * foreign-thread stress — N std::threads each draining their own
//     batch over ONE shared pool: all outputs exact, and the pool counters
//     keep the invariant checkouts == pool_hits + creations under stress;
//   * zero warm-path allocation — after prewarm() + one warming round, a
//     second identical round does zero pool creations and zero workspace
//     (arena/slab) allocations: the steady state the serving layer exists
//     to reach;
//   * per-request num_threads=1 takes the exact serial path (no refine
//     pool traffic beyond the one per-request lease);
//   * soft deadlines and the service_* accounting counters;
//   * stats — per-request objects see only their request, and one object
//     shared by a whole batch reads as the field-wise sum (max for the
//     marks) of per-request objects;
//   * plain-key requests default to the pure-key self_key functor, so the
//     memory-budget rule picks the in-place kernel as dovetail::sort does.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dovetail/core/sort_service.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;

namespace {

using u128 = unsigned __int128;

struct worker_count_guard {
  ~worker_count_guard() {
    par::scheduler::set_num_workers(par::scheduler::default_num_workers());
  }
};

gen::distribution unif_dist() { return {gen::dist_kind::uniform, 1e7, "U"}; }
gen::distribution zipf_dist() { return {gen::dist_kind::zipfian, 1.2, "Z"}; }

// A deterministic mixed-size request load: sizes cycle through shapes the
// dispatcher routes to different kernels (tiny/serial through
// above-crossover parallel).
std::vector<std::size_t> mixed_sizes(std::size_t count) {
  const std::size_t shapes[] = {0, 1, 7, 300, 2'000, 9'000, 40'000};
  std::vector<std::size_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i)
    sizes[i] = shapes[i % std::size(shapes)];
  return sizes;
}

// Inputs for a request load; seed varies per request so no two share data.
std::vector<std::vector<kv64>> make_inputs(const std::vector<std::size_t>& sizes,
                                           std::uint64_t seed_base) {
  std::vector<std::vector<kv64>> inputs;
  inputs.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i)
    inputs.push_back(gen::generate_records<kv64>(
        i % 2 == 0 ? unif_dist() : zipf_dist(), sizes[i],
        seed_base + i));
  return inputs;
}

// The serial reference: each input sorted one at a time through the front
// door with a private workspace (the determinism contract says the batch
// must reproduce this byte for byte).
std::vector<std::vector<kv64>> serial_reference(
    const std::vector<std::vector<kv64>>& inputs) {
  std::vector<std::vector<kv64>> ref = inputs;
  for (std::vector<kv64>& r : ref) {
    sort_workspace ws;
    auto_sort_options opt;
    opt.workspace = &ws;
    dovetail::sort(std::span<kv64>(r), key_of_kv64, opt);
  }
  return ref;
}

std::vector<sort_request<kv64, decltype(key_of_kv64)>> make_requests(
    std::vector<std::vector<kv64>>& inputs) {
  std::vector<sort_request<kv64, decltype(key_of_kv64)>> reqs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    reqs[i].data = std::span<kv64>(inputs[i]);
  return reqs;
}

// kv64's key, counting the calls made off the `caller` thread.
struct caller_key {
  std::thread::id caller;
  std::atomic<std::size_t>* elsewhere = nullptr;
  std::uint64_t operator()(const kv64& r) const {
    if (std::this_thread::get_id() != caller)
      elsewhere->fetch_add(1, std::memory_order_relaxed);
    return r.key;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Batched correctness.

TEST(SortBatch, SortsEveryRequestAcrossMixedSizes) {
  const std::vector<std::size_t> sizes = mixed_sizes(21);
  std::vector<std::vector<kv64>> inputs = make_inputs(sizes, 1'000);
  std::vector<std::uint64_t> fps;
  for (const auto& in : inputs)
    fps.push_back(dtt::multiset_hash(std::span<const kv64>(in), key_of_kv64));

  auto reqs = make_requests(inputs);
  sort_batch(reqs);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::span<const kv64> out(inputs[i]);
    EXPECT_TRUE(reqs[i].result.completed);
    EXPECT_TRUE(dtt::sorted_by_key(out, key_of_kv64)) << "request " << i;
    EXPECT_TRUE(dtt::stable_by_index_value(out, key_of_kv64));
    EXPECT_EQ(fps[i], dtt::multiset_hash(out, key_of_kv64))
        << "request " << i << " lost or duplicated records";
  }
}

TEST(SortBatch, ByteIdenticalToSerialOneShots) {
  const std::vector<std::size_t> sizes = mixed_sizes(15);
  std::vector<std::vector<kv64>> inputs = make_inputs(sizes, 2'000);
  const std::vector<std::vector<kv64>> expected = serial_reference(inputs);

  workspace_pool pool(4);
  auto reqs = make_requests(inputs);
  service_options opt;
  opt.pool = &pool;
  sort_batch(reqs, opt);

  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(inputs[i], expected[i]) << "request " << i;
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
}

TEST(SortBatch, SerialBatchRunsOnTheCaller) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  const std::vector<std::size_t> sizes = mixed_sizes(10);
  std::vector<std::vector<kv64>> inputs = make_inputs(sizes, 3'000);
  const std::vector<std::vector<kv64>> expected = serial_reference(inputs);

  // concurrency = 1: every request, and every pass of it, on this thread.
  std::atomic<std::size_t> elsewhere{0};
  std::vector<sort_request<kv64, caller_key>> reqs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reqs[i].data = std::span<kv64>(inputs[i]);
    reqs[i].key = {std::this_thread::get_id(), &elsewhere};
  }
  service_options opt;
  opt.concurrency = 1;
  sort_batch(reqs, opt);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(inputs[i], expected[i]);
  EXPECT_EQ(elsewhere.load(), 0u);
}

TEST(SortBatch, EmptyBatchIsANoOp) {
  sort_stats st;
  service_options opt;
  opt.stats = &st;
  std::vector<sort_request<kv64, decltype(key_of_kv64)>> reqs;
  sort_batch(reqs, opt);
  EXPECT_EQ(st.service_requests.load(), 0u);
  EXPECT_EQ(st.service_batches.load(), 1u);
}

// ---------------------------------------------------------------------------
// Foreign-thread stress over one shared pool.

TEST(SortBatchStress, EightForeignThreadsOneSharedPool) {
  constexpr int kThreads = 8;
  constexpr int kBatchesPerThread = 3;
  workspace_pool pool(kThreads);

  // Precompute every thread's inputs and serial references up front.
  std::array<std::vector<std::vector<kv64>>, kThreads> inputs;
  std::array<std::vector<std::vector<kv64>>, kThreads> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs[t] = make_inputs(mixed_sizes(kBatchesPerThread * 5),
                            10'000 + 1'000 * t);
    expected[t] = serial_reference(inputs[t]);
  }

  // array<bool>, not vector<bool>: packed bits would share words across
  // threads (a real race); plain bools are distinct memory locations.
  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &pool, &inputs, &expected, &ok] {
      bool all = true;
      const std::size_t per_batch = inputs[t].size() / kBatchesPerThread;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<sort_request<kv64, decltype(key_of_kv64)>> reqs(per_batch);
        for (std::size_t i = 0; i < per_batch; ++i)
          reqs[i].data = std::span<kv64>(inputs[t][b * per_batch + i]);
        service_options opt;
        opt.pool = &pool;
        sort_batch(reqs, opt);
        for (std::size_t i = 0; i < per_batch; ++i) {
          all = all && reqs[i].result.completed &&
                inputs[t][b * per_batch + i] == expected[t][b * per_batch + i];
        }
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(ok[t]) << "thread " << t
                       << " diverged from its serial reference";
  // The pool invariant must survive the stampede.
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
  EXPECT_GT(pool.checkouts(), 0u);
  // A warm pool at rest: the next checkout must be a hit.
  const std::uint64_t created = pool.creations();
  { workspace_pool::handle h = pool.checkout(); }
  EXPECT_EQ(pool.creations(), created);
}

// ---------------------------------------------------------------------------
// Prewarm and the zero-allocation steady state.

TEST(WorkspacePoolPrewarm, ParksArenasWithoutTouchingCounters) {
  workspace_pool pool(3);
  EXPECT_EQ(pool.parked(), 0u);
  EXPECT_EQ(pool.prewarm(), 3u);
  EXPECT_EQ(pool.parked(), 3u);
  EXPECT_EQ(pool.checkouts(), 0u);
  EXPECT_EQ(pool.creations(), 0u);
  // Idempotent: warm slots stay warm, nothing is double-parked.
  EXPECT_EQ(pool.prewarm(), 3u);
  EXPECT_EQ(pool.parked(), 3u);

  // Every burst checkout is now a hit, and the invariant still holds.
  {
    std::vector<workspace_pool::handle> burst;
    for (int i = 0; i < 3; ++i) burst.push_back(pool.checkout());
    EXPECT_EQ(pool.pool_hits(), 3u);
    EXPECT_EQ(pool.creations(), 0u);
  }
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
  EXPECT_EQ(pool.parked(), 3u);
}

TEST(WorkspacePoolPrewarm, PartialPrewarmRespectsCount) {
  workspace_pool pool(4);
  EXPECT_EQ(pool.prewarm(2), 2u);
  EXPECT_EQ(pool.parked(), 2u);
}

TEST(SortBatch, WarmSteadyStateZeroWorkspaceAllocations) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  workspace_pool pool(1);
  pool.prewarm();

  // concurrency = 1 pins the batch to the calling thread, so both rounds
  // present the identical request sequence to the single pooled arena.
  const auto run_round = [&pool](sort_stats* st) {
    std::vector<std::vector<kv64>> inputs =
        make_inputs(mixed_sizes(10), 5'000);  // same seeds: identical load
    auto reqs = make_requests(inputs);
    service_options opt;
    opt.pool = &pool;
    opt.concurrency = 1;
    opt.stats = st;
    sort_batch(reqs, opt);
    for (const auto& in : inputs)
      ASSERT_TRUE(dtt::sorted_by_key(std::span<const kv64>(in), key_of_kv64));
  };

  sort_stats warm_st;
  run_round(&warm_st);  // warming round: arena + slabs size themselves
  const std::uint64_t created_after_warm = pool.creations();
  EXPECT_EQ(created_after_warm, 0u) << "prewarm must cover the first round";

  sort_stats steady_st;
  run_round(&steady_st);
  EXPECT_EQ(steady_st.workspace_allocations.load(), 0u)
      << "a warm steady-state round must not allocate arena or slab memory";
  EXPECT_GT(steady_st.workspace_reuses.load(), 0u);
  EXPECT_EQ(pool.creations(), created_after_warm);
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
}

// ---------------------------------------------------------------------------
// Per-request knobs.

TEST(SortBatch, PerRequestSerialCapSkipsRefinePoolTraffic) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  // Wide keys with fat equal-prefix segments: a parallel refine would
  // lease extra segment arenas from the pool. num_threads=1 per request
  // promises the exact serial path, so the ONLY pool traffic is the one
  // workspace lease per request.
  constexpr std::size_t kRequests = 4;
  std::vector<std::vector<tkv<u128>>> inputs;
  for (std::size_t i = 0; i < kRequests; ++i)
    inputs.push_back(
        gen::generate_wide_records<u128>(zipf_dist(), 30'000, 40 + i, 4));

  workspace_pool pool(8);
  std::vector<sort_request<tkv<u128>, decltype(key_of_tkv<u128>)>> reqs(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    reqs[i].data = std::span<tkv<u128>>(inputs[i]);
    reqs[i].num_threads = 1;
  }
  service_options opt;
  opt.pool = &pool;
  opt.policy.wide_segment_base_case = 512;
  sort_batch(reqs, opt);

  EXPECT_EQ(pool.checkouts(), static_cast<std::uint64_t>(kRequests))
      << "serial-capped requests must lease exactly one workspace each";
  for (const auto& in : inputs)
    EXPECT_TRUE(dtt::stable_by_index_value(std::span<const tkv<u128>>(in),
                                           key_of_tkv<u128>));
}

TEST(SortBatch, SoftDeadlinesAreRecordedNotEnforced) {
  std::vector<std::vector<kv64>> inputs = make_inputs({50'000, 50'000}, 6'000);
  auto reqs = make_requests(inputs);
  reqs[0].deadline_s = 3600.0;  // generous: met
  reqs[1].deadline_s = 1e-12;   // impossible: missed, but still completed
  sort_batch(reqs);
  EXPECT_TRUE(reqs[0].result.deadline_met);
  EXPECT_FALSE(reqs[1].result.deadline_met);
  EXPECT_TRUE(reqs[1].result.completed)
      << "a missed soft deadline must not abandon the sort";
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv64>(inputs[1]),
                                 key_of_kv64));
  EXPECT_GT(reqs[0].result.seconds, 0.0);
}

TEST(SortBatch, ServiceCountersAccumulate) {
  sort_stats st;
  service_options opt;
  opt.stats = &st;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<kv64>> inputs = make_inputs({1'000, 2'000}, 7'000);
    auto reqs = make_requests(inputs);
    sort_batch(reqs, opt);
  }
  EXPECT_EQ(st.service_batches.load(), 3u);
  EXPECT_EQ(st.service_requests.load(), 6u);
  EXPECT_GT(st.workspace_reuses.load() + st.workspace_allocations.load(), 0u)
      << "batch-level stats must aggregate the front door's counters";
  st.reset();
  EXPECT_EQ(st.service_requests.load(), 0u);
  EXPECT_EQ(st.service_batches.load(), 0u);
}

namespace {

// The fields a stats object shared by concurrent requests must hold as the
// field-wise sum (counters) or max (marks) of per-request objects. The
// workspace_* counters are left out: they depend on which pool arena each
// request leases.
std::vector<std::uint64_t> summed_counters(const sort_stats& st) {
  return {st.distributed_records.load(),
          st.heavy_records.load(),
          st.base_case_records.load(),
          st.refine_rounds.load(),
          st.wide_segments.load(),
          st.wide_continuation_rounds.load(),
          st.wide_continuation_segments.load(),
          st.wide_tiebreak_fallbacks.load()};
}

std::vector<std::uint64_t> max_marks(const sort_stats& st) {
  return {st.chosen_parallelism.load(), st.max_depth.load(),
          st.wide_max_byte_offset.load()};
}

// Sorts each input alone through dovetail::sort with its own stats and
// returns the field-wise sums and maxes over all of them.
template <typename Rec, typename KeyFn>
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
one_at_a_time(std::vector<std::vector<Rec>> inputs, const KeyFn& key,
              const dispatch_policy& policy = {}) {
  std::vector<std::uint64_t> sums(summed_counters(sort_stats{}).size());
  std::vector<std::uint64_t> maxes(max_marks(sort_stats{}).size());
  for (std::vector<Rec>& in : inputs) {
    sort_stats st;
    auto_sort_options opt;
    opt.policy = policy;
    opt.stats = &st;
    dovetail::sort(std::span<Rec>(in), key, opt);
    const auto c = summed_counters(st);
    const auto m = max_marks(st);
    for (std::size_t f = 0; f < c.size(); ++f) sums[f] += c[f];
    for (std::size_t f = 0; f < m.size(); ++f)
      maxes[f] = std::max(maxes[f], m[f]);
  }
  return {sums, maxes};
}

}  // namespace

// Per-request stats isolate one request's work even when the batch runs
// concurrently: each equals a private sort of the same input.
TEST(SortBatch, PerRequestStatsSeeOnlyTheirRequest) {
  std::vector<std::vector<kv64>> inputs = make_inputs({40'000, 300}, 8'000);
  const std::vector<std::vector<kv64>> copies = inputs;
  std::array<sort_stats, 2> st;
  auto reqs = make_requests(inputs);
  reqs[0].stats = &st[0];
  reqs[1].stats = &st[1];
  sort_batch(reqs);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto [sums, maxes] = one_at_a_time<kv64>({copies[i]}, key_of_kv64);
    EXPECT_EQ(summed_counters(st[i]), sums) << "request " << i;
    EXPECT_EQ(max_marks(st[i]), maxes) << "request " << i;
    std::vector<kv64> alone = copies[i];
    EXPECT_EQ(reqs[i].result.kernel,
              dovetail::sort(std::span<kv64>(alone), key_of_kv64));
  }
  EXPECT_EQ(st[1].chosen_parallelism.load(), 1u);  // below the crossover
}

// One stats object shared by every request of a concurrent batch reads as
// the field-wise sum (counters) and max (marks) of per-request objects —
// no field is last-write-wins, so the interleaving cannot show.
TEST(SortBatch, SharedStatsAreFieldwiseSumAndMax) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  {
    std::vector<std::vector<kv64>> inputs =
        make_inputs({300, 9'000, 40'000, 70'000, 2'000, 120'000}, 9'000);
    const auto [sums, maxes] = one_at_a_time(inputs, key_of_kv64);
    sort_stats shared;
    service_options opt;
    opt.stats = &shared;
    auto reqs = make_requests(inputs);
    sort_batch(reqs, opt);
    EXPECT_EQ(summed_counters(shared), sums);
    EXPECT_EQ(max_marks(shared), maxes);
    EXPECT_EQ(shared.chosen_parallelism.load(), 4u);
  }
  {
    const gen::distribution zipf{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};
    std::vector<std::vector<std::string>> inputs;
    for (const std::size_t n : {std::size_t{500}, std::size_t{20'000},
                                std::size_t{50'000}})
      inputs.push_back(gen::generate_url_keys(zipf, n, 40 + n));
    inputs.push_back(gen::generate_lcp_string_keys(zipf, 30'000, 41, 40));
    // A small base case sends the tied segments through the continuation.
    dispatch_policy policy;
    policy.wide_segment_base_case = 64;
    const auto [sums, maxes] = one_at_a_time(inputs, self_key{}, policy);
    sort_stats shared;
    service_options opt;
    opt.policy = policy;
    opt.stats = &shared;
    std::vector<sort_request<std::string>> reqs(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      reqs[i].data = std::span<std::string>(inputs[i]);
    sort_batch(reqs, opt);
    for (const auto& in : inputs)
      EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
    EXPECT_EQ(summed_counters(shared), sums);
    EXPECT_EQ(max_marks(shared), maxes);
    EXPECT_GE(shared.wide_continuation_rounds.load(), 1u);
  }
}

// The default key functor is self_key, which the dispatcher recognizes as
// pure-key: under a memory budget the ping-pong lease cannot meet, a batch
// of plain keys takes the in-place kernel exactly like dovetail::sort.
TEST(SortBatch, DefaultKeyFunctorIsPureKey) {
  std::vector<std::uint64_t> keys(std::size_t{1} << 18);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = par::hash64(i);
  auto_sort_options aopt;
  aopt.policy.memory_budget_bytes = 1024;
  auto direct = keys;
  EXPECT_EQ(dovetail::sort(std::span<std::uint64_t>(direct), aopt),
            sort_kernel::inplace);

  service_options opt;
  opt.policy = aopt.policy;
  std::vector<sort_request<std::uint64_t>> reqs(1);
  reqs[0].data = std::span<std::uint64_t>(keys);
  sort_batch(reqs, opt);
  EXPECT_EQ(reqs[0].result.kernel, sort_kernel::inplace);
  EXPECT_EQ(keys, direct);
}
