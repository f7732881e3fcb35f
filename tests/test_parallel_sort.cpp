// Parallel front-door tests — the workspace_pool, the per-call worker
// limit, and concurrent sorts through dovetail::sort:
//   * workspace_pool contract — checkout/checkin round trips park and
//     rehydrate the same arena (pool_hits), overflow past capacity
//     discards instead of growing, handles are move-only RAII, and the
//     counters always satisfy checkouts == hits + creations — including
//     under a many-thread checkout/checkin stress;
//   * scoped_worker_limit — composes by min, effective_workers() reflects
//     the innermost cap, and a limit of 1 forces pardo's serial path
//     (both branches on the calling worker);
//   * concurrent sorts — N foreign std::threads each sorting with its own
//     workspace, and the shared-pool variant where every thread leases its
//     arena from one workspace_pool: all outputs record-exact and stable,
//     and a second warm round performs zero pool creations (the
//     zero-steady-state-allocation property);
//   * determinism — byte-identical outputs across num_threads ∈ {1, 2, 4}
//     for flat keys, and between the serial and the pool-backed wide
//     refine;
//   * the per-call cap — num_threads = 1 keeps every pass of the
//     encode-once routes (rank, sort_by_key, group_by(fingerprint), sort of
//     non-trivially-copyable records, top_k) on the calling thread;
//   * the dispatch record — sort_stats.chosen_parallelism/effective_workers
//     mirror the decision: 1 below parallel_crossover_n or under a
//     num_threads=1 cap, the worker count above it, the per-call cap in
//     between.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;

namespace {

using u128 = unsigned __int128;

// Every test that resizes the global pool restores it on exit; gtest runs
// tests in one process, so a leaked size would leak into later suites.
struct worker_count_guard {
  ~worker_count_guard() {
    par::scheduler::set_num_workers(par::scheduler::default_num_workers());
  }
};

gen::distribution unif_dist() { return {gen::dist_kind::uniform, 1e7, "U"}; }
gen::distribution zipf_dist() { return {gen::dist_kind::zipfian, 1.2, "Z"}; }

}  // namespace

// ---------------------------------------------------------------------------
// workspace_pool contract.

TEST(WorkspacePool, CheckoutCheckinRoundTrip) {
  workspace_pool pool(2);
  EXPECT_EQ(pool.capacity(), 2u);

  sort_workspace* first = nullptr;
  {
    workspace_pool::handle h = pool.checkout();
    ASSERT_TRUE(h);
    first = h.get();
    // Use the arena like a sort would, so the round trip carries state.
    h->record_buffer<kv64>(1024);
  }  // checkin on destruction
  EXPECT_EQ(pool.creations(), 1u);
  EXPECT_EQ(pool.pool_hits(), 0u);

  workspace_pool::handle h2 = pool.checkout();
  EXPECT_EQ(h2.get(), first) << "a parked arena must be rehydrated";
  EXPECT_EQ(pool.pool_hits(), 1u);
  EXPECT_EQ(pool.creations(), 1u);
  EXPECT_EQ(pool.checkouts(), 2u);
}

TEST(WorkspacePool, OverflowPastCapacityDiscards) {
  workspace_pool pool(1);
  workspace_pool::handle a = pool.checkout();
  workspace_pool::handle b = pool.checkout();  // capacity is 1: both created
  EXPECT_EQ(pool.creations(), 2u);
  a.release();
  b.release();  // only one slot: the second checkin must discard
  EXPECT_EQ(pool.discards(), 1u);
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
}

TEST(WorkspacePool, HandleIsMoveOnlyRaii) {
  workspace_pool pool(2);
  workspace_pool::handle h = pool.checkout();
  sort_workspace* raw = h.get();
  workspace_pool::handle moved = std::move(h);
  EXPECT_FALSE(h);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(moved.get(), raw);
  moved.release();
  EXPECT_FALSE(moved);
  moved.release();  // idempotent
  EXPECT_EQ(pool.checkouts(), 1u);
}

TEST(WorkspacePool, DefaultCapacityTracksScheduler) {
  workspace_pool pool;
  EXPECT_EQ(pool.capacity(),
            static_cast<std::size_t>(par::scheduler::default_num_workers()));
  EXPECT_GE(workspace_pool::shared().capacity(), 1u);
}

TEST(WorkspacePool, ConcurrentCheckoutStress) {
  workspace_pool pool(4);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIters; ++i) {
        workspace_pool::handle h = pool.checkout();
        // Touch the arena: a racing handoff of the same workspace to two
        // threads would corrupt the record buffer (and trip TSan).
        const std::span<kv32> buf = h->record_buffer<kv32>(64);
        buf[0] = {static_cast<std::uint32_t>(i), 0};
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.checkouts(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(pool.checkouts(), pool.pool_hits() + pool.creations());
  // Warm steady state: one more round trip must be a hit, not a creation.
  const std::uint64_t created = pool.creations();
  { workspace_pool::handle h = pool.checkout(); }
  EXPECT_EQ(pool.creations(), created);
}

// ---------------------------------------------------------------------------
// scoped_worker_limit and effective_workers.

TEST(ScopedWorkerLimit, ComposesByMin) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  EXPECT_EQ(par::effective_workers(), 4);
  {
    par::scoped_worker_limit outer(2);
    EXPECT_EQ(par::effective_workers(), 2);
    {
      par::scoped_worker_limit inner(3);  // wider than outer: no effect
      EXPECT_EQ(par::effective_workers(), 2);
    }
    {
      par::scoped_worker_limit inner(1);
      EXPECT_EQ(par::effective_workers(), 1);
    }
    EXPECT_EQ(par::effective_workers(), 2);
  }
  EXPECT_EQ(par::effective_workers(), 4);
  {
    par::scoped_worker_limit zero(0);  // 0 = no cap
    EXPECT_EQ(par::effective_workers(), 4);
  }
}

TEST(ScopedWorkerLimit, LimitOneForcesSerialPardo) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  par::scoped_worker_limit cap(1);
  std::thread::id left, right;
  par::pardo([&] { left = std::this_thread::get_id(); },
             [&] { right = std::this_thread::get_id(); });
  EXPECT_EQ(left, right) << "limit 1 must run both branches inline";
  EXPECT_EQ(left, std::this_thread::get_id());
}

TEST(ScopedWorkerLimit, ParallelForStillCoversEveryIndex) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  par::scoped_worker_limit cap(2);
  std::vector<std::uint8_t> hit(10'000, 0);
  par::parallel_for(0, hit.size(), [&](std::size_t i) { hit[i] += 1; });
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                          [](std::uint8_t v) { return v == 1; }));
}

// ---------------------------------------------------------------------------
// Concurrent sorts from foreign threads.

TEST(ConcurrentSorts, OwnWorkspacePerThread) {
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 40'000;
  std::vector<std::thread> threads;
  // NOT vector<bool>: its packed bits share a word, so per-thread writes
  // to distinct elements would be a real data race (TSan flags it). Plain
  // bools are distinct memory locations, and join() orders the reads.
  std::array<bool, kThreads> ok{};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ok] {
      auto input =
          gen::generate_records<kv64>(unif_dist(), kN, 100 + t);
      const std::uint64_t fp = dtt::multiset_hash(
          std::span<const kv64>(input), key_of_kv64);
      sort_workspace ws;
      auto_sort_options opt;
      opt.workspace = &ws;
      dovetail::sort(std::span<kv64>(input), key_of_kv64, opt);
      ok[t] = dtt::sorted_by_key(std::span<const kv64>(input),
                                 key_of_kv64) &&
              dtt::stable_by_index_value(std::span<const kv64>(input),
                                         key_of_kv64) &&
              fp == dtt::multiset_hash(std::span<const kv64>(input),
                                       key_of_kv64);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(ok[t]) << "thread " << t << " produced a wrong order";
}

TEST(ConcurrentSorts, SharedPoolLeasesAndWarmReuse) {
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 30'000;
  workspace_pool pool(kThreads);

  // array<bool>, not vector<bool> — see OwnWorkspacePerThread.
  const auto round = [&pool](int seed_base, std::array<bool, kThreads>& ok) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, seed_base, &pool, &ok] {
        auto input = gen::generate_records<kv64>(zipf_dist(), kN,
                                                 seed_base + t);
        workspace_pool::handle ws = pool.checkout();
        auto_sort_options opt;
        opt.workspace = ws.get();
        dovetail::sort(std::span<kv64>(input), key_of_kv64, opt);
        ok[t] = dtt::sorted_by_key(std::span<const kv64>(input),
                                   key_of_kv64) &&
                dtt::stable_by_index_value(std::span<const kv64>(input),
                                           key_of_kv64);
      });
    }
    for (auto& th : threads) th.join();
  };

  // Deterministic warm-up: hold kThreads handles at once so exactly
  // kThreads arenas exist and all of them park. (Letting the first sort
  // round warm the pool instead would be flaky: staggered threads can
  // serially reuse one arena, parking fewer workspaces than the next
  // round's peak concurrency.)
  {
    std::vector<workspace_pool::handle> warm;
    warm.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) warm.push_back(pool.checkout());
  }
  const std::uint64_t created_warm = pool.creations();
  EXPECT_EQ(created_warm, static_cast<std::uint64_t>(kThreads));

  std::array<bool, kThreads> ok1{}, ok2{};
  round(500, ok1);
  round(900, ok2);
  EXPECT_EQ(pool.creations(), created_warm)
      << "concurrent sorts on a warm pool must not allocate new arenas";
  EXPECT_GE(pool.pool_hits(), static_cast<std::uint64_t>(2 * kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok1[t]);
    EXPECT_TRUE(ok2[t]);
  }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts and refine modes.

TEST(Determinism, IdenticalOutputAcrossNumThreads) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  const auto input = gen::generate_records<kv64>(zipf_dist(), 120'000, 7);

  std::vector<std::vector<kv64>> outs;
  for (const int p : {1, 2, 4}) {
    std::vector<kv64> work = input;
    sort_workspace ws;
    auto_sort_options opt;
    opt.workspace = &ws;
    opt.num_threads = p;
    dovetail::sort(std::span<kv64>(work), key_of_kv64, opt);
    outs.push_back(std::move(work));
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(outs[0], outs[2]);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv64>(outs[0]),
                                 key_of_kv64));
}

TEST(Determinism, SortOptionsNumThreadsFrontDoor) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  const auto input = gen::generate_records<kv64>(unif_dist(), 80'000, 11);

  std::vector<std::vector<kv64>> outs;
  for (const int p : {1, 4}) {
    std::vector<kv64> work = input;
    sort_options opt;
    opt.num_threads = p;
    dovetail_sort(std::span<kv64>(work), key_of_kv64, opt);
    outs.push_back(std::move(work));
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv64>(outs[0]),
                                         key_of_kv64));
}

TEST(Determinism, WideRefinePoolAndSerialAgree) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  // 4 entropy bits in word 0: 16 fat segments, all larger than the shrunken
  // base case below — every one takes the refine path. One worker refines
  // them one at a time through the caller's workspace; four sort them
  // concurrently on pool arenas.
  const auto input =
      gen::generate_wide_records<u128>(zipf_dist(), 40'000, 3, 4);

  workspace_pool pool(4);
  std::vector<std::vector<tkv<u128>>> outs;
  std::vector<std::uint64_t> checkouts;
  for (const int p : {4, 1}) {
    std::vector<tkv<u128>> work = input;
    sort_workspace ws;
    auto_sort_options opt;
    opt.workspace = &ws;
    opt.pool = &pool;
    opt.num_threads = p;
    opt.policy.wide_segment_base_case = 512;
    const std::uint64_t before = pool.checkouts();
    dovetail::sort(std::span<tkv<u128>>(work), key_of_tkv<u128>, opt);
    checkouts.push_back(pool.checkouts() - before);
    outs.push_back(std::move(work));
  }
  EXPECT_EQ(outs[0], outs[1])
      << "pool-backed refine must reproduce the serial refine exactly";
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const tkv<u128>>(outs[0]),
                                         key_of_tkv<u128>));
  // With more than one worker the concurrent pass must actually have leased
  // segment arenas from the explicit pool.
  EXPECT_GT(checkouts[0], 0u);
}

TEST(Determinism, WideNumThreadsOneNeverTouchesThePool) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  // num_threads = 1 promises exact serial execution for the WHOLE call.
  // The refine driver runs between the per-segment sort_unsigned calls
  // (which install their own caps), so the wide entry points must install
  // the per-call cap themselves — otherwise a 1-thread wide sort would
  // still lease pool arenas and fork refine tasks on a 4-worker pool.
  const auto input =
      gen::generate_wide_records<u128>(zipf_dist(), 40'000, 3, 4);
  std::vector<tkv<u128>> work = input;
  workspace_pool pool(4);
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  opt.pool = &pool;
  opt.num_threads = 1;
  opt.policy.wide_segment_base_case = 512;
  dovetail::sort(std::span<tkv<u128>>(work), key_of_tkv<u128>, opt);
  EXPECT_EQ(pool.checkouts(), 0u)
      << "a num_threads=1 wide sort must take the serial refine path";
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const tkv<u128>>(work),
                                         key_of_tkv<u128>));
}

// ---------------------------------------------------------------------------
// The recorded dispatch decision.

TEST(DispatchRecord, SerialBelowCrossoverParallelAbove) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);

  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;

  // Below the crossover: one worker, whatever the pool size. The plan's
  // scoped limit wraps the kernel, so the engine's effective_workers
  // snapshot records the width it actually ran at — 1 — not the pool size.
  auto small = gen::generate_records<kv64>(unif_dist(), 4'096, 21);
  dovetail::sort(std::span<kv64>(small), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 1u);
  EXPECT_EQ(st.effective_workers.load(), 1u);

  // Above it: the full effective worker count.
  auto large = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 22);
  dovetail::sort(std::span<kv64>(large), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 4u);

  // A per-call cap of 1 pins the decision (and the record) to serial.
  opt.num_threads = 1;
  auto capped = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 23);
  dovetail::sort(std::span<kv64>(capped), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 1u);
  EXPECT_EQ(st.effective_workers.load(), 1u);
}

TEST(DispatchRecord, PerCallCapBoundsThePlan) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  dispatch_policy policy;
  EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n), 1);
  EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n + 1), 4);
  {
    // The per-call cap is a scoped worker limit, which the plan reads.
    par::scoped_worker_limit cap(2);
    EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n + 1), 2);
  }
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  opt.num_threads = 2;
  auto input = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 24);
  dovetail::sort(std::span<kv64>(input), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 2u);
  EXPECT_EQ(st.effective_workers.load(), 2u);
}

// ---------------------------------------------------------------------------
// The per-call cap covers every pass of the encode-once routes: the key
// encode and the permutation gather as well as the kernel.

namespace {

// Calls observed on a thread other than the one that started the sort.
std::thread::id g_caller;
std::atomic<std::size_t> g_foreign{0};

void note_thread() {
  if (std::this_thread::get_id() != g_caller)
    g_foreign.fetch_add(1, std::memory_order_relaxed);
}

// A payload that is not trivially copyable and notes the thread of every
// copy and move, so the gather passes are observed too.
struct thread_probe {
  std::uint32_t v = 0;
  thread_probe() = default;
  explicit thread_probe(std::uint32_t x) : v(x) {}
  thread_probe(const thread_probe& o) : v(o.v) { note_thread(); }
  thread_probe(thread_probe&& o) noexcept : v(o.v) { note_thread(); }
  thread_probe& operator=(const thread_probe& o) {
    v = o.v;
    note_thread();
    return *this;
  }
  thread_probe& operator=(thread_probe&& o) noexcept {
    v = o.v;
    note_thread();
    return *this;
  }
};

// Runs `call` on a 4-worker pool and returns how many probed accesses ran
// off the calling thread.
template <typename Call>
std::size_t foreign_calls(const Call& call) {
  g_caller = std::this_thread::get_id();
  g_foreign.store(0);
  call();
  return g_foreign.load();
}

}  // namespace

TEST(PerCallCap, NumThreadsOneKeepsEncodeOnceRoutesOnTheCaller) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  constexpr std::size_t kN = std::size_t{1} << 17;
  const auto input = gen::generate_records<kv64>(zipf_dist(), kN, 31);
  auto_sort_options opt;
  opt.num_threads = 1;

  // std::pair records are not trivially copyable under libstdc++: sort and
  // rank take the encode-once route.
  std::vector<std::pair<std::int32_t, std::uint32_t>> pairs(kN);
  for (std::size_t i = 0; i < kN; ++i)
    pairs[i] = {static_cast<std::int32_t>(input[i].key % 100'000) - 50'000,
                static_cast<std::uint32_t>(i)};
  const auto pair_key = [](const std::pair<std::int32_t, std::uint32_t>& r) {
    note_thread();
    return r.first;
  };
  const auto fresh_keys = [&] {
    std::vector<std::int32_t> k(kN);
    for (std::size_t i = 0; i < kN; ++i) k[i] = pairs[i].first;
    return k;
  };
  const auto fresh_values = [&] {
    std::vector<thread_probe> v;
    v.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i)
      v.emplace_back(static_cast<std::uint32_t>(i));
    return v;
  };

  EXPECT_EQ(foreign_calls([&] {
              dovetail::rank(
                  std::span<const std::pair<std::int32_t, std::uint32_t>>(
                      pairs),
                  pair_key, opt);
            }),
            0u)
      << "rank";
  {
    auto work = pairs;
    EXPECT_EQ(foreign_calls([&] {
                dovetail::sort(
                    std::span<std::pair<std::int32_t, std::uint32_t>>(work),
                    pair_key, opt);
              }),
              0u)
        << "sort of non-trivially-copyable records";
    EXPECT_TRUE(std::is_sorted(work.begin(), work.end()));
  }
  {
    auto work = pairs;
    EXPECT_EQ(foreign_calls([&] {
                dovetail::top_k(
                    std::span<std::pair<std::int32_t, std::uint32_t>>(work),
                    1000, pair_key, rank_side::smallest, opt);
              }),
              0u)
        << "top_k";
  }
  {
    auto keys = fresh_keys();
    auto values = fresh_values();
    EXPECT_EQ(foreign_calls([&] {
                dovetail::sort_by_key(std::span<std::int32_t>(keys),
                                      std::span<thread_probe>(values), opt);
              }),
              0u)
        << "sort_by_key";
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  }
  {
    auto keys = fresh_keys();
    auto values = fresh_values();
    std::size_t groups = 0;
    EXPECT_EQ(foreign_calls([&] {
                groups = dovetail::group_by(std::span<std::int32_t>(keys),
                                            std::span<thread_probe>(values),
                                            opt, group_order::fingerprint)
                             .num_groups();
              }),
              0u)
        << "group_by(fingerprint)";
    EXPECT_GT(groups, 1u);
  }
}
