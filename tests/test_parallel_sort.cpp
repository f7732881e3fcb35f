// Parallel front-door tests — the workspace_pool, the per-call worker
// limit, and concurrent sorts through dovetail::sort:
//   * workspace_pool contract — checkout/checkin round trips park and
//     rehydrate the same arena (pool_hits), overflow past capacity
//     discards instead of growing, handles are move-only RAII, and the
//     counters always satisfy checkouts == hits + creations — including
//     under a many-thread checkout/checkin stress;
//   * the thread contract — every public width (sort_options,
//     auto_sort_options, sort_request and stream_options num_threads,
//     service_options concurrency) accepts 0, 1 and any value >= the pool
//     size and throws std::invalid_argument, input untouched, for negative
//     values and 1 < k < p; effective_workers() is 1 or the pool size, a
//     serial scope stays serial under a wider one, and width 1 forces
//     pardo's serial path (both branches on the calling worker);
//   * concurrent sorts — N foreign std::threads each sorting with its own
//     workspace, and the shared-pool variant where every thread leases its
//     arena from one workspace_pool: all outputs record-exact and stable,
//     and a second warm round performs zero pool creations (the
//     zero-steady-state-allocation property);
//   * determinism — byte-identical outputs across pool sizes 1 to 4 for
//     every entry point (kv64 and string sort, sort_by_key, rank, the
//     requested windows of top_k and percentiles, sort_batch and
//     stream_sorter), and between the serial and the pool-backed wide
//     refine;
//   * the per-call cap — num_threads = 1 keeps every pass of the
//     encode-once routes (rank, sort_by_key, group_by(fingerprint), sort of
//     non-trivially-copyable records, top_k) on the calling thread;
//   * the dispatch record — sort_stats.chosen_parallelism mirrors the
//     decision on every kernel: 1 below parallel_crossover_n, for std_sort
//     or for a num_threads = 1 call, the pool size above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/sort_service.hpp"
#include "dovetail/core/stream_sort.hpp"
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

TEST(ScopedWorkerLimit, SerialOrThePoolAndSerialIsSticky) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  EXPECT_EQ(par::effective_workers(), 4);
  for (const int pool_width : {0, 4, 5}) {
    par::scoped_worker_limit pool(pool_width);
    EXPECT_EQ(par::effective_workers(), 4) << pool_width;
  }
  {
    par::scoped_worker_limit outer(1);
    EXPECT_EQ(par::effective_workers(), 1);
    for (const int inner_width : {0, 1, 4}) {
      par::scoped_worker_limit inner(inner_width);  // cannot widen
      EXPECT_EQ(par::effective_workers(), 1) << inner_width;
    }
    EXPECT_THROW(par::scoped_worker_limit(2), std::invalid_argument);
    EXPECT_EQ(par::effective_workers(), 1);
  }
  EXPECT_EQ(par::effective_workers(), 4);
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

TEST(ScopedWorkerLimit, SerialParallelForCoversEveryIndexOnTheCaller) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  par::scoped_worker_limit cap(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint8_t> hit(10'000, 0);
  std::atomic<std::size_t> elsewhere{0};
  par::parallel_for(0, hit.size(), [&](std::size_t i) {
    hit[i] += 1;
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                          [](std::uint8_t v) { return v == 1; }));
  EXPECT_EQ(elsewhere.load(), 0u);
}

// Every public width field, one row per (field, pool size, value). A value
// the pool keeps sorts exactly; any other throws before the data is
// touched.
namespace {

enum class width_field {
  sort_options,
  auto_sort_options,
  sort_request,
  stream_options,
  service_concurrency
};

const char* field_name(width_field f) {
  switch (f) {
    case width_field::sort_options: return "sort_options::num_threads";
    case width_field::auto_sort_options:
      return "auto_sort_options::num_threads";
    case width_field::sort_request: return "sort_request::num_threads";
    case width_field::stream_options: return "stream_options::num_threads";
    case width_field::service_concurrency:
      return "service_options::concurrency";
  }
  return "";
}

// Sorts `v` through the entry point that reads `field`, set to `width`.
void sort_with_width(width_field field, int width, std::vector<kv64>& v) {
  const std::span<kv64> data(v);
  switch (field) {
    case width_field::sort_options: {
      sort_options opt;
      opt.num_threads = width;
      dovetail_sort(data, key_of_kv64, opt);
      return;
    }
    case width_field::auto_sort_options: {
      auto_sort_options opt;
      opt.num_threads = width;
      dovetail::sort(data, key_of_kv64, opt);
      return;
    }
    case width_field::sort_request:
    case width_field::service_concurrency: {
      // Two requests, so a bad width on either cannot slip past a sort
      // of the other.
      std::vector<sort_request<kv64, decltype(key_of_kv64)>> reqs(2);
      reqs[0].data = data.first(v.size() / 2);
      reqs[1].data = data.subspan(v.size() / 2);
      service_options opt;
      if (field == width_field::sort_request)
        reqs[1].num_threads = width;
      else
        opt.concurrency = width;
      sort_batch(reqs, opt);
      return;
    }
    case width_field::stream_options: {
      stream_options opt;
      opt.num_threads = width;
      stream_sorter<kv64, decltype(key_of_kv64)> s(opt, key_of_kv64);
      try {
        s.push(std::span<const kv64>(v));
      } catch (...) {
        EXPECT_EQ(s.pending_runs(), 0u);
        EXPECT_EQ(s.size(), 0u);
        throw;
      }
      v = s.finish();
      return;
    }
  }
}

}  // namespace

TEST(ThreadContract, EveryWidthFieldAcceptsSerialOrThePoolOnly) {
  worker_count_guard guard;
  // 80k records: each half is still above parallel_crossover_n.
  const auto input = gen::generate_records<kv64>(zipf_dist(), 80'000, 31);
  for (const int p : {4, 2}) {
    par::scheduler::set_num_workers(p);
    for (const width_field f :
         {width_field::sort_options, width_field::auto_sort_options,
          width_field::sort_request, width_field::stream_options,
          width_field::service_concurrency}) {
      // The batch fields sort each half of the input as its own request.
      std::vector<kv64> ref = input;
      const bool halves = f == width_field::sort_request ||
                          f == width_field::service_concurrency;
      const auto mid = ref.begin() + static_cast<std::ptrdiff_t>(
                                         halves ? ref.size() / 2 : 0);
      const auto by_key = [](const kv64& a, const kv64& b) {
        return a.key < b.key;
      };
      std::stable_sort(ref.begin(), mid, by_key);
      std::stable_sort(mid, ref.end(), by_key);
      for (const int width : {0, 1, p, p + 1}) {
        SCOPED_TRACE(std::string(field_name(f)) + " = " +
                     std::to_string(width) + ", p = " + std::to_string(p));
        std::vector<kv64> v = input;
        sort_with_width(f, width, v);
        EXPECT_EQ(v, ref);
      }
      std::vector<int> rejected = {-1};
      for (int k = 2; k < p; ++k) rejected.push_back(k);
      for (const int width : rejected) {
        SCOPED_TRACE(std::string(field_name(f)) + " = " +
                     std::to_string(width) + ", p = " + std::to_string(p));
        std::vector<kv64> v = input;
        EXPECT_THROW(sort_with_width(f, width, v), std::invalid_argument);
        EXPECT_EQ(v, input);
      }
    }
  }
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

namespace {

// What every entry point returns at one pool size. Sorts keep their whole
// output; queries keep only what they promise — the requested window or
// the returned values — since records outside a window are only
// bucket-partitioned.
struct entry_point_outputs {
  std::vector<kv64> sorted;
  std::vector<kv64> sorted_serial;
  std::vector<std::string> strings;
  std::vector<std::uint64_t> soa_keys;
  std::vector<std::uint32_t> soa_values;
  std::vector<index_t> perm;
  std::vector<kv64> top;
  std::vector<std::uint64_t> pct;
  std::vector<std::vector<kv64>> batch;
  std::vector<kv64> stream;
};

entry_point_outputs run_every_entry_point(
    const std::vector<kv64>& input, const std::vector<std::string>& strings) {
  entry_point_outputs out;
  sort_workspace ws;
  auto_sort_options opt;
  opt.workspace = &ws;
  const auto sorted_copy = [&](int num_threads) {
    std::vector<kv64> work = input;
    auto_sort_options o = opt;
    o.num_threads = num_threads;
    dovetail::sort(std::span<kv64>(work), key_of_kv64, o);
    return work;
  };
  out.sorted = sorted_copy(0);
  out.sorted_serial = sorted_copy(1);

  out.strings = strings;
  dovetail::sort(std::span<std::string>(out.strings), opt);

  for (std::size_t i = 0; i < input.size(); ++i) {
    out.soa_keys.push_back(input[i].key);
    out.soa_values.push_back(static_cast<std::uint32_t>(i));
  }
  out.pct = dovetail::percentiles(std::span<const std::uint64_t>(out.soa_keys),
                                  {0.0, 0.01, 0.5, 0.9, 0.999, 1.0}, opt);
  dovetail::sort_by_key(std::span<std::uint64_t>(out.soa_keys),
                        std::span<std::uint32_t>(out.soa_values), opt);

  out.perm =
      dovetail::rank(std::span<const kv64>(input), key_of_kv64, opt);

  std::vector<kv64> work = input;
  const auto top = dovetail::top_k(std::span<kv64>(work), 1000, key_of_kv64,
                                   rank_side::smallest, opt);
  out.top.assign(top.begin(), top.end());

  for (const std::size_t n : {std::size_t{0}, std::size_t{300},
                              std::size_t{9'000}, std::size_t{70'000}})
    out.batch.emplace_back(input.begin(),
                           input.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<sort_request<kv64, decltype(key_of_kv64)>> reqs(
      out.batch.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].data = std::span<kv64>(out.batch[i]);
  sort_batch(reqs);

  stream_sorter<kv64, decltype(key_of_kv64)> stream({}, key_of_kv64);
  for (std::size_t lo = 0; lo < input.size(); lo += 17'000)
    stream.push(std::span<const kv64>(input).subspan(
        lo, std::min<std::size_t>(17'000, input.size() - lo)));
  out.stream = stream.finish();
  return out;
}

}  // namespace

TEST(Determinism, IdenticalOutputAcrossNumThreads) {
  // Paper Appendix A: the output depends on the input alone, never on the
  // schedule — every entry point at pool sizes 2, 3 and 4 must reproduce
  // its single-worker output byte for byte.
  worker_count_guard guard;
  const auto input = gen::generate_records<kv64>(zipf_dist(), 120'000, 7);
  const auto strings = gen::generate_url_keys(zipf_dist(), 40'000, 8);

  par::scheduler::set_num_workers(1);
  const entry_point_outputs ref = run_every_entry_point(input, strings);
  EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv64>(ref.sorted),
                                 key_of_kv64));
  EXPECT_TRUE(dtt::stable_by_index_value(std::span<const kv64>(ref.sorted),
                                         key_of_kv64));
  EXPECT_TRUE(std::is_sorted(ref.strings.begin(), ref.strings.end()));
  for (const int p : {2, 3, 4}) {
    par::scheduler::set_num_workers(p);
    const entry_point_outputs got = run_every_entry_point(input, strings);
    EXPECT_EQ(got.sorted, ref.sorted) << "sort p=" << p;
    EXPECT_EQ(got.sorted_serial, ref.sorted) << "sort num_threads=1 p=" << p;
    EXPECT_EQ(got.strings, ref.strings) << "string sort p=" << p;
    EXPECT_EQ(got.soa_keys, ref.soa_keys) << "sort_by_key keys p=" << p;
    EXPECT_EQ(got.soa_values, ref.soa_values) << "sort_by_key values p=" << p;
    EXPECT_EQ(got.perm, ref.perm) << "rank p=" << p;
    EXPECT_EQ(got.top, ref.top) << "top_k p=" << p;
    EXPECT_EQ(got.pct, ref.pct) << "percentiles p=" << p;
    EXPECT_EQ(got.batch, ref.batch) << "sort_batch p=" << p;
    EXPECT_EQ(got.stream, ref.stream) << "stream_sorter p=" << p;
  }
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
  for (const int p : {0, 1}) {
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

  // Below the crossover: one worker, whatever the pool size.
  auto small = gen::generate_records<kv64>(unif_dist(), 4'096, 21);
  dovetail::sort(std::span<kv64>(small), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 1u);

  // Above it: the full effective worker count.
  st.reset();
  auto large = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 22);
  dovetail::sort(std::span<kv64>(large), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 4u);

  // A per-call cap of 1 pins the decision (and the record) to serial.
  st.reset();
  opt.num_threads = 1;
  auto capped = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 23);
  dovetail::sort(std::span<kv64>(capped), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 1u);
}

TEST(DispatchRecord, EveryKernelRecordsItsParallelism) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  // Pure-key u64 spans (the in-place kernel needs no stability waiver)
  // with keys below 2^16 (a pinned counting sort stays feasible).
  const auto keys = [](std::size_t n) {
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = par::hash64(i) & 0xFFFF;
    return v;
  };
  const std::vector<std::uint64_t> small = keys(4'096);
  const std::vector<std::uint64_t> large =
      keys(dispatch_policy::parallel_crossover_n * 4);
  sort_stats st;
  for (const sort_kernel k :
       {sort_kernel::std_sort, sort_kernel::run_merge, sort_kernel::counting,
        sort_kernel::lsd, sort_kernel::dtsort, sort_kernel::inplace}) {
    auto_sort_options opt;
    opt.policy = policy::always(k);
    opt.stats = &st;
    for (const std::vector<std::uint64_t>* input : {&small, &large}) {
      st.reset();
      std::vector<std::uint64_t> v = *input;
      EXPECT_EQ(dovetail::sort(std::span<std::uint64_t>(v), opt), k);
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << kernel_name(k);
      // std_sort is sequential whatever n.
      const std::uint64_t want =
          input == &large && k != sort_kernel::std_sort ? 4 : 1;
      EXPECT_EQ(st.chosen_parallelism.load(), want)
          << kernel_name(k) << " n=" << v.size();
    }
  }
}

TEST(DispatchRecord, CallWidthBoundsThePlan) {
  worker_count_guard guard;
  par::scheduler::set_num_workers(4);
  dispatch_policy policy;
  EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n), 1);
  EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n + 1), 4);
  {
    // The call's width is a scoped worker limit, which the plan reads.
    par::scoped_worker_limit serial(1);
    EXPECT_EQ(policy.plan_parallelism(policy.parallel_crossover_n + 1), 1);
  }
  // A width above the pool size is the pool: the record shows the width
  // that ran.
  sort_stats st;
  auto_sort_options opt;
  opt.stats = &st;
  opt.num_threads = 5;
  auto input = gen::generate_records<kv64>(
      unif_dist(), opt.policy.parallel_crossover_n * 4, 24);
  dovetail::sort(std::span<kv64>(input), key_of_kv64, opt);
  EXPECT_EQ(st.chosen_parallelism.load(), 4u);
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
