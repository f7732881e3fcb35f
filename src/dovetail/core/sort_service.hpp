// sort_batch — the batched front door of the serving layer.
//
// The paper's DTSort is engineered for one huge array; the serving-layer
// north star (ROADMAP.md) is the opposite shape: millions of small and
// medium independent sort requests. On that shape throughput is governed
// by scheduling and memory reuse rather than single-sort speed, so this
// layer is deliberately thin: each request flows through the existing
// adaptive front door (auto_sort.hpp) unchanged, with
//
//   * a workspace leased from a workspace_pool per request, so a warm
//     steady state does zero pool-level and zero sort-internal allocation
//     (the concurrency battery in test_sort_service.cpp pins this down);
//   * a per-request width (`num_threads`) and a soft per-request deadline,
//     recorded — not enforced preemptively — in
//     request_result::deadline_met;
//   * batch-level concurrency driven by the scheduler: requests are
//     parallel_for tasks at granularity 1, so idle workers steal whole
//     requests; `concurrency = 1` runs the batch on the calling thread,
//     which is what a multi-threaded server front end wants: N request
//     threads each draining their own batch while the shared pool keeps
//     their workspaces warm.
// Both widths follow the thread contract (par::serial_width), checked for
// every request before any is sorted.
//
// Determinism: the front door is deterministic per call for a fixed
// policy regardless of worker count, so a batched run is byte-identical to
// sorting each request serially one at a time.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/timer.hpp"

namespace dovetail {

// Per-request outcome, filled by sort_batch.
struct request_result {
  sort_kernel kernel = sort_kernel::std_sort;  // what the dispatcher chose
  double seconds = 0.0;      // wall time of this request's sort
  bool completed = false;    // set once the request has run
  bool deadline_met = true;  // false iff deadline_s > 0 and seconds exceeded it
};

// One batched sort request: a typed span plus per-request knobs. The span
// is sorted in place; `result` (and `stats`, when supplied) report how.
// The default key functor, self_key (key_codec.hpp), sorts spans of raw
// codec-covered keys and marks them pure-key for the dispatcher.
template <typename Rec, typename KeyFn = self_key>
struct sort_request {
  std::span<Rec> data{};
  KeyFn key{};
  // Width of this request, as auto_sort_options::num_threads (0 = the
  // batch's width). Inside a serial batch every request is serial.
  int num_threads = 0;
  // Soft latency budget in seconds; 0 = none. Checked after the sort
  // completes (the request is never abandoned mid-flight) and recorded in
  // result.deadline_met so callers can count SLO misses.
  double deadline_s = 0.0;
  // Optional per-request stats: the front door's counters and marks for
  // THIS request only (the kernel it ran is in result.kernel).
  sort_stats* stats = nullptr;
  request_result result{};
};

// Batch-level options for sort_batch.
struct service_options {
  dispatch_policy policy{};
  // Width of the batch: 0 = requests run concurrently on the whole pool,
  // 1 = one at a time on the calling thread (par::serial_width).
  int concurrency = 0;
  // Workspace pool the requests lease from. nullptr =
  // workspace_pool::shared(). Size (and prewarm()) it to the expected
  // concurrency for a zero-allocation steady state.
  workspace_pool* pool = nullptr;
  // Batch-level stats: service_requests/service_batches accounting plus
  // the front door's counters and marks aggregated across every request
  // that does not carry its own stats object — the field-wise sum of the
  // counters (max of the marks) that per-request stats objects would have
  // recorded, whatever the interleaving.
  sort_stats* stats = nullptr;
};

// Sort every request in `requests` concurrently, each through the adaptive
// front door with a pool-leased workspace. Returns when all requests have
// completed; per-request outcomes land in requests[i].result.
template <typename Rec, typename KeyFn>
void sort_batch(std::span<sort_request<Rec, KeyFn>> requests,
                const service_options& opt = {}) {
  workspace_pool& pool =
      opt.pool != nullptr ? *opt.pool : workspace_pool::shared();
  const par::scoped_worker_limit batch_cap(opt.concurrency);
  for (const sort_request<Rec, KeyFn>& req : requests)
    par::serial_width(req.num_threads);
  par::parallel_for(
      0, requests.size(),
      [&](std::size_t i) {
        sort_request<Rec, KeyFn>& req = requests[i];
        timer t;
        workspace_pool::handle ws = pool.checkout();
        auto_sort_options aopt;
        aopt.policy = opt.policy;
        aopt.num_threads = req.num_threads;
        aopt.workspace = ws.get();
        aopt.pool = &pool;
        aopt.stats = req.stats != nullptr ? req.stats : opt.stats;
        req.result.kernel = dovetail::sort(req.data, req.key, aopt);
        req.result.seconds = t.seconds();
        req.result.completed = true;
        req.result.deadline_met =
            req.deadline_s <= 0.0 || req.result.seconds <= req.deadline_s;
      },
      /*granularity=*/1);
  if (opt.stats != nullptr) {
    opt.stats->service_requests.fetch_add(requests.size(),
                                          std::memory_order_relaxed);
    opt.stats->service_batches.fetch_add(1, std::memory_order_relaxed);
  }
}

// Convenience overload: a batch held in any contiguous container of
// requests (std::vector<sort_request<...>> is the common shape).
template <typename Rec, typename KeyFn>
void sort_batch(std::vector<sort_request<Rec, KeyFn>>& requests,
                const service_options& opt = {}) {
  sort_batch(std::span<sort_request<Rec, KeyFn>>(requests), opt);
}

}  // namespace dovetail
