// Work instrumentation for DovetailSort — the empirical counterpart of the
// paper's Sec 4 analysis.
//
// The theorems predict, in terms of records touched:
//   * Thm 4.4/4.5: total distribution work O(n sqrt(log r)) — i.e. roughly
//     (#levels) * n distributed records, with #levels = (log r)/γ;
//   * Thm 4.6: exponential key-frequency inputs => O(n) work (almost all
//     records become heavy at the top level and skip recursion);
//   * Thm 4.7: <= c'*2^γ distinct keys => O(n) work (light records shrink
//     geometrically per level).
// With stats enabled, `distributed_records / n` measures the effective
// number of levels each record participates in, `heavy_records` counts the
// records that were parked in heavy buckets (skipping all further levels),
// and so on. bench_suite's "theory" family reports these per distribution.
//
// Counters are updated at subproblem granularity (one atomic add per
// counting-sort call, not per record), so overhead is negligible.
//
// Every field obeys one rule: between reset() calls it only grows — either
// a fetch_add counter or a CAS-max mark (max_depth, peak_workspace_bytes,
// wide_max_byte_offset, chosen_parallelism). That rule stays well-defined
// when several concurrent sorts share one stats object (sort_batch's
// batch-level stats, foreign threads sorting into one object): the shared
// object reads as the field-wise sum, or max, of per-sort objects. What a
// single call decided — the kernel it ran, the codec it used — is returned
// by value (dovetail::sort's sort_kernel, request_result::kernel) or known
// at compile time (wide_key_traits<K>), not stored here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace dovetail {

struct sort_stats {
  // Sum of subproblem sizes over all distribution (counting sort) calls:
  // the dominant work term of the MSD framework.
  std::atomic<std::uint64_t> distributed_records{0};
  // Records that entered a heavy bucket (sorted once, skip all recursion).
  std::atomic<std::uint64_t> heavy_records{0};
  // Records finished by DTSort's base case (Alg 2 line 2): subproblems of at
  // most θ records, sorted by detail::radix_finish.
  std::atomic<std::uint64_t> base_case_records{0};
  // Records routed to overflow buckets (keys above the sampled range).
  std::atomic<std::uint64_t> overflow_records{0};
  // Records in zones that required dovetail merging.
  std::atomic<std::uint64_t> merged_records{0};
  // Keys sampled across all subproblems (sampling overhead, o(n') each).
  std::atomic<std::uint64_t> sampled_keys{0};
  // Number of recursive subproblems that performed a distribution.
  std::atomic<std::uint64_t> num_distributions{0};
  // Deepest recursion level that performed a distribution (root = 1).
  std::atomic<std::uint64_t> max_depth{0};

  // --- Distribution-engine counters (distribute.hpp / workspace.hpp) ---
  // Fresh slab/arena allocations performed by the sort workspace. With a
  // reused workspace this stops growing after warm-up (the zero-hot-path-
  // allocation property; see test_workspace.cpp).
  std::atomic<std::uint64_t> workspace_allocations{0};
  // Checkouts served from the workspace freelist / an already-sized arena.
  std::atomic<std::uint64_t> workspace_reuses{0};
  // Bytes newly allocated by the workspace (slab capacities, not requests).
  std::atomic<std::uint64_t> workspace_bytes_allocated{0};
  // Distribution calls per scatter strategy actually executed (after
  // `automatic` resolution) — lets tests and benchmarks confirm routing.
  std::atomic<std::uint64_t> scatter_direct_calls{0};
  std::atomic<std::uint64_t> scatter_buffered_calls{0};
  std::atomic<std::uint64_t> scatter_unstable_calls{0};
  // In-place permutation passes executed (one per MSD node that ran the
  // block-permutation or flag kernel of inplace_sort.hpp). Cumulative.
  std::atomic<std::uint64_t> inplace_passes{0};
  // High-water mark of workspace bytes simultaneously checked out (leased
  // slabs + the record-buffer arena), sampled at every lease point and
  // raised with note_max(). The out-of-place ping-pong path holds
  // >= n * sizeof(Rec) here; the in-place kernel's bound is
  // O(buckets * block) — the memory claim of ISSUE 10, asserted by
  // tests/test_inplace_sort.cpp. Monotone within a stats window; read it
  // with peak_workspace() and clear with reset().
  std::atomic<std::uint64_t> peak_workspace_bytes{0};

  // --- Wide-key refine driver (wide_sort.hpp) ---
  // Refinement rounds run beyond the word-0 pass (the final comparison
  // tie-break round of a non-exhaustive codec included) and the
  // equal-prefix segments those rounds refined. Both stay 0 for
  // single-word keys and for wide inputs whose word-0 sort already
  // separated every key.
  std::atomic<std::uint64_t> refine_rounds{0};
  std::atomic<std::uint64_t> wide_segments{0};
  // Offset continuation (MSD recursion beyond the materialized prefix,
  // string keys only): continuation rounds run (one per byte-offset window
  // the driver re-entered), the segment re-entries those rounds refined,
  // and — a CAS-max mark — the deepest key byte any round inspected
  // (offset + stride of the last window). wide_tiebreak_fallbacks counts
  // ABOVE-base-case segments a non-exhaustive codec finished with the
  // true-key comparison sort: always 0 for string keys (the continuation's
  // acceptance property); > 0 for a user codec whenever an equal-prefix
  // segment outgrew wide_segment_base_case.
  std::atomic<std::uint64_t> wide_continuation_rounds{0};
  std::atomic<std::uint64_t> wide_continuation_segments{0};
  std::atomic<std::uint64_t> wide_max_byte_offset{0};
  std::atomic<std::uint64_t> wide_tiebreak_fallbacks{0};
  // --- Order-statistics queries (order_stats.hpp / group_by.hpp) ---
  // Buckets the rank selector (rank_select.hpp) proved wholly outside
  // every requested window after a distribution pass — and the records
  // inside them — which therefore skipped all further refinement. A full
  // sort never bumps them; a top-k with k << n prunes almost everything
  // (the bench_suite query-topk family records the ratio).
  std::atomic<std::uint64_t> buckets_pruned{0};
  std::atomic<std::uint64_t> records_pruned{0};
  // --- Adaptive front door (dispatch.hpp) ---
  // CAS-max of the worker count the dispatcher ran a kernel under: 1 for
  // the serial path (n at or below dispatch_policy::parallel_crossover_n,
  // or a num_threads = 1 call), else the pool size; 0 = no dispatch yet.
  // For one call it is the root plan: a wide sort's segment sorts are
  // smaller than its word-0 pass, and plan_parallelism is monotone in n.
  std::atomic<std::uint64_t> chosen_parallelism{0};

  // --- Service layer (sort_service.hpp / stream_sort.hpp) ---
  // Cumulative, like the engine counters: the serving layer's request
  // accounting. `service_requests` counts requests completed by
  // sort_batch, `service_batches` the batch calls that carried them;
  // `stream_chunks` counts chunks accepted by stream_sorter::push and
  // `stream_merge_records` the records that rode through the k-way merge
  // machinery — finish()'s tree levels (n per level, ceil(log2 k) levels
  // for k runs) plus any push-time compaction merges.
  std::atomic<std::uint64_t> service_requests{0};
  std::atomic<std::uint64_t> service_batches{0};
  std::atomic<std::uint64_t> stream_chunks{0};
  std::atomic<std::uint64_t> stream_merge_records{0};

  // Back to the default-constructed state: every counter and mark 0. Not
  // while a sort writes into this object.
  void reset() {
    std::destroy_at(this);
    std::construct_at(this);
  }

  // Raise a CAS-max mark (max_depth, peak_workspace_bytes,
  // wide_max_byte_offset, chosen_parallelism) to at least v.
  static void note_max(std::atomic<std::uint64_t>& mark, std::uint64_t v) {
    std::uint64_t cur = mark.load(std::memory_order_relaxed);
    while (cur < v &&
           !mark.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // Decoder for the high-water counter (bytes; 0 = nothing leased yet).
  [[nodiscard]] std::uint64_t peak_workspace() const {
    return peak_workspace_bytes.load(std::memory_order_relaxed);
  }
};

}  // namespace dovetail
