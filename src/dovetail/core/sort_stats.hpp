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
#pragma once

#include <atomic>
#include <cstdint>

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
  // Number of heavy buckets created.
  std::atomic<std::uint64_t> num_heavy_buckets{0};
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
  // maxed via note_peak_workspace(). The out-of-place ping-pong path holds
  // >= n * sizeof(Rec) here; the in-place kernel's bound is
  // O(buckets * block) — the memory claim of ISSUE 10, asserted by
  // tests/test_inplace_sort.cpp. Monotone within a stats window; read it
  // with peak_workspace() and clear with reset().
  std::atomic<std::uint64_t> peak_workspace_bytes{0};

  // --- Adaptive front door (auto_sort.hpp / input_sketch.hpp) ---
  // Unlike the cumulative counters above these are last-write-wins
  // snapshots: each dovetail::sort() call overwrites them, so after a run
  // they describe the most recent dispatch through this stats object.
  // `chosen_kernel` holds 1 + static_cast<int>(sort_kernel) (0 = no
  // dispatch recorded yet); decode with chosen_kernel_of() in dispatch.hpp.
  std::atomic<std::uint64_t> chosen_kernel{0};
  // Sketch summary behind the decision (permille = 0..1000 of the sampled
  // keys / probed pairs; see input_sketch.hpp for the exact definitions).
  std::atomic<std::uint64_t> sketch_key_bits{0};
  std::atomic<std::uint64_t> sketch_distinct_permille{0};
  std::atomic<std::uint64_t> sketch_top_permille{0};
  std::atomic<std::uint64_t> sketch_desc_permille{0};
  std::atomic<std::uint64_t> sketch_heavy_keys{0};
  // Exact run count measured by the run-merge confirmation scan (0 when
  // that branch was never entered).
  std::atomic<std::uint64_t> sketch_runs{0};
  // Typed front door (key_codec.hpp): which public entry point ran last
  // (1 + sort_entry: sort / sort_by_key / rank; decode with
  // entry_point_of()) and the key codec it used (1 + codec_kind, decode
  // with codec_kind_of(); encoded key width in bits). Snapshots, like
  // chosen_kernel.
  std::atomic<std::uint64_t> entry_point{0};
  std::atomic<std::uint64_t> codec_kind_id{0};
  std::atomic<std::uint64_t> codec_encoded_bits{0};
  // Wide-key refine driver (wide_sort.hpp) snapshots, last-write-wins like
  // the codec fields: refinement rounds run beyond the word-0 pass (the
  // final comparison tie-break round of a non-exhaustive codec included)
  // and the total number of equal-prefix segments those rounds refined.
  // Both stay 0 for single-word keys and for wide inputs whose word-0 sort
  // already separated every key.
  std::atomic<std::uint64_t> refine_rounds{0};
  std::atomic<std::uint64_t> wide_segments{0};
  // Offset-continuation (MSD recursion beyond the materialized prefix,
  // offset-capable codecs like std::string only) snapshots, stored by the
  // same driver: continuation rounds run (one per byte-offset window the
  // driver re-entered), the segment re-entries those rounds refined, and
  // the deepest key byte any round inspected (offset + stride of the last
  // window). wide_tiebreak_fallbacks counts ABOVE-base-case segments a
  // non-exhaustive codec finished with the true-key comparison sort —
  // always 0 when the continuation runs (its acceptance property); > 0
  // for a codec without the offset form whenever an equal-prefix segment
  // outgrew wide_segment_base_case.
  std::atomic<std::uint64_t> wide_continuation_rounds{0};
  std::atomic<std::uint64_t> wide_continuation_segments{0};
  std::atomic<std::uint64_t> wide_max_byte_offset{0};
  std::atomic<std::uint64_t> wide_tiebreak_fallbacks{0};
  // Order-statistics queries (order_stats.hpp / group_by.hpp). query_kind
  // is a snapshot like chosen_kernel: 1 + static_cast<int>(query_kind) of
  // the last query entry point that ran through this stats object (0 = no
  // query recorded; decode with query_kind_of() in order_stats.hpp).
  // buckets_pruned / records_pruned are CUMULATIVE, like the engine
  // counters: buckets the rank selector (rank_select.hpp) proved wholly
  // outside every requested window after a distribution pass — and the
  // records inside them — which therefore skipped all further refinement.
  // A full sort never bumps them; a top-k with k << n prunes almost
  // everything (the bench_suite query-topk family records the ratio).
  std::atomic<std::uint64_t> query_kind{0};
  std::atomic<std::uint64_t> buckets_pruned{0};
  std::atomic<std::uint64_t> records_pruned{0};
  // Parallelism snapshots (last-write-wins like chosen_kernel): the worker
  // count the dispatcher decided to run the kernel under (1 = it chose the
  // serial path, e.g. n below dispatch_policy::parallel_crossover_n) and
  // the workers available under the innermost scoped cap when the engine
  // last recorded it (par::effective_workers()). Because the planned
  // parallelism is itself enforced with a scoped limit around the kernel,
  // a serial-planned sort reports effective_workers == 1 even on a large
  // pool — the value describes what the executed kernel really had, not
  // the pool size. chosen_parallelism <= effective_workers always; both 0
  // until a dispatch records them.
  std::atomic<std::uint64_t> chosen_parallelism{0};
  std::atomic<std::uint64_t> effective_workers{0};

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

  // --- Timing / throughput (bench harness, dtsort_cli) ---
  // Wall-clock totals for whole-sort runs attributed to this stats object.
  // Unlike the work counters above, these are filled by the caller that
  // owns the clock, via note_timed_run(): the sort itself never reads the
  // time. `timed_records` counts input records across all timed runs, so
  // throughput_mrec_per_s() is the harness's headline number.
  std::atomic<std::uint64_t> timed_runs{0};
  std::atomic<std::uint64_t> timed_ns{0};
  std::atomic<std::uint64_t> timed_records{0};

  void note_timed_run(double seconds, std::uint64_t records) {
    timed_runs.fetch_add(1, std::memory_order_relaxed);
    timed_ns.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
    timed_records.fetch_add(records, std::memory_order_relaxed);
  }

  // Mean seconds per timed run; 0 when nothing was timed.
  [[nodiscard]] double seconds_per_run() const {
    const std::uint64_t runs = timed_runs.load(std::memory_order_relaxed);
    if (runs == 0) return 0.0;
    return static_cast<double>(timed_ns.load(std::memory_order_relaxed)) /
           1e9 / static_cast<double>(runs);
  }

  // Millions of records sorted per second across all timed runs.
  [[nodiscard]] double throughput_mrec_per_s() const {
    const std::uint64_t ns = timed_ns.load(std::memory_order_relaxed);
    if (ns == 0) return 0.0;
    return static_cast<double>(timed_records.load(std::memory_order_relaxed)) *
           1e3 / static_cast<double>(ns);
  }

  void reset() {
    distributed_records = 0;
    heavy_records = 0;
    base_case_records = 0;
    overflow_records = 0;
    merged_records = 0;
    sampled_keys = 0;
    num_distributions = 0;
    num_heavy_buckets = 0;
    max_depth = 0;
    workspace_allocations = 0;
    workspace_reuses = 0;
    workspace_bytes_allocated = 0;
    scatter_direct_calls = 0;
    scatter_buffered_calls = 0;
    scatter_unstable_calls = 0;
    inplace_passes = 0;
    peak_workspace_bytes = 0;
    chosen_kernel = 0;
    sketch_key_bits = 0;
    sketch_distinct_permille = 0;
    sketch_top_permille = 0;
    sketch_desc_permille = 0;
    sketch_heavy_keys = 0;
    sketch_runs = 0;
    entry_point = 0;
    codec_kind_id = 0;
    codec_encoded_bits = 0;
    refine_rounds = 0;
    wide_segments = 0;
    wide_continuation_rounds = 0;
    wide_continuation_segments = 0;
    wide_max_byte_offset = 0;
    wide_tiebreak_fallbacks = 0;
    query_kind = 0;
    buckets_pruned = 0;
    records_pruned = 0;
    chosen_parallelism = 0;
    effective_workers = 0;
    service_requests = 0;
    service_batches = 0;
    stream_chunks = 0;
    stream_merge_records = 0;
    timed_runs = 0;
    timed_ns = 0;
    timed_records = 0;
  }

  void note_depth(std::uint64_t d) {
    std::uint64_t cur = max_depth.load(std::memory_order_relaxed);
    while (cur < d && !max_depth.compare_exchange_weak(
                          cur, d, std::memory_order_relaxed)) {
    }
  }

  // CAS-max, like note_depth: called by the workspace at every lease point
  // with its current outstanding-bytes figure.
  void note_peak_workspace(std::uint64_t bytes) {
    std::uint64_t cur = peak_workspace_bytes.load(std::memory_order_relaxed);
    while (cur < bytes &&
           !peak_workspace_bytes.compare_exchange_weak(
               cur, bytes, std::memory_order_relaxed)) {
    }
  }

  // Decoder for the high-water counter (bytes; 0 = nothing leased yet).
  [[nodiscard]] std::uint64_t peak_workspace() const {
    return peak_workspace_bytes.load(std::memory_order_relaxed);
  }
};

}  // namespace dovetail
