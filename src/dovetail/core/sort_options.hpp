// Tuning knobs for DovetailSort. Defaults follow the paper's Sec 6
// "Parameter Selection"; the ablation flags correspond to the experiments
// in Sec 6.3.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dovetail {

struct sort_stats;
class sort_workspace;

// How the distribution engine (distribute.hpp) scatters records to their
// bucket positions:
//   automatic — pick per call: `buffered` when the bucket count is large
//               enough that direct stores thrash the TLB/cache and the
//               record type is trivially copyable, else `direct`.
//   direct    — one store per record straight to the output cursor (the
//               classic blocked counting sort of Sec 2.4 / Appendix B).
//   buffered  — stage records in per-(block, bucket) cache-line-sized
//               software buffers and flush each buffer with one contiguous
//               memcpy burst (the RADULS trick). Stable, byte-identical
//               output to `direct`.
//   unstable  — one atomic fetch-and-add per record claims the output slot
//               (Thm 4.1 / Appendix B). Records of a bucket land in
//               arbitrary order; never chosen automatically, and treated as
//               `automatic` by the stable sorts (DTSort, LSD, MSD).
enum class scatter_strategy : std::uint8_t {
  automatic,
  direct,
  buffered,
  unstable,
};

// The stability contract a caller demands from the adaptive front door
// (dispatch_policy::stability_mode in dispatch.hpp):
//   strict  — every auto-chosen kernel preserves input order of equal keys
//             (the default; all five classic kernels qualify).
//   relaxed — the caller certifies it cannot observe the order of equal
//             records, unlocking the unstable in-place kernel
//             (core/inplace_sort.hpp) for auto-dispatch under a memory
//             budget and for policy::always(sort_kernel::inplace) pinning
//             on records that carry payload. Pure-key records (equal keys
//             => byte-identical records, e.g. plain unsigned/signed/float
//             spans) never need it: instability is unobservable there and
//             the dispatcher proves it via the codec traits
//             (is_pure_key_fn_v in key_codec.hpp).
enum class stability : std::uint8_t {
  strict,
  relaxed,
};

// Tuning knobs for dovetail_sort/semisort. All combinations preserve the
// stability guarantee (equal keys keep input order) and the O(n sqrt(log r))
// work bound, except where a knob's comment says otherwise (the ablation
// flags exist to measure exactly those exceptions).
struct sort_options {
  // Digit width γ in bits. 0 = auto: log2(cbrt(n)) clamped to [8, 12],
  // the paper's theory-guided choice Θ(sqrt(log r)). Larger γ means fewer
  // recursion levels ((log r)/γ of them) but 2^γ-sized counting scratch
  // per subproblem; the bench_suite "params" family sweeps this.
  int gamma = 0;

  // Base-case threshold θ: subproblems at most this size are finished with
  // a stable comparison sort (paper: 2^14), bounding recursion overhead at
  // O(n' log θ) work per base case.
  std::size_t base_case = std::size_t{1} << 14;

  // Heavy-key detection via sampling (Alg 2 step 1). Disabling this yields
  // the "Plain" variant of the Fig 4(a,b) ablation.
  bool detect_heavy = true;

  // Dovetail merging (Alg 3) vs. the standard parallel-merge baseline
  // ("PLMerge") for step 4 — the Fig 4(c,d) ablation.
  bool use_dt_merge = true;

  // Overflow-bucket optimization (Sec 5): estimate the key range from the
  // samples and skip leading zero bits; out-of-range keys go to a final
  // comparison-sorted overflow bucket.
  bool skip_leading_bits = true;

  // Subsample stride (the paper's "every (log n)-th sample"); 0 = auto.
  std::size_t sample_stride = 0;

  // Seed for the deterministic sampling. Fixed seed => the whole sort is
  // internally deterministic (Appendix A).
  std::uint64_t seed = 42;

  // BENCHMARK-ONLY (Fig 4 c,d "Others" bar): skip the merging step in every
  // recursive call. The output is NOT fully sorted when heavy buckets
  // exist; this isolates the cost of the other steps as in Sec 6.3.
  bool ablate_skip_merge = false;

  // Per-call parallelism cap: at most this many scheduler workers execute
  // this sort (0 = all workers in the pool). 1 runs the whole call on the
  // calling thread — exact, via pardo's serial path — which is what N
  // request threads each sorting their own batch want: parallelism across
  // calls, none within. Values between 1 and the pool size cap forking and
  // granularity decisions; actual concurrency stays bounded by the shared
  // work-stealing pool, which cannot reserve workers per call. The cap is
  // scoped to the call (par::scoped_worker_limit) and composes with an
  // enclosing cap by taking the minimum.
  int num_threads = 0;

  // Scatter strategy for every distribution pass (see the enum above).
  // `unstable` would break DTSort's stability guarantee and is treated as
  // `automatic` here; request it only through distribute()/
  // unstable_counting_sort() directly.
  scatter_strategy scatter = scatter_strategy::automatic;

  // Staging bytes per bucket for the `buffered` scatter (per block). Rounded
  // down to whole records, minimum 4 records.
  std::size_t scatter_buffer_bytes = 256;

  // Reusable memory arena (see workspace.hpp). Pass the same workspace to
  // repeated sorts and every size-proportional scratch buffer is reused
  // instead of reallocated after the first run; nullptr = a private
  // ephemeral workspace per call (scratch slabs are still pooled within
  // the call, across recursion levels). A workspace may serve only one
  // sort at a time.
  sort_workspace* workspace = nullptr;

  // Optional work instrumentation (see sort_stats.hpp); nullptr = off.
  sort_stats* stats = nullptr;
};

}  // namespace dovetail
