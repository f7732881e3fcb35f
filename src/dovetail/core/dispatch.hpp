// The adaptive dispatcher beneath dovetail::sort: sketch, route, run.
//
// The paper's headline result (Tab 3 / Fig 1) is that no single integer
// sort wins everywhere: DTSort dominates on skewed and heavy-duplicate
// inputs, LSD-style radix sorts win on small dense keys, and for tiny or
// (near-)sorted inputs neither is the right tool. This header turns that
// observation into one entry point: sketch the input cheaply
// (input_sketch.hpp), then route through a pluggable dispatch_policy to the
// kernel the evidence says is fastest, with its parameters tuned from the
// same sketch.
//
// Kernels (all stable, all running through the shared sort_workspace):
//   std_sort  — sequential std::stable_sort; below the serial threshold the
//               parallel machinery costs more than it saves.
//   run_merge — detect maximal non-decreasing runs and merge adjacent runs
//               pairwise (O(n log R) for R runs): near-sorted inputs finish
//               in one or two passes, a fully sorted input in zero. A
//               strictly descending input is reversed in place first (no
//               equal keys can exist in a strictly descending sequence, so
//               the reversal is trivially stable).
//   counting  — one stable distribution pass over the exact key range
//               (counting sort): unbeatable when max-min is small, because
//               every other kernel pays at least one extra pass.
//   lsd       — classic LSD radix sort (baselines/lsd_radix_sort.hpp) with
//               a sketch-tuned scatter strategy: buffered RADULS-style
//               staging for uniform digits, direct stores when the sampled
//               low digit is heavily skewed (few hot buckets).
//   dtsort    — dovetail_sort with auto gamma and the overflow-bucket range
//               trick: the heavy-duplicate / wide-key workhorse.
//
// The routing thresholds are constants of dispatch_policy, derived from the
// committed BENCH_suite.json baseline and cross-checked by the bench_suite
// "auto" family; docs/TUNING.md walks through the evidence behind each one
// and how to re-derive them on your machine (edit the constant, rebuild).
// policy::always(kernel) pins a kernel (parameter tuning still applies) —
// that is what the "auto" benchmarks use to compare the dispatcher against
// every hand-picked kernel.
//
// This is the single-word layer every other entry point builds on: the
// MSD segment driver (wide_sort.hpp) and its rank selector
// (rank_select.hpp) hand it one key word at a time, and the typed front
// door (auto_sort.hpp) reaches it directly for fused single-word sorts.
// `key` here always returns an unsigned integer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/pass_plan.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/merge.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"

namespace dovetail {

enum class sort_kernel : std::uint8_t {
  std_sort,
  run_merge,
  counting,
  lsd,
  dtsort,
  // In-place block-permutation MSD radix (core/inplace_sort.hpp): O(n)
  // ping-pong buffer replaced by O(buckets * block) scratch. UNSTABLE —
  // auto-chosen only under a memory budget when instability is
  // unobservable (pure-key records) or permitted (stability::relaxed);
  // policy::always(inplace) demands the same safety or throws.
  inplace,
};

inline const char* kernel_name(sort_kernel k) {
  switch (k) {
    case sort_kernel::std_sort: return "StdSort";
    case sort_kernel::run_merge: return "RunMerge";
    case sort_kernel::counting: return "Counting";
    case sort_kernel::lsd: return "LSD";
    case sort_kernel::dtsort: return "DTSort";
    case sort_kernel::inplace: return "InPlace";
  }
  return "?";
}

namespace detail {

// The front door's LSD digit rule (pass_plan.hpp): 8-bit digits, widened up
// to 11 bits where that saves a pass — 32-bit keys then take 3 passes of
// 11/11/10 bits instead of 4 of 8. A saved pass pays only once the passes
// are memory-bound: while the records fit in cache, the wider digit's
// extra scatter streams cost more than the pass. On a 4-core Xeon with
// 2 MiB of L2 per core, 11-bit passes at 4 workers start to win between
// 2^20 and 2^21 kv32 records and between 2^19 and 2^20 kv64 records —
// 8 to 16 MiB either way — hence a byte threshold at the low end.
// lsd_options::gamma keeps its textbook default of 8; only the
// dispatcher's LSD route is planned.
inline constexpr digit_rule kLsdDigits{
    .base = 8, .widest = 11, .wide_min_bytes = std::size_t{8} << 20};

// A serial DTSort plan of at most this many records is one base case:
// the front door sets sort_options::base_case = n, so radix_finish sorts
// the input through its leased twin with no sampling, bucket table or
// merge (its all-equal check still catches a heavy key's segments).
// Serially, on 22K-65K kv64 records, a level costs 15-32 ns per record on
// Unif-1e9 and Zipf-1.2 and one finish 11-16; by 400K records on
// Unif-1e9 the level wins (docs/TUNING.md). A pool-width plan keeps its
// level: at 4 workers it beats a serial finish from about 45K records.
inline constexpr std::size_t kSerialFinishMax = std::size_t{1} << 16;

}  // namespace detail

// The stability contract a caller demands from the dispatcher
// (dispatch_policy::stability_mode):
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

// A dispatch decision: the kernel plus its sketch-tuned parameters.
struct kernel_plan {
  sort_kernel kernel = sort_kernel::dtsort;
  // LSD digit width, planned by tune() (detail::plan_digits with
  // detail::kLsdDigits); 0 for the other kernels, which plan their own
  // digits from the exact n and key bits (dovetail_sort.hpp,
  // inplace_sort.hpp).
  int gamma = 0;
  scatter_strategy scatter = scatter_strategy::automatic;
  // Workers the kernel runs under: 1 (serial; see parallel_crossover_n) or
  // the pool size. Recorded in sort_stats::chosen_parallelism.
  int parallelism = 1;
  const char* reason = "";  // the rule that fired (for logs/debugging)
};

// The routing policy. The thresholds are compile-time constants fitted to
// the committed BENCH_suite.json baseline; docs/TUNING.md has the evidence
// behind each one and the recipe for re-deriving them on other hardware
// (edit the constant and rebuild). What stays settable is what a caller
// needs to reach a kernel or a route that the data alone never picks.
// `policy::always(k)` skips the kernel choice but keeps the sketch-driven
// parameter tuning, so pinned kernels in benchmarks run exactly what the
// dispatcher would run.
struct dispatch_policy {
  // The kernel policy::always pins; kernel choice is skipped when set.
  std::optional<sort_kernel> forced;
  // The stability contract (enum above): strict keeps every auto-chosen
  // kernel stable; relaxed certifies the caller cannot observe the order
  // of equal records, unlocking the unstable in-place kernel for the
  // memory-budget rule below and for policy::always(inplace) on
  // payload-carrying records. Pure-key records (detected from the key
  // functor, input_sketch::pure_key_records) never need relaxed. Settable
  // because, with memory_budget_bytes, it is the only way the in-place
  // kernel is chosen automatically.
  stability stability_mode = stability::strict;
  // Peak extra workspace the caller will tolerate, in bytes; 0 = no budget.
  // When the out-of-place kernels' O(n) record ping-pong lease
  // (n * sizeof(record)) would exceed this AND instability is safe (pure
  // keys or relaxed), the dispatcher routes to the in-place kernel, whose
  // scratch is O(2^gamma * block) — see core/inplace_sort.hpp and
  // sort_stats::peak_workspace_bytes for the measured high-water mark.
  // Settable because no sketch reveals the caller's memory limit.
  std::size_t memory_budget_bytes = 0;
  // Wide (multi-word) keys, sorts and queries alike: the segment driver's
  // per-segment base case — equal-prefix segments at or below this size
  // finish in one sequential step instead of re-entering the radix front
  // door (wide_sort.hpp): a cache-resident radix pass over words refilled
  // into the encode-once records for string keys, one stable comparison
  // sort over the remaining words otherwise. A segment must amortise a
  // full dispatch + distribution pass to be worth sending through the
  // front door again; below ~2^15 records the sequential finish — run in
  // parallel ACROSS segments — wins on every wide BENCH_wide.json
  // instance. Settable so tests reach the string continuation and the
  // parallel segment path at small n.
  std::size_t wide_segment_base_case = std::size_t{1} << 15;
  // Order-statistics queries (core/order_stats.hpp) only: the rank
  // selector's base case within one word (core/rank_select.hpp) — a
  // window-straddling bucket at or below this size finishes with one
  // stable comparison sort on the word instead of another pruned
  // distribution pass. Smaller than wide_segment_base_case on purpose: a
  // selection segment that recurses gets to PRUNE most of its buckets
  // (the next pass touches only the window straddlers), so another
  // distribution pass stays profitable on segments far below the size
  // where a full-sort refinement would give up — the query-topk bench
  // family is the evidence. Settable so tests reach the pruned selection
  // at small n.
  std::size_t select_base_case = std::size_t{1} << 11;

  // n at or below this sorts with sequential std::stable_sort, and an
  // unforced call skips the sketch: choose() picks std_sort here whatever
  // the sketch says. The radix kernels overtake a comparison sort
  // astonishingly early (measured crossover ~2^9-2^10 records on the
  // baseline box: LSD 7.6us vs std::stable_sort 4.5us at n=512, and 2x
  // ahead by n=1024), so this only guards the regime where sketching and
  // workspace setup are not worth it.
  static constexpr std::size_t serial_threshold = 512;
  // One-pass counting sort when the exact key range (max - min) is at most
  // this. The competitor is not a full-width radix sort but LSD over the
  // *detected* bits — two 8-bit passes for any range up to 2^16 — so the
  // single pass only wins while its bucket cursors stay cache-resident:
  // measured crossover ~2^12 (n=1e6: counting 7.9ms vs LSD 11.3ms at range
  // 2^10, 14.4 vs 11.2 by 2^13).
  static constexpr std::size_t counting_max_range = std::size_t{1} << 12;
  // Duplicate regime => dtsort (heavy-key buckets skip all recursion,
  // Thm 4.6/4.7): fires when the most frequent sampled key exceeds
  // dtsort_top_freq, or when the sample is nearly all duplicates
  // (distinct_ratio below dtsort_distinct_ratio), or when key_bits is
  // large (see lsd_max_key_bits). Evidence: BENCH_suite.json table3-32
  // rows Unif-10 / BExp-100 / BExp-300 (DTSort 2-4x over LSD) vs
  // Zipf-1.5 / BExp-30 (LSD ahead; top_freq below the bar).
  static constexpr double dtsort_top_freq = 0.45;
  static constexpr double dtsort_distinct_ratio = 0.05;
  // Moderate-duplicate tier, consulted only after the digit-skew rule: a
  // top key above ~20% (Zipf s >= ~1.5) is worth a heavy bucket even on
  // 32-bit keys (BENCH_auto.json: Zipf-1.5/32 DTSort 22ms vs LSD 32ms),
  // but bitwise-skewed inputs with a moderate top key (BExp-30/32,
  // top ~34%) still belong to direct-scatter LSD — hence the ordering.
  static constexpr double dtsort_mid_top_freq = 0.20;
  // Low-digit skew => LSD with direct stores: when one byte value owns
  // this share of the sampled low digit, few scatter cursors are hot and
  // buffered staging only adds copies (BENCH_suite.json: BExp-10/30 LSD
  // beats RD by 1.3-1.6x; hashed-uniform digits favour buffered).
  static constexpr double direct_digit_share = 0.25;
  // Keys at most this wide with no duplicate/skew signal go to LSD: at
  // most 4 fixed passes (3 where tune() plans 11-bit digits, see
  // kLsdDigits), which beat MSD recursion on every 32-bit BENCH_suite.json
  // instance outside the duplicate regime. Wider keys default to dtsort
  // (the paper's 64-bit headline, Tab 3 right).
  static constexpr int lsd_max_key_bits = 32;
  // n at or below this runs the chosen kernel single-threaded even when
  // more workers are available: below the crossover, fork/join setup, the
  // per-block counting matrices and the extra cache traffic of a parallel
  // distribution cost more than they save. The serial/parallel decision
  // lands in sort_stats::chosen_parallelism.
  static constexpr std::size_t parallel_crossover_n = std::size_t{1} << 15;

  // The decision tree. `disallow` is a bitmask of sort_kernel values the
  // caller has ruled out (the dispatcher uses it when a cheap-branch
  // precondition fails its exact confirmation, e.g. the input was not
  // near-sorted after all).
  [[nodiscard]] kernel_plan choose(const input_sketch& s,
                                   unsigned disallow = 0) const {
    const auto allowed = [&](sort_kernel k) {
      return ((disallow >> static_cast<int>(k)) & 1U) == 0;
    };
    kernel_plan p;
    if (s.n <= serial_threshold && allowed(sort_kernel::std_sort)) {
      p.kernel = sort_kernel::std_sort;
      p.reason = "n below serial threshold";
    } else if (memory_budget_bytes != 0 && s.record_bytes != 0 &&
               (s.pure_key_records ||
                stability_mode == stability::relaxed) &&
               s.n * s.record_bytes > memory_budget_bytes &&
               allowed(sort_kernel::inplace)) {
      // The budget rule outranks every data-driven rule below: when the
      // O(n) ping-pong lease is off the table, only the in-place kernel
      // fits, and it is safe here (pure keys or an explicit relaxed
      // contract).
      p.kernel = sort_kernel::inplace;
      p.reason = "ping-pong lease exceeds memory budget";
    } else if ((s.maybe_sorted() || s.maybe_reverse_sorted()) &&
               allowed(sort_kernel::run_merge)) {
      p.kernel = sort_kernel::run_merge;
      p.reason = s.maybe_sorted() ? "no sampled adjacent pair descends"
                                  : "no sampled adjacent pair ascends";
    } else if (s.sample_range() <= counting_max_range &&
               allowed(sort_kernel::counting)) {
      p.kernel = sort_kernel::counting;
      p.reason = "sampled key range fits one counting pass";
    } else if ((s.top_freq() >= dtsort_top_freq ||
                s.distinct_ratio() <= dtsort_distinct_ratio) &&
               allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "heavy duplicates (Thm 4.6/4.7 regime)";
    } else if (s.digit_top_share() >= direct_digit_share &&
               allowed(sort_kernel::lsd)) {
      p.kernel = sort_kernel::lsd;
      p.reason = "bitwise-skewed digits: LSD with direct stores";
    } else if (s.top_freq() >= dtsort_mid_top_freq &&
               allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "moderate heavy key: worth a heavy bucket";
    } else if (s.key_bits <= lsd_max_key_bits && allowed(sort_kernel::lsd)) {
      p.kernel = sort_kernel::lsd;
      p.reason = "small dense keys: few fixed LSD passes";
    } else if (allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "wide keys: DTSort default";
    } else {
      p.kernel = sort_kernel::lsd;  // dtsort ruled out: lsd handles anything
      p.reason = "fallback";
    }
    tune(p, s);
    return p;
  }

  // Sketch-driven parameter tuning, applied to chosen and forced kernels
  // alike (so policy::always benchmarks measure the kernel the dispatcher
  // would actually run).
  static void tune(kernel_plan& p, const input_sketch& s) {
    p.parallelism =
        p.kernel == sort_kernel::std_sort ? 1 : plan_parallelism(s.n);
    if (p.kernel == sort_kernel::lsd) {
      p.gamma = detail::plan_digits(detail::kLsdDigits,
                                    {s.n, s.key_bits, 0, s.record_bytes,
                                     p.parallelism})
                    .digit;
      p.scatter = s.digit_top_share() >= direct_digit_share
                      ? scatter_strategy::direct
                      : scatter_strategy::automatic;
    }
  }

  // The serial/parallel half of the dispatch: how many workers should a
  // sort of n records run under? 1 below the crossover (or for std_sort,
  // which is sequential regardless), else par::effective_workers(): 1
  // inside a serial call (auto_sort_options::num_threads = 1), else the
  // whole pool.
  [[nodiscard]] static int plan_parallelism(std::size_t n) {
    return n <= parallel_crossover_n ? 1 : par::effective_workers();
  }

  // Run-merge is confirmed by an exact run scan: inputs with more runs
  // than this fall through to the radix kernels, where merging would cost
  // more than O(n sqrt(log r)) work — max(64, 4 log2 n) runs keeps the
  // merge depth near log2 log n.
  [[nodiscard]] static std::size_t max_merge_runs(std::size_t n) {
    return std::max<std::size_t>(
        64, 4 * static_cast<std::size_t>(
                    ceil_log2(std::max<std::size_t>(2, n))));
  }
};

namespace policy {

// The default data-driven routing.
inline dispatch_policy automatic() { return {}; }

// Pin a kernel, bypassing the decision tree (sketch-driven parameter
// tuning still applies). Precondition for always(counting): the exact key
// range (max - min) must be below 2^20, else dovetail::sort throws
// std::invalid_argument — a forced one-pass counting sort over a wider
// range would need an infeasibly large counting matrix.
inline dispatch_policy always(sort_kernel k) {
  dispatch_policy p;
  p.forced = k;
  return p;
}

}  // namespace policy

// Options for dovetail::sort. The workspace/stats contract matches
// dovetail_sort: pass the same sort_workspace to repeated calls and every
// kernel's O(n) scratch is reused after warm-up; one in-flight sort per
// workspace.
struct auto_sort_options {
  dispatch_policy policy{};
  // Width of the call, as sort_options::num_threads, for the sketch,
  // dispatch, kernel, encode and gather passes alike. The width that ran
  // is recorded in sort_stats::chosen_parallelism.
  int num_threads = 0;
  sort_workspace* workspace = nullptr;
  // Workspace pool for concurrent in-flight sub-sorts (today: the wide-key
  // wide refinement sorting large equal-prefix segments concurrently).
  // nullptr = workspace_pool::shared(), the process-wide default.
  workspace_pool* pool = nullptr;
  sort_stats* stats = nullptr;
};

namespace detail {

// Hard feasibility cap for a forced counting kernel (policy::always).
inline constexpr std::uint64_t kCountingHardCap = std::uint64_t{1} << 20;

// Copy (or move, for non-trivially-copyable types) records into `to`.
template <typename T>
void write_back(std::span<T> from, std::span<T> to) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    par::copy(std::span<const T>(from.data(), from.size()), to);
  } else {
    par::parallel_for(0, from.size(),
                      [&](std::size_t i) { to[i] = std::move(from[i]); });
  }
}

// Bottom-up pairwise merging of the runs delimited by `bounds` under the
// stable `less`, ping-pong between `a` and scratch `t` (an odd run out is
// carried over unchanged); the sorted result always ends in `a`. Returns
// the number of records that went through a merge. The run_merge kernel
// and stream_sorter::finish (stream_sort.hpp).
template <typename Rec, typename Less>
std::uint64_t merge_runs(std::span<Rec> a, std::span<Rec> t,
                         std::vector<std::size_t> bounds, const Less& less) {
  std::span<Rec> src = a, dst = t;
  std::uint64_t merged = 0;
  while (bounds.size() > 2) {
    const std::size_t nr = bounds.size() - 1;
    par::parallel_for(
        0, nr / 2,
        [&](std::size_t i) {
          const std::size_t lo = bounds[2 * i], mid = bounds[2 * i + 1],
                            hi = bounds[2 * i + 2];
          par::merge(std::span<const Rec>(src.data() + lo, mid - lo),
                     std::span<const Rec>(src.data() + mid, hi - mid),
                     dst.subspan(lo, hi - lo), less);
        },
        1);
    if (nr % 2 != 0) {  // odd run out: carry it over unchanged
      const std::size_t lo = bounds[nr - 1], hi = bounds[nr];
      write_back(src.subspan(lo, hi - lo), dst.subspan(lo, hi - lo));
    }
    merged += bounds[nr - nr % 2] - bounds[0];
    std::vector<std::size_t> next;
    next.reserve(nr / 2 + 2);
    for (std::size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (next.back() != bounds.back()) next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src.data() != a.data()) write_back(src, a);
  return merged;
}

// One stable counting-sort pass over the exact key range [min_key, max_key].
template <typename Rec, typename KeyFn>
void counting_kernel(std::span<Rec> data, const KeyFn& key,
                     std::uint64_t min_key, std::uint64_t max_key,
                     sort_workspace& ws, sort_stats* stats) {
  const std::size_t n = data.size();
  const std::size_t buckets =
      static_cast<std::size_t>(max_key - min_key) + 1;
  std::span<Rec> t = ws.template record_buffer<Rec>(n, stats);
  sort_workspace::lease off_lease =
      ws.acquire((buckets + 1) * sizeof(std::size_t), stats);
  const std::span<std::size_t> offs =
      off_lease.template carve<std::size_t>(buckets + 1);
  distribute_options dopt;
  dopt.workspace = &ws;
  dopt.stats = stats;
  distribute(std::span<const Rec>(data.data(), n), t, buckets,
             [&](const Rec& r) -> std::size_t {
               return static_cast<std::size_t>(
                   static_cast<std::uint64_t>(key(r)) - min_key);
             },
             offs, dopt);
  par::copy(std::span<const Rec>(t.data(), n), data);
  if (stats != nullptr) {
    stats->distributed_records.fetch_add(n, std::memory_order_relaxed);
    stats->num_distributions.fetch_add(1, std::memory_order_relaxed);
  }
}

// Exact (min, max) of the keys — one parallel reduce pass. Only run when a
// branch's precondition needs confirming; the sketch pays o(n) everywhere
// else.
template <typename Rec, typename KeyFn>
std::pair<std::uint64_t, std::uint64_t> exact_key_range(
    std::span<const Rec> data, const KeyFn& key) {
  using mm = std::pair<std::uint64_t, std::uint64_t>;
  return par::reduce_map(
      0, data.size(),
      mm{~std::uint64_t{0}, 0},
      [&](std::size_t i) {
        const auto k = static_cast<std::uint64_t>(key(data[i]));
        return mm{k, k};
      },
      [](mm x, mm y) {
        return mm{std::min(x.first, y.first), std::max(x.second, y.second)};
      });
}

// The dispatch core: sketch, route, run. `key` must return an unsigned
// integer here — the typed entry points (auto_sort.hpp) fold any other key
// type through its key_codec before reaching this.
template <typename Rec, typename KeyFn>
sort_kernel sort_unsigned(std::span<Rec> data, const KeyFn& key,
                          const auto_sort_options& opt) {
  static_assert(std::is_trivially_copyable_v<Rec>,
                "dovetail::sort requires trivially copyable records");
  sort_stats* st = opt.stats;
  const std::size_t n = data.size();

  // The call's width covers everything below — sketch, confirmation scans,
  // kernel — and is what dispatch_policy::plan_parallelism() sees as the
  // available worker count.
  const par::scoped_worker_limit worker_cap(opt.num_threads);

  const auto key_less = [&](const Rec& x, const Rec& y) {
    return static_cast<std::uint64_t>(key(x)) <
           static_cast<std::uint64_t>(key(y));
  };
  const auto record_choice = [&](const kernel_plan& p) {
    if (st != nullptr)
      sort_stats::note_max(st->chosen_parallelism,
                           static_cast<std::uint64_t>(p.parallelism));
  };
  if (!opt.policy.forced && n <= dispatch_policy::serial_threshold) {
    record_choice(kernel_plan{.kernel = sort_kernel::std_sort});
    std::stable_sort(data.begin(), data.end(), key_less);
    return sort_kernel::std_sort;
  }

  // The sketch runs under the width the plan will get, so a request
  // planned serial does not fork its sample gather onto the pool.
  input_sketch sk = [&] {
    const par::scoped_worker_limit sketch_cap(
        dispatch_policy::plan_parallelism(n));
    return sketch_input(std::span<const Rec>(data.data(), n), key);
  }();
  // Type-level facts the sampling pass cannot know: the record footprint
  // (drives the memory-budget rule) and whether equal encoded keys imply
  // byte-identical records (makes the unstable in-place kernel safe).
  sk.record_bytes = sizeof(Rec);
  sk.pure_key_records = is_pure_key_fn_v<KeyFn>;

  sort_workspace local_ws;
  sort_workspace& ws =
      opt.workspace != nullptr ? *opt.workspace : local_ws;
  unsigned disallow = 0;
  for (;;) {
    kernel_plan plan;
    if (opt.policy.forced) {
      plan.kernel = *opt.policy.forced;
      dispatch_policy::tune(plan, sk);
    } else {
      plan = opt.policy.choose(sk, disallow);
    }
    // Below the crossover the plan says "serial": run the kernel (and its
    // confirmation scans) on this thread so the decision is enforced, not
    // advisory. A serial worker_cap above stays serial either way.
    const par::scoped_worker_limit plan_cap(plan.parallelism);

    switch (plan.kernel) {
      case sort_kernel::std_sort: {
        record_choice(plan);
        std::stable_sort(data.begin(), data.end(), key_less);
        return plan.kernel;
      }

      case sort_kernel::run_merge: {
        // Runs end at every descent: key(data[p-1]) > key(data[p]).
        std::vector<std::size_t> bounds =
            par::run_bounds(n, [&](std::size_t p) {
              return static_cast<std::uint64_t>(key(data[p - 1])) >
                     static_cast<std::uint64_t>(key(data[p]));
            });
        std::size_t runs = bounds.size() - 1;
        if (n >= 2 && runs == n) {
          // Every adjacent pair descends: the input is strictly
          // descending, so no equal keys exist and a wholesale reversal
          // is trivially stable — and leaves exactly one run.
          par::reverse_inplace(data);
          bounds = {0, n};
          runs = 1;
        }
        if (!opt.policy.forced && runs > dispatch_policy::max_merge_runs(n)) {
          // The probes lied (descents exist but were all missed, or the
          // reversal bailed): rule the branch out and re-dispatch.
          disallow |= 1U << static_cast<int>(sort_kernel::run_merge);
          continue;
        }
        record_choice(plan);
        if (runs > 1) {
          std::span<Rec> t = ws.template record_buffer<Rec>(n, st);
          detail::merge_runs(data, t, std::move(bounds), key_less);
        }
        return plan.kernel;
      }

      case sort_kernel::counting: {
        const auto [min_key, max_key] = detail::exact_key_range(
            std::span<const Rec>(data.data(), n), key);
        const std::uint64_t range =
            n == 0 ? 0 : max_key - min_key;
        if (opt.policy.forced) {
          if (range >= detail::kCountingHardCap)
            throw std::invalid_argument(
                "dovetail::sort: policy::always(counting) needs an exact "
                "key range below 2^20");
        } else if (range > dispatch_policy::counting_max_range) {
          // Rare keys above the sampled range (the overflow phenomenon of
          // Sec 5) made the estimate optimistic: re-dispatch without the
          // counting branch.
          disallow |= 1U << static_cast<int>(sort_kernel::counting);
          continue;
        }
        record_choice(plan);
        if (n >= 2 && range > 0)
          detail::counting_kernel(data, key, min_key, max_key, ws, st);
        return plan.kernel;
      }

      case sort_kernel::lsd: {
        record_choice(plan);
        baseline::lsd_options lopt;
        lopt.gamma = plan.gamma;
        lopt.scatter = plan.scatter;
        lopt.workspace = &ws;
        lopt.stats = st;
        baseline::lsd_radix_sort(data, key, lopt);
        return plan.kernel;
      }

      case sort_kernel::dtsort: {
        record_choice(plan);
        sort_options dopt;
        dopt.workspace = &ws;
        dopt.stats = st;
        if (plan.parallelism == 1 && n <= detail::kSerialFinishMax)
          dopt.base_case = n;
        dovetail_sort(data, key, dopt);
        return plan.kernel;
      }

      case sort_kernel::inplace: {
        // Unstable kernel: reachable only when instability is unobservable
        // (pure-key records) or explicitly permitted. The auto rule already
        // guarantees this; a pinned policy::always(inplace) must prove it
        // here.
        if (!sk.pure_key_records &&
            opt.policy.stability_mode != stability::relaxed)
          throw std::invalid_argument(
              "dovetail::sort: policy::always(inplace) on records that "
              "carry payload needs dispatch_policy::stability_mode = "
              "stability::relaxed (the kernel is unstable)");
        record_choice(plan);
        inplace_sort_options iopt;
        iopt.workspace = &ws;
        iopt.stats = st;
        inplace_sort(data, key, iopt);
        return plan.kernel;
      }
    }
    throw std::invalid_argument("dovetail::sort: unknown kernel");
  }
}

}  // namespace detail

}  // namespace dovetail
