// DovetailSort (DTSort) — Alg 2 of "Parallel Integer Sort: Theory and
// Practice" (PPoPP 2024). A stable parallel MSD integer sort that detects
// heavily duplicated keys by sampling, gives each its own bucket so it skips
// all further recursion, and dovetail-merges the heavy buckets back between
// the recursively sorted light keys.
//
// Structure of one recursive call on a subproblem of n' records whose keys
// agree on all bits above `bits`:
//   1. Sampling   — estimate the key range (overflow-bucket trick, Sec 5)
//                   and detect heavy keys (Sec 2.5); assign bucket ids so
//                   that each MSD zone is [light | its heavy buckets...]
//                   and buckets are globally ordered (Sec 3.1).
//   2. Distribute — one stable parallel counting sort by bucket id into the
//                   other buffer of an (A, T) ping-pong pair (Sec 3.2, 5).
//   3. Recurse    — sort each light bucket on the next digit; heavy buckets
//                   are already fully sorted and skip recursion (Sec 3.3).
//   4. Dovetail   — per zone, interleave heavy buckets with the sorted
//                   light bucket via DTMerge (Alg 3, Sec 3.4).
// Base cases: no bits left, or n' <= θ. The paper finishes the latter with
// a stable comparison sort (Sec 3.5); here a sequential, range-adaptive MSD
// radix sort over the dead twin segment does it (detail::radix_finish): one
// 11-bit level for a θ-sized segment, then a branch-free rank placement of
// each bucket of at most 16 records — the same stable order, no
// allocation. Only the overflow bucket, whose keys can span the full width
// and size, keeps the comparison sort.
//
// Work O(n sqrt(log r)), span ~O(2^sqrt(log r)) per Thm 4.5; stable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "dovetail/core/bucket_table.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dt_merge.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/pass_plan.hpp"
#include "dovetail/core/sampling.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/sort.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail {

// Tuning knobs for dovetail_sort. Defaults follow the paper's Sec 6
// "Parameter Selection"; the ablation flags correspond to the experiments
// in Sec 6.3. All combinations preserve the stability guarantee (equal keys
// keep input order) and the O(n sqrt(log r)) work bound, except where a
// knob's comment says otherwise (the ablation flags exist to measure
// exactly those exceptions).
struct sort_options {
  // Digit width γ in bits. 0 = auto: the pass planner's γ
  // (detail::plan_digits with detail::kDtsortDigits, below) — the narrowest
  // γ in [8, 12] that reaches base_case in the fewest levels, within
  // Thm 4.5's sampling cap. Larger γ means fewer recursion levels but
  // 2^γ-sized counting scratch per subproblem; the bench_suite "params"
  // family sweeps this.
  int gamma = 0;

  // Base-case threshold θ (paper: 2^14): subproblems at most this size are
  // finished sequentially by a stable MSD radix sort over the ping-pong
  // twin buffer (detail::radix_finish below) instead of the paper's
  // comparison sort. It allocates nothing and adapts its digit to the
  // segment's key range and size, so a base case costs O(n') per level,
  // each level's digit at most 11 bits and sized for leaves of about 8
  // records (detail::finish_digit), and buckets of at most 16 records take
  // a rank placement instead of another level. Larger θ trades parallel
  // distribution depth for more sequential finishing; the front door sets
  // θ = n on serial plans of at most 2^16 records (dispatch.hpp), which
  // makes the whole sort one finish.
  std::size_t base_case = std::size_t{1} << 14;

  // Heavy-key detection via sampling (Alg 2 step 1), subsampling every
  // subsample_stride(n)-th sample (sampling.hpp). Disabling this yields the
  // "Plain" variant of the Fig 4(a,b) ablation.
  bool detect_heavy = true;

  // Dovetail merging (Alg 3) vs. the standard parallel-merge baseline
  // ("PLMerge") for step 4 — the Fig 4(c,d) ablation.
  bool use_dt_merge = true;

  // Overflow-bucket optimization (Sec 5): estimate the key range from the
  // samples and skip leading zero bits; out-of-range keys go to a final
  // comparison-sorted overflow bucket.
  bool skip_leading_bits = true;

  // Seed for the deterministic sampling. Fixed seed => the whole sort is
  // internally deterministic (Appendix A).
  std::uint64_t seed = 42;

  // BENCHMARK-ONLY (Fig 4 c,d "Others" bar): skip the merging step in every
  // recursive call. The output is NOT fully sorted when heavy buckets
  // exist; this isolates the cost of the other steps as in Sec 6.3.
  bool ablate_skip_merge = false;

  // Width of the call (the thread contract, par::serial_width): 0 = the
  // whole pool, 1 = the calling thread only, which is what N request
  // threads each sorting their own batch want.
  int num_threads = 0;

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

namespace detail {

// Stable rank placement of the n <= W records at `src` into the other
// array `dst`, for keys that agree above their low `bits` bits (bits <=
// kFinishLeafKeyBits). Each record's composite (low key bits, index) is
// distinct and orders like (key, input position), so a record's place is
// the number of smaller composites: the earlier records with a key <= its
// own plus the later ones with a smaller key. Slots past n hold ~0, which
// no composite exceeds, so the count runs over all W slots and no
// comparison decides a branch.
template <std::size_t W, typename Rec, typename KeyFn>
void rank_place(const Rec* src, Rec* dst, std::size_t n, int bits,
                const KeyFn& key) {
  constexpr int kIndexBits = 64 - kFinishLeafKeyBits;
  static_assert(W <= std::size_t{1} << kIndexBits);
  const std::uint64_t low = low_mask(bits);
  std::uint64_t c[W];
  for (std::size_t i = 0; i < W; ++i) {
    c[i] = i < n ? (static_cast<std::uint64_t>(key(src[i])) & low)
                           << kIndexBits |
                       i
                 : ~std::uint64_t{0};
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t j = 0; j < W; ++j) r += c[j] < c[i];
    dst[r] = src[i];
  }
}

// A leaf of at most kFinishLeaf records; half-size leaves count half the
// slots.
template <typename Rec, typename KeyFn>
void rank_leaf(const Rec* src, Rec* dst, std::size_t n, int bits,
               const KeyFn& key) {
  if (n <= kFinishLeaf / 2)
    rank_place<kFinishLeaf / 2>(src, dst, n, bits, key);
  else
    rank_place<kFinishLeaf>(src, dst, n, bits, key);
}

// Sequential stable MSD radix sort of the n records at `cur` by key. `oth`
// is an equally long dead segment used as the scatter target (the twin
// segment of DTSort's (A, T) ping-pong pair); the sorted records land in
// whichever of the two is the A side (`cur` if `cur_is_a`, else `oth`).
// Each level makes one min/max pass: an all-equal segment is done without
// a scatter, otherwise the digit starts at the highest bit where min and
// max differ and is finish_digit(n, range bits) wide (pass_plan.hpp:
// sized for leaves of about 8 records, 11 bits on a θ-sized segment, 7
// then 6 on 2^16 records). Buckets of at most kFinishLeaf records are
// then placed by rank_leaf straight into `cur`, the output side when
// cur_is_a; otherwise each run of leaves is copied back into `oth` before
// the next larger bucket recurses with the parity flipped. Counts live on
// the stack; each level consumes at least min(4, range bits) bits, so the
// recursion is at most 16 deep for 64-bit keys. Stable, so the output
// equals std::stable_sort by key.
template <typename Rec, typename KeyFn>
void radix_finish(Rec* cur, Rec* oth, std::size_t n, bool cur_is_a,
                  const KeyFn& key) {
  const auto k = [&key](const Rec& r) {
    return static_cast<std::uint64_t>(key(r));
  };
  if (n == 0) return;
  std::uint64_t kmin = k(cur[0]);
  std::uint64_t kmax = kmin;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t ki = k(cur[i]);
    kmin = std::min(kmin, ki);
    kmax = std::max(kmax, ki);
  }
  if (kmin == kmax) {
    if (!cur_is_a) std::copy(cur, cur + n, oth);
    return;
  }
  const int range = bit_width_u64(kmin ^ kmax);
  if (n <= kFinishLeaf && range <= kFinishLeafKeyBits) {
    if (cur_is_a) {  // the leaf writes across: through the dead twin
      std::copy(cur, cur + n, oth);
      rank_leaf(oth, cur, n, range, key);
    } else {
      rank_leaf(cur, oth, n, range, key);
    }
    return;
  }
  const int d = finish_digit(n, range);
  const int shift = range - d;
  const std::size_t nb = std::size_t{1} << d;
  const std::uint64_t dmask = nb - 1;
  // end[b]: after the scatter, one past the last record of bucket b.
  std::size_t end[std::size_t{1} << kFinishWidest];
  std::fill(end, end + nb, 0);
  for (std::size_t i = 0; i < n; ++i) ++end[(k(cur[i]) >> shift) & dmask];
  for (std::size_t b = 0, sum = 0; b < nb; ++b) {
    const std::size_t c = end[b];
    end[b] = sum;
    sum += c;
  }
  for (std::size_t i = 0; i < n; ++i)
    oth[end[(k(cur[i]) >> shift) & dmask]++] = cur[i];
  if (shift == 0) {  // every bucket holds one key
    if (cur_is_a) std::copy(oth, oth + n, cur);
    return;
  }
  // Leaves placed into `cur` from `pending` on are not yet in `oth`.
  std::size_t pending = 0;
  for (std::size_t b = 0, lo = 0; b < nb; lo = end[b++]) {
    const std::size_t m = end[b] - lo;
    if (m <= kFinishLeaf) {
      if (m != 0) rank_leaf(oth + lo, cur + lo, m, shift, key);
      continue;
    }
    if (!cur_is_a) std::copy(cur + pending, cur + lo, oth + pending);
    radix_finish(oth + lo, cur + lo, m, !cur_is_a, key);
    pending = end[b];
  }
  if (!cur_is_a) std::copy(cur + pending, cur + n, oth + pending);
}

// DTSort's digit rule (pass_plan.hpp): γ from 8 to 12 bits, and Thm 4.5's
// sampling cap. At θ = 2^14 the plan is the smallest γ in [8, 12] that takes
// n evenly spread records to θ in one level where the caps allow it — n =
// 1e7 gets γ = 10 and one level — and balanced digits over the fewest levels
// beyond that. The cap is applied again per level, on that level's n'.
inline constexpr digit_rule kDtsortDigits{
    .base = 8, .widest = 12, .sampled = true};

template <typename Rec, typename KeyFn>
class dt_sorter {
 public:
  using key_type = std::decay_t<std::invoke_result_t<KeyFn, const Rec&>>;
  static_assert(std::is_unsigned_v<key_type>,
                "dovetail_sort requires an unsigned integer key");
  static_assert(std::is_trivially_copyable_v<Rec>,
                "dovetail_sort requires trivially copyable records");

  dt_sorter(std::span<Rec> data, const KeyFn& key, const sort_options& opt)
      : a_(data), key_(key), opt_(opt),
        theta_(std::max<std::size_t>(opt.base_case, 2)) {
    const std::size_t n = std::max<std::size_t>(2, data.size());
    gamma_ = opt.gamma > 0
                 ? opt.gamma
                 : plan_digits(kDtsortDigits,
                               {n, std::numeric_limits<key_type>::digits,
                                theta_, sizeof(Rec), par::effective_workers()})
                       .digit;
    stride_ = subsample_stride(n);
  }

  void run() {
    if (a_.size() <= 1) return;
    // All engine scratch — the ping-pong buffer, bucket-id arrays,
    // counting matrices and offsets — comes from one workspace, sized at
    // the top level and reused across every recursion level. An external
    // workspace (opt.workspace) additionally carries that memory across
    // repeated sorts, so warm re-sorts perform zero workspace allocations
    // (see test_workspace.cpp); only the small per-node sampling and
    // bucket-table vectors, the per-zone heavy-bucket size lists and the
    // overflow bucket's comparison sort still touch the heap. Base cases
    // allocate nothing: radix_finish scatters into the dead twin segment
    // and keeps its counts on the stack.
    sort_workspace local_ws;
    ws_ = opt_.workspace != nullptr ? opt_.workspace : &local_ws;
    t_ = ws_->template record_buffer<Rec>(a_.size(), opt_.stats);
    sort_rec(0, a_.size(), std::numeric_limits<key_type>::digits,
             /*in_a=*/true, opt_.seed, /*depth=*/1);
    ws_ = nullptr;
  }

 private:
  [[nodiscard]] std::uint64_t keyof(const Rec& r) const {
    return static_cast<std::uint64_t>(key_(r));
  }

  // Stable comparison sort of [lo, hi) (the overflow bucket); the result
  // always ends in A. The matching segment of the other buffer is dead
  // space and serves as mergesort scratch.
  void comparison_base(std::size_t lo, std::size_t hi, bool in_a) {
    par::stable_sort_to_a(a_.subspan(lo, hi - lo), t_.subspan(lo, hi - lo),
                          in_a, [this](const Rec& x, const Rec& y) {
                            return key_(x) < key_(y);
                          });
  }

  void sort_rec(std::size_t lo, std::size_t hi, int bits, bool in_a,
                std::uint64_t seed, std::uint64_t depth) {
    const std::size_t n = hi - lo;
    if (n == 0) return;
    if (bits == 0 || n == 1) {  // all bits sorted (Alg 2 line 1)
      par::copy_back_to_a(a_.subspan(lo, n), t_.subspan(lo, n), in_a);
      return;
    }
    if (n <= theta_) {  // base case (Alg 2 line 2), finished by radix
      if (opt_.stats != nullptr)
        opt_.stats->base_case_records.fetch_add(n, std::memory_order_relaxed);
      Rec* const a = a_.data() + lo;
      Rec* const t = t_.data() + lo;
      radix_finish(in_a ? a : t, in_a ? t : a, n, in_a, key_);
      return;
    }

    std::span<Rec> cur = in_a ? a_ : t_;
    std::span<Rec> oth = in_a ? t_ : a_;
    std::span<const Rec> data(cur.data() + lo, n);
    const std::uint64_t mask = low_mask(bits);

    // ---- Step 1: sampling ----
    // Digit width: γ, but never more than sqrt-ish of the subproblem so the
    // sampling cost stays o(n') (Thm 4.5 needs n' >= 2^2γ for the level).
    const int dcap = std::min({gamma_, bits, sampling_digit_cap(n)});
    const std::size_t zones_cap = std::size_t{1} << dcap;

    sample_result sr;
    int eff_bits = bits;
    const bool use_sampling = opt_.detect_heavy || opt_.skip_leading_bits;
    if (use_sampling) {
      const std::size_t ns = std::min<std::size_t>(n, zones_cap * stride_);
      sr = sample_keys(
          data, [this](const Rec& r) { return keyof(r); }, mask, ns, stride_,
          opt_.detect_heavy, seed);
      if (opt_.skip_leading_bits) eff_bits = bit_width_u64(sr.max_sample);
    }
    const int digit = std::min(dcap, eff_bits);
    const int shift = eff_bits - digit;
    const std::size_t zones = std::size_t{1} << digit;
    const bool has_overflow = eff_bits < bits;

    const bucket_table bt(sr.heavy_keys, shift, zones);
    const std::size_t nb = bt.num_buckets();

    // ---- Step 2: distribute (stable counting sort by bucket id) ----
    auto bucket_of = [&](const Rec& r) -> std::size_t {
      const std::uint64_t kp = keyof(r) & mask;
      if (has_overflow && (kp >> eff_bits) != 0) return bt.overflow_id();
      return bt.lookup(kp);
    };
    sort_workspace::lease off_lease =
        ws_->acquire((nb + 1) * sizeof(std::size_t), opt_.stats);
    const std::span<std::size_t> offs = off_lease.carve<std::size_t>(nb + 1);
    distribute_options dopt;
    dopt.workspace = ws_;
    dopt.stats = opt_.stats;
    distribute(data, oth.subspan(lo, n), nb, bucket_of, offs, dopt);

    if (sort_stats* st = opt_.stats; st != nullptr) {
      st->distributed_records.fetch_add(n, std::memory_order_relaxed);
      st->num_distributions.fetch_add(1, std::memory_order_relaxed);
      st->sampled_keys.fetch_add(sr.num_samples, std::memory_order_relaxed);
      sort_stats::note_max(st->max_depth, depth);
      st->overflow_records.fetch_add(offs[nb] - offs[bt.overflow_id()],
                                     std::memory_order_relaxed);
      // Heavy records = everything outside the light buckets and overflow.
      std::uint64_t light_total = 0;
      for (std::size_t z = 0; z < zones; ++z) {
        const std::uint32_t lid = bt.light_id(z);
        light_total += offs[lid + 1] - offs[lid];
      }
      st->heavy_records.fetch_add(
          offs[bt.overflow_id()] - light_total, std::memory_order_relaxed);
    }

    const bool child_in_a = !in_a;  // records now live in `oth`

    // ---- Steps 3 + 4, per MSD zone in parallel; slot `zones` handles the
    // overflow bucket. ----
    par::parallel_for(
        0, zones + 1,
        [&](std::size_t z) {
          if (z == zones) {
            // Overflow bucket: keys above the sampled range; comparison
            // sort (they are few whp) and land in A.
            const std::size_t blo = lo + offs[bt.overflow_id()];
            const std::size_t bhi = lo + offs[nb];
            if (bhi > blo) comparison_base(blo, bhi, child_in_a);
            return;
          }
          const std::uint32_t lid = bt.light_id(z);
          const std::uint32_t next =
              z + 1 < zones ? bt.light_id(z + 1) : bt.overflow_id();
          const std::size_t zlo = lo + offs[lid];
          const std::size_t zhi = lo + offs[next];
          if (zhi == zlo) return;
          const std::size_t light_sz = offs[lid + 1] - offs[lid];
          const std::size_t m = next - lid - 1;  // heavy buckets in zone

          // Step 3: recurse on the light bucket (result lands in A).
          if (light_sz > 0)
            sort_rec(zlo, zlo + light_sz, shift, child_in_a,
                     par::hash64(seed + z + 1), depth + 1);

          if (m == 0) return;

          // Heavy buckets skip recursion; make sure they are in A.
          if (!child_in_a) {
            par::copy(std::span<const Rec>(t_.data() + zlo + light_sz,
                                           zhi - zlo - light_sz),
                      a_.subspan(zlo + light_sz, zhi - zlo - light_sz));
          }

          // Step 4: dovetail merging within the zone.
          if (opt_.ablate_skip_merge) return;  // Fig 4(c,d) "Others" timing
          std::vector<std::size_t> sizes(m);
          for (std::size_t i = 0; i < m; ++i)
            sizes[i] = offs[lid + 2 + i] - offs[lid + 1 + i];
          if (opt_.stats != nullptr)
            opt_.stats->merged_records.fetch_add(zhi - zlo,
                                                 std::memory_order_relaxed);

          auto zone_span = a_.subspan(zlo, zhi - zlo);
          auto tmp_span = t_.subspan(zlo, zhi - zlo);
          if (opt_.use_dt_merge)
            dt_merge(zone_span, light_sz, std::span<const std::size_t>(sizes),
                     key_, tmp_span);
          else
            pl_merge(zone_span, light_sz, key_, tmp_span);
        },
        1);
  }

  std::span<Rec> a_;
  std::span<Rec> t_;
  const KeyFn key_;
  const sort_options opt_;
  std::size_t theta_;
  sort_workspace* ws_ = nullptr;
  int gamma_ = 8;
  std::size_t stride_ = 8;
};

}  // namespace detail

// Sort `data` in place by `key(record)` in non-decreasing key order.
//
// Requirements: Rec is trivially copyable; `key` is a pure function of the
// record (it is called multiple times per record) returning an unsigned
// integer or any other codec-covered type (key_codec.hpp) — non-unsigned
// keys are sorted by their order-preserving encoding. `data` must not
// overlap the workspace's buffers.
//
// Guarantees:
//   * Stable — records with equal keys keep their input order.
//   * O(n sqrt(log r)) work and ~O(2^sqrt(log r)) span (r = key range;
//     Thm 4.5), O(n) work for exponential key-frequency or few-distinct-key
//     inputs (Thm 4.6/4.7).
//   * Deterministic for a fixed opt.seed (Appendix A).
//
// Space: O(n) extra (the ping-pong record buffer + per-level scratch), all
// leased from a sort_workspace. Pass one via opt.workspace to reuse it
// across repeated sorts — after the first (warm-up) sort, re-sorts of
// equal-or-smaller inputs perform zero workspace allocations. A workspace
// serves one in-flight sort at a time; concurrent sorts need distinct
// workspaces (opt.workspace = nullptr gives each call a private one).
template <typename Rec, typename KeyFn>
void dovetail_sort(std::span<Rec> data, const KeyFn& key,
                   const sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  // The call's width covers the whole sort, sampling and distribution
  // included.
  const par::scoped_worker_limit worker_cap(opt.num_threads);
  if constexpr (std::is_unsigned_v<K>) {
    detail::dt_sorter<Rec, KeyFn> s(data, key, opt);
    s.run();
  } else {
    // Typed keys (key_codec.hpp): run the kernel over the order-preserving
    // unsigned encoding. The records themselves are scattered unchanged,
    // so no decode pass is needed.
    static_assert(sortable_key<K>,
                  "dovetail_sort: the key type has no key_codec "
                  "(see core/key_codec.hpp)");
    const auto enc = [&key](const Rec& r) {
      return key_codec<K>::encode(key(r));
    };
    detail::dt_sorter<Rec, decltype(enc)> s(data, enc, opt);
    s.run();
  }
}

// Convenience overload for spans of plain keys — unsigned, or any other
// codec-covered trivially-copyable type (signed integers, float/double).
template <typename K>
  requires(sortable_key<K> && std::is_trivially_copyable_v<K>)
void dovetail_sort(std::span<K> data, const sort_options& opt = {}) {
  dovetail_sort(data, [](const K& k) { return k; }, opt);
}

}  // namespace dovetail
