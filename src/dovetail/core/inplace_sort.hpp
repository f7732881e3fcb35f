// In-place MSD radix sort with IPS2Ra-style block permutation — the
// dispatchable kernel behind sort_kernel::inplace (ISSUE 10 tentpole a).
//
// The out-of-place kernels ping-pong through a record_buffer arena, so their
// peak footprint is >= 2x the data. This kernel permutes records within the
// input array; its scratch is O(buckets * block) per active node, bounded by
// the blocked-regime gate below to <= n/8 bytes-of-records per node — and
// because simultaneously active nodes own disjoint subranges, the same bound
// holds for the whole sort (<= n/4 after power-of-two slab rounding),
// asserted via sort_stats::peak_workspace_bytes by tests/test_inplace_sort.cpp.
//
// One node, n records over B = 2^digit buckets:
//   1. histogram   — the engine's parallel counting pass
//                    (distribute_histogram, or the SIMD digit variant
//                    distribute_histogram_digits when the records ARE raw
//                    u32/u64 keys) => bucket sizes + final boundaries.
//   2. classify    — serial scan appending each record to a per-bucket
//                    staging block (block_bytes each, leased); every full
//                    block is flushed back into the consumed prefix of the
//                    array, which always has room: after i+1 reads at most
//                    floor((i+1)/blk) blocks have been flushed.
//   3. permute     — American-flag cycle-chasing at BLOCK granularity: one
//                    block in hand, each memcpy moves a whole block to the
//                    first unfinalized slot of its bucket (cache-line bursts
//                    instead of record-at-a-time swaps — the
//                    constant-factor win of IPS2Ra/RegionsSort).
//   4. shift       — blocks of bucket z occupy slots [c[z], c[z+1]); their
//                    final record range starts at start[z] >= c[z]*blk.
//                    Moving in decreasing z order never clobbers an unmoved
//                    source (start[z]+nblk[z]*blk <= start[z+1]).
//   5. residues    — each bucket's partial staging block tops up its region.
//   6. recurse     — parallel over buckets on the next digit; nodes below
//                    the blocked gate use the plain record-at-a-time flag
//                    loop (their working set is cache-resident), and
//                    base-case spans finish with std::sort or the in-register
//                    sorting network (util/simd.hpp) for raw-key tinies.
//
// UNSTABLE: equal keys land in arbitrary order. The front door only selects
// it when that is unobservable (pure-key records) or explicitly permitted
// (stability::relaxed) — see dispatch_policy in dispatch.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "dovetail/core/distribute.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/util/bits.hpp"
#include "dovetail/util/simd.hpp"

namespace dovetail {

struct inplace_sort_options {
  // Digit width per MSD level (2^gamma buckets). 0 (default) auto-picks
  // from the detected key bits (min(bits, 10) — see inplace_sort).
  // Explicit values are clamped to [1, 16] (the block-label array is
  // 16-bit); 10 is the practical ceiling before the staging area
  // (2^gamma * block_bytes) falls out of L2.
  int gamma = 0;
  // Subproblems at most this size finish with a comparison sort (or the
  // sorting network when the records are raw keys).
  std::size_t base_case = std::size_t{1} << 12;
  // Staging block per bucket. Also the permutation granularity: larger
  // blocks mean fewer, longer memcpy bursts but more scratch (B * block).
  std::size_t block_bytes = 2048;
  sort_workspace* workspace = nullptr;  // reuse across sorts; may be null
  sort_stats* stats = nullptr;          // engine counters; may be null
};

namespace detail {

// Blocked permutation only when its staging scratch (B * block_bytes) is at
// most 1/8 of the node's records; smaller nodes run the record-at-a-time
// flag loop with zero staging. This is what bounds the sort's peak extra
// memory (see the header comment).
inline constexpr std::size_t kInplaceBlockedFactor = 8;

template <typename Rec, typename BucketFn>
void inplace_flag_permute(std::span<Rec> a, const BucketFn& bucket_of,
                          std::span<const std::size_t> start,
                          std::span<std::size_t> cur, std::size_t B) {
  for (std::size_t z = 0; z < B; ++z) cur[z] = start[z];
  for (std::size_t z = 0; z < B; ++z) {
    while (cur[z] < start[z + 1]) {
      Rec r = a[cur[z]];
      std::size_t d = bucket_of(r);
      if (d == z) {
        ++cur[z];
        continue;
      }
      // Chase the cycle with one record in hand; every swap finalizes one
      // record at its bucket cursor.
      do {
        using std::swap;
        swap(r, a[cur[d]]);
        ++cur[d];
        d = bucket_of(r);
      } while (d != z);
      a[cur[z]++] = r;
    }
  }
}

template <typename Rec, typename BucketFn>
void inplace_blocked_permute(std::span<Rec> a, const BucketFn& bucket_of,
                             std::span<const std::size_t> counts,
                             std::span<const std::size_t> start,
                             std::span<std::size_t> cur,
                             std::span<std::size_t> cblk, std::size_t B,
                             std::size_t blk, sort_workspace& ws,
                             sort_stats* stats) {
  const std::size_t n = a.size();
  const std::size_t nb = n / blk;  // upper bound on flushed full blocks
  const std::size_t bytes = blk * sizeof(Rec);
  sort_workspace::lease stage_lease =
      ws.acquire((B + 2) * bytes + B * sizeof(std::uint32_t) +
                     nb * sizeof(std::uint16_t) + 3 * kSlabAlign,
                 stats);
  std::span<Rec> bufs = stage_lease.carve<Rec>((B + 2) * blk);
  Rec* hand0 = bufs.data() + B * blk;
  Rec* hand1 = hand0 + blk;
  std::span<std::uint32_t> fill = stage_lease.carve<std::uint32_t>(B);
  std::span<std::uint16_t> bb = stage_lease.carve<std::uint16_t>(nb);
  std::fill(fill.begin(), fill.end(), 0);

  // 2. classify: append to the bucket's staging block; flush full blocks
  // into the consumed prefix. The flush target [wb*blk, (wb+1)*blk) is
  // always <= i+1 records in: the buffers hold (i+1) - wb*blk records and
  // the flushing one alone holds blk of them.
  std::size_t wb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = bucket_of(a[i]);
    bufs[d * blk + fill[d]] = a[i];
    if (++fill[d] == blk) {
      std::memcpy(a.data() + wb * blk, bufs.data() + d * blk, bytes);
      bb[wb] = static_cast<std::uint16_t>(d);
      ++wb;
      fill[d] = 0;
    }
  }

  // Slot prefix c[z]: where bucket z's full blocks live after the block
  // permutation (cur doubles as the per-bucket block tally, then cursor).
  for (std::size_t z = 0; z < B; ++z) cur[z] = 0;
  for (std::size_t s = 0; s < wb; ++s) ++cur[bb[s]];
  cblk[0] = 0;
  for (std::size_t z = 0; z < B; ++z) cblk[z + 1] = cblk[z] + cur[z];

  // 3. block-granular American flag with one block in hand.
  for (std::size_t z = 0; z < B; ++z) cur[z] = cblk[z];
  for (std::size_t z = 0; z < B; ++z) {
    while (cur[z] < cblk[z + 1]) {
      std::size_t d = bb[cur[z]];
      if (d == z) {
        ++cur[z];
        continue;
      }
      std::memcpy(hand0, a.data() + cur[z] * blk, bytes);
      while (d != z) {
        const std::size_t s = cur[d]++;
        std::memcpy(hand1, a.data() + s * blk, bytes);
        std::memcpy(a.data() + s * blk, hand0, bytes);
        const std::size_t db = bb[s];
        bb[s] = static_cast<std::uint16_t>(d);
        d = db;
        std::swap(hand0, hand1);
      }
      std::memcpy(a.data() + cur[z] * blk, hand0, bytes);
      bb[cur[z]] = static_cast<std::uint16_t>(z);
      ++cur[z];
    }
  }

  // 4. shift each bucket's block run from slot space to its final record
  // boundary. start[z] >= cblk[z]*blk (every earlier bucket has at least
  // its full blocks' worth of records), so moves go rightward, and in
  // decreasing z order a later bucket's write region [start[z'],
  // start[z'+1]) never overlaps an unread source (it begins at or after
  // cblk[z'+1... z]*blk >= this source's end).
  for (std::size_t zz = B; zz-- > 0;) {
    const std::size_t nfull = cblk[zz + 1] - cblk[zz];
    if (nfull == 0) continue;
    const std::size_t src = cblk[zz] * blk;
    if (start[zz] != src)
      std::memmove(a.data() + start[zz], a.data() + src, nfull * bytes);
  }

  // 5. residues: the partial staging blocks complete each bucket's region.
  for (std::size_t z = 0; z < B; ++z) {
    const std::size_t nfull = cblk[z + 1] - cblk[z];
    assert(fill[z] == counts[z] - nfull * blk);
    if (fill[z] != 0)
      std::memcpy(a.data() + start[z] + nfull * blk, bufs.data() + z * blk,
                  fill[z] * sizeof(Rec));
  }
  (void)counts;
}

template <bool RawKeys, typename Rec, typename KeyFn>
void inplace_base_case(std::span<Rec> a, const KeyFn& key,
                       const inplace_sort_options& opt) {
  if (opt.stats != nullptr)
    opt.stats->base_case_records.fetch_add(a.size(),
                                           std::memory_order_relaxed);
  if constexpr (RawKeys) {
    // Tiny raw-key spans: the in-register sorting network (pure keys have a
    // unique sorted byte sequence, so unstable is unobservable here too).
    if (simd::network_sort(a)) return;
  }
  std::sort(a.begin(), a.end(),
            [&](const Rec& x, const Rec& y) { return key(x) < key(y); });
}

template <bool RawKeys, typename Rec, typename KeyFn>
void inplace_rec(std::span<Rec> a, const KeyFn& key, int bits,
                 const inplace_sort_options& opt, sort_workspace& ws) {
  const std::size_t n = a.size();
  if (n <= 1 || bits <= 0) return;
  if (n <= opt.base_case) {
    inplace_base_case<RawKeys>(a, key, opt);
    return;
  }
  const int digit = std::min(opt.gamma, bits);
  const int shift = bits - digit;
  const std::size_t B = std::size_t{1} << digit;
  const std::uint64_t zmask = B - 1;
  auto keyof = [&](const Rec& r) { return static_cast<std::uint64_t>(key(r)); };
  auto bucket_of = [&](const Rec& r) -> std::size_t {
    return (keyof(r) >> shift) & zmask;
  };

  // 1. histogram + boundaries. The tables lease stays live across the
  // recursion (start[] carries the bucket bounds) but is O(B) — the big
  // staging lease below is released before any child runs.
  sort_workspace::lease tab =
      ws.acquire((4 * B + 2) * sizeof(std::size_t) + kSlabAlign, opt.stats);
  std::span<std::size_t> counts = tab.carve<std::size_t>(B);
  std::span<std::size_t> start = tab.carve<std::size_t>(B + 1);
  std::span<std::size_t> cur = tab.carve<std::size_t>(B);
  std::span<std::size_t> cblk = tab.carve<std::size_t>(B + 1);
  distribute_options dopt;
  dopt.workspace = &ws;
  dopt.stats = opt.stats;
  if constexpr (RawKeys) {
    distribute_histogram_digits(std::span<const Rec>(a.data(), n), shift,
                                static_cast<Rec>(zmask), counts, dopt);
  } else {
    distribute_histogram(std::span<const Rec>(a.data(), n), B, bucket_of,
                         counts, dopt);
  }
  start[0] = 0;
  for (std::size_t z = 0; z < B; ++z) start[z + 1] = start[z] + counts[z];

  // Single-populated-digit chain: no permutation needed, descend directly.
  if (counts[bucket_of(a[0])] == n) {
    inplace_rec<RawKeys>(a, key, shift, opt, ws);
    return;
  }

  if (sort_stats* st = opt.stats; st != nullptr) {
    st->inplace_passes.fetch_add(1, std::memory_order_relaxed);
    st->num_distributions.fetch_add(1, std::memory_order_relaxed);
    st->distributed_records.fetch_add(n, std::memory_order_relaxed);
  }

  // 2-5. permute within the array.
  const std::size_t blk =
      std::max<std::size_t>(1, opt.block_bytes / sizeof(Rec));
  if (blk >= 4 &&
      n * sizeof(Rec) >= kInplaceBlockedFactor * B * opt.block_bytes) {
    inplace_blocked_permute(a, bucket_of, counts, start, cur, cblk, B, blk,
                            ws, opt.stats);
  } else {
    inplace_flag_permute(a, bucket_of, start, cur, B);
  }

  // 6. recurse per bucket on the next digit.
  if (shift == 0) return;
  par::parallel_for(
      0, B,
      [&](std::size_t z) {
        const std::size_t lo = start[z], sz = start[z + 1] - lo;
        if (sz > 1) inplace_rec<RawKeys>(a.subspan(lo, sz), key, shift, opt, ws);
      },
      1);
}

}  // namespace detail

// Unstable in-place MSD radix sort; records stay within `data`, scratch is
// O(2^gamma * block_bytes) per active node (<= 1/8 of the node's bytes).
// `key(r)` must yield an unsigned value. See the header comment for the
// stability contract.
template <typename Rec, typename KeyFn>
void inplace_sort(std::span<Rec> data, const KeyFn& key,
                  const inplace_sort_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<Rec>);
  const std::size_t n = data.size();
  if (n <= 1) return;
  inplace_sort_options o = opt;
  o.base_case = std::max<std::size_t>(o.base_case, 32);
  o.block_bytes = std::clamp<std::size_t>(o.block_bytes, 4 * sizeof(Rec),
                                          std::size_t{1} << 20);
  // Skip leading zero bits, like every MSD driver here.
  const std::uint64_t maxk = par::reduce_map(
      0, n, std::uint64_t{0},
      [&](std::size_t i) { return static_cast<std::uint64_t>(key(data[i])); },
      [](std::uint64_t x, std::uint64_t y) { return x < y ? y : x; });
  const int bits = bit_width_u64(maxk);
  if (o.gamma == 0) {
    // Auto digit width: 10-bit digits (1024 buckets, trailing digit takes
    // the remainder). Measured against 8-bit digits at n = 1e7 this wins
    // 1.5-2x on wide-range keys — fewer passes on <= 30-bit keys, and even
    // at the same pass count the 1024-way fan-out pushes second-level nodes
    // near the base case, where raw keys finish in the sorting network.
    // Wider than 10 the staging area falls out of L2 and classification
    // thrashes (measured ~1.6x slower at 11).
    o.gamma = std::min(bits, 10);
  }
  o.gamma = std::clamp(o.gamma, 1, 16);
  sort_workspace local_ws;
  sort_workspace& ws = o.workspace != nullptr ? *o.workspace : local_ws;
  // Raw-key mode: the records ARE the radix keys (identity functor on a
  // u32/u64 span), so the histogram can read digits straight off the array
  // (SIMD) and tiny base cases can use the in-register network.
  constexpr bool raw = (std::is_same_v<Rec, std::uint32_t> ||
                        std::is_same_v<Rec, std::uint64_t>) &&
                       std::is_same_v<std::remove_cvref_t<KeyFn>, self_key>;
  detail::inplace_rec<raw>(data, key, bits, o, ws);
}

template <typename K>
  requires std::is_unsigned_v<K>
void inplace_sort(std::span<K> data, const inplace_sort_options& opt = {}) {
  inplace_sort(data, self_key{}, opt);
}

}  // namespace dovetail
