// The MSD segment driver: one word-by-word loop behind every sort and
// every rank-window query, and the layer that lifts the front door's
// 64-bit encoded-key ceiling.
//
// A key wider than one radix word (key_codec.hpp's multi-word form:
// pair<u64, u64>, __int128, fixed-prefix strings, >64-bit composites) is a
// lexicographic sequence of u64 words. Multi-round distribution over such
// words is the classic answer in the multicore integer-sorting literature
// (Gerbessiotis, "Integer sorting on multicores"); the paper's DTSort
// already embodies the per-word half of it — distribute on high digits,
// recurse within equal groups. This driver stacks that idea one level up,
// with a rank-window predicate deciding which segments recurse (all of
// them for a sort, the window straddlers and insiders for a query; see
// rank_select.hpp):
//
//   1. Word 0 of the whole array: a sort runs it through the EXISTING
//      dispatcher (detail::sort_unsigned, dispatch.hpp) — the input
//      sketch, the dispatch policy and every kernel apply unchanged, per
//      word; a query prunes it with the rank_selector, which sorts only
//      the buckets inside a window with that same step.
//   2. Split into maximal equal-word segments. Only segments with >= 2
//      records survive; a word-0 pass that separates every key (the common
//      case for hashed high words) ends the sort right here.
//   3. Refine each segment on the next word — segments inside a window go
//      back through the dispatcher, concurrently when a round has several
//      of them and several workers (each in-flight sort on its own
//      workspace_pool arena: one in-flight sort per workspace), else one
//      at a time through the caller's workspace; straddlers are pruned by
//      the selector; segments outside every window are dropped; segments
//      at or below dispatch_policy::wide_segment_base_case finish in one
//      sequential step each, in parallel across segments — a cached-word
//      radix finish for string keys (step 4), one stable comparison sort
//      over all remaining words otherwise. Repeat per word.
//   4. Non-exhaustive codecs still owe the order beyond the words. String
//      keys (string_prefix_codec, key_codec.hpp) keep refining by radix,
//      PARADIS/RADULS-style, on encode-once records (enc_words): each
//      still-tied segment above the base case takes ONE refill pass over
//      its keys (refill_words, in parallel blocks) that finds the keys'
//      earliest divergence from the segment's first key, merged exactly
//      so the decision never depends on the schedule. A divergence inside
//      the next 7-byte window sorts the segment on the words the pass
//      wrote into the records' slots, through the same refinement; a
//      later one skips every window the keys share (a long shared prefix
//      walks forward one scan, no radix round); none drops the segment
//      (keys equal to the end). Round after round, until every segment
//      separates, ends, or shrinks to the base case. Small segments
//      finish from the current offset by radix_finish_words — a
//      sequential MSD pass that starts on the words already in the slots
//      and refills further ones with the same routine, sorted by
//      detail::radix_finish through the workspace's record buffer. No
//      comparison sort ever runs on an above-base-case segment
//      (sort_stats::wide_tiebreak_fallbacks stays 0) — for queries over
//      string keys exactly as for sorts. Every other
//      non-exhaustive codec (a user key_codec) gets one stable comparison
//      sort on the TRUE keys per residual segment (the tie-break). Both
//      routes yield the full key order.
//
// Stability: every pass is stable and confined to one segment, so the
// whole sort is stable and every query window holds its slice of the
// stable order. Scratch: the segment tables and the encode-once
// (encoded words, index) record array lease workspace slabs, and the
// radix finish scatters through the workspace's record buffer (idle
// between the dispatcher's sorts) — warm calls allocate nothing from the
// workspace, continuation rounds included (they reuse the same tables
// and rewrite the word array in place). The
// refine work lands in sort_stats as the refine_rounds / wide_segments /
// wide_continuation_* / wide_tiebreak_fallbacks counters and the
// wide_max_byte_offset mark.
//
// Layering: this header sits on the single-word dispatcher (dispatch.hpp)
// and the rank-window selector (rank_select.hpp), and is included by the
// typed front door (auto_sort.hpp), whose one router sends every sort and
// every query (order_stats.hpp) here — dovetail::sort / sort_by_key / rank
// and the queries accept wide keys transparently.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/rank_select.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"

namespace dovetail {

namespace detail {

// A half-open segment [lo, hi) of the array being refined. A plain struct
// (not std::pair, which libstdc++ makes non-trivially-copyable) so the
// segment tables can live in workspace slabs.
struct wide_seg {
  std::size_t lo;
  std::size_t hi;
};

// Append the maximal runs of equal word `w` within [lo, hi) — already
// sorted by that word — that have >= 2 records to out[nout...]; returns
// the new count. Cut positions land in the workspace-leased `cut_scratch`
// (capacity >= hi - lo) through par::run_starts, so the hot
// zero-refinement case (word 0 separates nearly every key) costs no heap
// traffic proportional to n.
template <typename Rec, typename WordOf>
std::size_t append_word_runs(std::span<const Rec> a, std::size_t lo,
                             std::size_t hi, std::size_t w,
                             const WordOf& word_of,
                             std::span<std::size_t> cut_scratch,
                             std::span<wide_seg> out, std::size_t nout) {
  const std::span<const std::size_t> cuts = par::run_starts(
      lo, hi,
      [&](std::size_t p) { return word_of(a[p - 1], w) != word_of(a[p], w); },
      [&](std::size_t) { return cut_scratch; });
  std::size_t prev = lo;
  const auto flush = [&](std::size_t end) {
    if (end - prev >= 2) out[nout++] = {prev, end};
    prev = end;
  };
  for (const std::size_t c : cuts) flush(c);
  flush(hi);
  return nout;
}

// The comparison finish from word `from`: the remaining words, then — for
// a non-exhaustive codec — the true-key tie. The coarsening contract
// (key_codec.hpp) makes this order equal to the true key order. Words go
// first even for prefix codecs: a word read is a cached array access on
// the encode-once path, while `tie` may chase a pointer into
// variable-length key storage. Shared by wide_refine's small
// segments and the stream merger's codec order (stream_sort.hpp).
template <typename WordOf, typename TieLess>
auto words_then_tie(const WordOf& word_of, std::size_t from,
                    std::size_t word_count, bool exhaustive,
                    const TieLess& tie) {
  return [&word_of, &tie, from, word_count, exhaustive](const auto& a,
                                                        const auto& b) {
    for (std::size_t j = from; j < word_count; ++j) {
      const std::uint64_t wa = word_of(a, j);
      const std::uint64_t wb = word_of(b, j);
      if (wa != wb) return wa < wb;
    }
    return exhaustive ? false : tie(a, b);
  };
}

// The true-key order of records whose key is key_of(record) — consulted
// only by non-exhaustive codecs (an exhaustive codec's equal words already
// imply equal keys, so the tie never orders anything).
template <typename WT, typename KeyOf>
auto true_key_less(const KeyOf& key_of) {
  return [&key_of]([[maybe_unused]] const auto& a,
                   [[maybe_unused]] const auto& b) {
    if constexpr (WT::exhaustive)
      return false;
    else
      return key_of(a) < key_of(b);
  };
}

// Byte-level helpers for the string continuation, which reads the true
// keys as raw bytes (std::string_view order is the string codec's order).
//
// string_first_divergence(a, b, from, cap): smallest byte index >= from
// where the two keys diverge — differing content bytes, or the end of the
// shorter key (a strict prefix diverges where it ends) — scanning no
// further than `cap` (returns cap when tied through it), npos when the
// keys are equal. Equivalence to the codec-word view: within
// [from, min_d) contents match and neither key ends, so every 7+1 word
// there is identical with count 7; the word covering min_d differs (in
// content or in the count byte).
inline std::size_t string_first_divergence(std::string_view a,
                                           std::string_view b,
                                           std::size_t from,
                                           std::size_t cap) {
  const std::size_t lim = std::min({a.size(), b.size(), cap});
  std::size_t i = from;
  if constexpr (std::endian::native == std::endian::little) {
    while (i + 8 <= lim) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, a.data() + i, 8);
      std::memcpy(&y, b.data() + i, 8);
      if (x != y)
        return i + static_cast<std::size_t>(std::countr_zero(x ^ y)) / 8;
      i += 8;
    }
  }
  for (; i < lim; ++i)
    if (a[i] != b[i]) return i;
  if (lim == cap) return cap;  // verified tied through the cap
  return a.size() == b.size() ? std::string_view::npos : lim;
}

// Software prefetch for the refill pass, which chases record -> key
// object -> key bytes: the key object kPrefetchKeyAhead records ahead
// and, for byte keys, the key bytes at `byte_offset` (where the pass
// reads) kPrefetchBytesAhead records ahead, whose object an earlier call
// already fetched. Keys returned by value
// are prefetched only when they are views (constructing any other key
// just to prefetch it costs the miss itself).
inline constexpr std::size_t kPrefetchKeyAhead = 16;
inline constexpr std::size_t kPrefetchBytesAhead = 8;

template <typename Rec, typename KeyOf>
void prefetch_key_ahead(std::span<const Rec> seg, std::size_t i,
                        const KeyOf& key_of, std::size_t byte_offset) {
#if defined(__GNUC__)
  using KR = std::invoke_result_t<const KeyOf&, const Rec&>;
  constexpr bool kRef = std::is_lvalue_reference_v<KR>;
  constexpr bool kBytes =
      std::is_convertible_v<KR, std::string_view> &&
      (kRef || std::is_same_v<std::remove_cvref_t<KR>, std::string_view>);
  if constexpr (kRef) {
    if (i + kPrefetchKeyAhead < seg.size())
      __builtin_prefetch(std::addressof(key_of(seg[i + kPrefetchKeyAhead])));
  }
  if constexpr (kBytes) {
    if (i + kPrefetchBytesAhead < seg.size()) {
      const std::string_view k(key_of(seg[i + kPrefetchBytesAhead]));
      __builtin_prefetch(k.data() + std::min(byte_offset, k.size()));
    }
  }
#else
  (void)seg, (void)i, (void)key_of, (void)byte_offset;
#endif
}

// The refill pass scans a segment in blocks of this many keys, in
// parallel.
inline constexpr std::size_t kProbeBlock = 2048;

// Lower `m` to `v` when v is smaller; returns the new minimum.
inline std::size_t fetch_min(std::atomic<std::size_t>& m, std::size_t v) {
  std::size_t cur = m.load(std::memory_order_relaxed);
  while (v < cur &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  return std::min(cur, v);
}

// The string continuation's one refill routine over a segment of
// encode-once records (enc_words) whose keys are known to tie through byte
// `off`: it chases each record's true key, prefetched ahead, writes every
// word slot j with the codec's word at byte off + 7j, and returns the
// earliest byte >= off where some key diverges from key 0 — differing
// content or an end — or npos when every key equals key 0 to the end.
// Each key's divergence scan stops at the earliest divergence found so
// far, and no key is scanned once it falls inside the first window (the
// answer is "split" by then), so the result is the exact minimum, or some
// value below off + 7, whatever the schedule: the callers' split / skip /
// drop decision never depends on it. Each key is scanned while it is
// alive: a key functor may return its key by value.
//
// Sequentially (`parallel` false: the radix finish) every key is chased
// once, and its words are written whatever the answer. In parallel —
// blocks of kProbeBlock keys under par::parallel_for, the minimum merged
// through an atomic — words are written only once the answer is known to
// be a split, the one case whose caller sorts on them: a segment that is
// dropped or deferred costs a scan and no writes. A block that learns of
// the split writes its keys, the few it already scanned first (still in
// cache); only a block that scanned all its keys before any split was
// found is written again after the blocks join.
template <typename WT, typename R, typename KeyOf>
std::size_t refill_words(std::span<R> seg, std::size_t off,
                         const KeyOf& key_of, bool parallel) {
  const std::size_t n = seg.size();
  const std::size_t decided = off + WT::codec::word_bytes;
  auto&& k0 = key_of(seg[0]);
  const std::string_view v0(k0);
  std::atomic<std::size_t> min_d{std::string_view::npos};
  // Chases key i, writes its words when `write`, and returns its
  // divergence from key 0 below `cap` (cap itself, unscanned, once
  // cap < decided).
  const auto refill = [&](std::size_t i, bool write, std::size_t cap) {
    prefetch_key_ahead(std::span<const R>(seg), i, key_of, off);
    auto&& k = key_of(seg[i]);
    const std::string_view v(k);
    if (write)
      for (std::size_t j = 0; j < WT::word_count; ++j)
        seg[i].word[j] = WT::codec::encode_word(v, j, off);
    return cap < decided ? cap : string_first_divergence(v0, v, off, cap);
  };
  // Keys [lo, hi); true when it scanned them all before a split was
  // known, writing none of them in parallel.
  const auto block = [&](std::size_t lo, std::size_t hi) {
    std::size_t cap = min_d.load(std::memory_order_relaxed);
    std::size_t i = lo;
    for (; i < hi && cap >= decided; ++i) {
      const std::size_t d = refill(i, !parallel, cap);
      cap = d < cap ? fetch_min(min_d, d)
                    : std::min(cap, min_d.load(std::memory_order_relaxed));
    }
    if (cap >= decided) return true;
    for (std::size_t j = parallel ? lo : i; j < hi; ++j) refill(j, true, 0);
    return false;
  };
  if (!parallel) {
    block(0, n);
    return min_d.load(std::memory_order_relaxed);
  }
  const std::size_t nblocks = (n + kProbeBlock - 1) / kProbeBlock;
  const auto lo_of = [](std::size_t b) { return b * kProbeBlock; };
  const auto hi_of = [n](std::size_t b) {
    return std::min(n, (b + 1) * kProbeBlock);
  };
  std::vector<char> unwritten(nblocks);
  par::parallel_for(
      0, nblocks,
      [&](std::size_t b) { unwritten[b] = block(lo_of(b), hi_of(b)); }, 1);
  const std::size_t d = min_d.load(std::memory_order_relaxed);
  if (d < decided &&
      std::find(unwritten.begin(), unwritten.end(), 1) != unwritten.end())
    par::parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          if (unwritten[b])
            for (std::size_t i = lo_of(b); i < hi_of(b); ++i)
              refill(i, true, 0);
        },
        1);
  return d;
}

// Segments at or below this size finish with an insertion sort on their
// key suffixes.
inline constexpr std::size_t kFinishInsertion = 24;

// The cached-word radix finish of one segment of encode-once string
// records whose word slots hold the words at bytes off, off + 7, ... and
// whose keys tie through word f of them, i.e. through byte off + 7f: a
// sequential MSD pass, one codec word per level. A level past the cached
// slots first refills every slot from byte off + 7f with refill_words, so
// one key chase serves word_count levels, and takes the refill's
// divergence: keys equal to the end finish the segment there, and
// windows every key shares are skipped without a sort. Each level sorts
// the segment by its word with detail::radix_finish (dovetail_sort.hpp,
// stable, scattering through `twin`) and cuts it into equal-word runs.
// Runs whose word ends the keys (word_continues false) hold equal keys
// and are done; the others go one word deeper — the largest by looping,
// the rest by recursion, so the depth stays below log2 of the segment.
// Runs of at most kFinishInsertion records take a stable insertion sort
// on the key suffixes. The result is the stable true-key order, the order
// a comparison finish gives, at one cache-resident word read per record
// per level instead of two key chases per comparison.
template <typename WT, typename R, typename KeyOf>
void radix_finish_words(std::span<R> seg, R* twin, std::size_t off,
                        std::size_t f, const KeyOf& key_of) {
  constexpr std::size_t kStride = WT::codec::word_bytes;
  for (;;) {
    const std::size_t n = seg.size();
    if (n <= kFinishInsertion) {
      // Suffixes past the verified-tied bytes, in string_view order.
      const std::size_t tied = off + kStride * f;
      const auto suffix_less = [&](const R& a, const R& b) {
        auto&& ka = key_of(a);
        auto&& kb = key_of(b);
        std::string_view sa(ka);
        std::string_view sb(kb);
        sa.remove_prefix(std::min(tied, sa.size()));
        sb.remove_prefix(std::min(tied, sb.size()));
        return sa < sb;
      };
      for (std::size_t i = 1; i < n; ++i) {
        const R x = seg[i];
        std::size_t j = i;
        for (; j > 0 && suffix_less(x, seg[j - 1]); --j) seg[j] = seg[j - 1];
        seg[j] = x;
      }
      return;
    }
    if (f >= WT::word_count) {
      off += kStride * f;
      const std::size_t d = refill_words<WT>(seg, off, key_of, false);
      if (d == std::string_view::npos) return;
      f = (d - off) / kStride;
      if (f != 0) continue;
    }
    radix_finish(seg.data(), twin, n, true,
                 [f](const R& r) { return r.word[f]; });
    std::size_t big_lo = 0;
    std::size_t big_hi = 0;
    for (std::size_t lo = 0; lo < n;) {
      const std::uint64_t wd = seg[lo].word[f];
      std::size_t hi = lo + 1;
      while (hi < n && seg[hi].word[f] == wd) ++hi;
      if (hi - lo >= 2 && WT::codec::word_continues(wd)) {
        // Keep the largest continuing run for the loop; recurse on the
        // other one.
        std::size_t rlo = lo;
        std::size_t rhi = hi;
        if (rhi - rlo > big_hi - big_lo) {
          std::swap(rlo, big_lo);
          std::swap(rhi, big_hi);
        }
        if (rhi - rlo >= 2)
          radix_finish_words<WT>(seg.subspan(rlo, rhi - rlo), twin + rlo,
                                 off, f + 1, key_of);
      }
      lo = hi;
    }
    if (big_hi == big_lo) return;
    seg = seg.subspan(big_lo, big_hi - big_lo);
    twin += big_lo;
    ++f;
  }
}

// The MSD segment driver — the one word-by-word loop behind every sort and
// every rank-window query, over records whose keys have the word view WT
// (wide_key_traits). `word_of(rec, w)` yields word w of a record's key and
// `key_of(rec)` its true key, consulted only when WT is not exhaustive:
// the string continuation reads its bytes, any other codec's tie-break
// compares it. Precondition of the codec contract: key order implies
// lexicographic word order (coarsening), so within an equal-prefix segment
// the true-key order alone is a refinement of every remaining word.
//
// `windows` (sorted, disjoint; window_fate in rank_select.hpp) say which
// segments recurse: every round decides per segment — wholly inside a
// window, sort it on word w through the adaptive dispatcher
// (sort_unsigned, one in-flight sort per workspace) and split it into
// equal-word runs; straddling a window boundary, prune it on word w with
// the rank_selector, which sorts its covered buckets with that same step
// and hands back the buckets still tied on w; outside every window, drop
// it. A sort passes the single window [0, n), so every segment is inside.
// Single-word keys are the one-word case: the root step alone.
//
// Large segments of a round are sorted in parallel when there are several
// and more than one worker, each in-flight sort on a workspace checked out
// of opt.pool (warm after the first round: zero pool-level allocation);
// otherwise serially through the caller's workspace — pool arenas would
// only duplicate its warm arena. Returns the kernel of the root (word-0,
// whole-input) sort, or std_sort when the root was a selection.
template <typename WT, typename Rec, typename WordOf, typename KeyOf>
sort_kernel wide_refine(std::span<Rec> data, const WordOf& word_of,
                        const KeyOf& key_of,
                        std::span<const rank_window> windows,
                        const auto_sort_options& opt) {
  constexpr std::size_t word_count = WT::word_count;
  constexpr bool exhaustive = WT::exhaustive;
  constexpr std::size_t npos = std::string_view::npos;
  const auto tie_less = true_key_less<WT>(key_of);
  const std::size_t n = data.size();
  const std::size_t base_case = opt.policy.wide_segment_base_case;
  sort_workspace& ws = *opt.workspace;
  sort_stats* const stats = opt.stats;
  // Pool for the concurrent large-segment sorts: the caller's, else the
  // process-wide shared pool.
  workspace_pool& pool =
      opt.pool != nullptr ? *opt.pool : workspace_pool::shared();
  std::uint64_t rounds = 0;
  std::uint64_t segments = 0;
  std::uint64_t cont_rounds = 0;
  std::uint64_t cont_segments = 0;
  std::uint64_t max_offset = 0;
  std::uint64_t tiebreak_fallbacks = 0;

  // One segment's sort on word w through the front door, on workspace
  // `seg_ws`.
  const auto sort_seg = [&](std::size_t lo, std::size_t hi, std::size_t w,
                            sort_workspace& seg_ws) {
    auto_sort_options seg_opt = opt;
    seg_opt.workspace = &seg_ws;
    return sort_unsigned(
        data.subspan(lo, hi - lo),
        [&word_of, w](const Rec& r) { return word_of(r, w); }, seg_opt);
  };

  // Segment tables, leased on the first split: disjoint segments of >= 2
  // records, so at most n/2; plus the cut-position scratch for the split
  // scans (< n cuts). Words after the current one exist only for wide or
  // prefix codecs; a single-word key never splits.
  const bool refines = word_count > 1 || !exhaustive;
  const std::size_t seg_cap = n / 2 + 1;
  std::span<wide_seg> cur, next;
  std::span<std::size_t> cut_scratch;
  sort_workspace::lease cur_lease, next_lease, cut_lease;
  std::size_t ncur = 0;
  std::size_t nnext = 0;
  const auto split = [&](std::size_t lo, std::size_t hi, std::size_t w) {
    if (!refines) return;
    if (cut_scratch.empty()) {
      cur_lease = ws.acquire_array<wide_seg>(seg_cap, cur, stats);
      next_lease = ws.acquire_array<wide_seg>(seg_cap, next, stats);
      cut_lease = ws.acquire_array<std::size_t>(n, cut_scratch, stats);
    }
    nnext = append_word_runs(std::span<const Rec>(data.data(), n), lo, hi, w,
                             word_of, cut_scratch, next, nnext);
  };
  // Prune a straddling segment on word w; its surviving runs land in
  // `next` like any split.
  const auto select = [&](std::size_t lo, std::size_t hi, std::size_t w) {
    rank_selector(
        data, [&word_of, w](const Rec& r) { return word_of(r, w); }, windows,
        opt.policy.select_base_case, ws, stats,
        [&, w](std::size_t blo, std::size_t bhi) {
          sort_seg(blo, bhi, w, ws);
          split(blo, bhi, w);
        },
        [&, w](std::size_t blo, std::size_t bhi) { split(blo, bhi, w); })
        .run(lo, hi);
  };

  // The root round.
  sort_kernel root = sort_kernel::std_sort;
  if (covers_all(windows, n)) {
    root = sort_seg(0, n, 0, ws);
    if (n >= 2) split(0, n, 0);
  } else {
    select(0, n, 0);
  }
  std::swap(cur, next);
  ncur = nnext;

  const auto seg_granularity = [](std::size_t count) {
    return std::max<std::size_t>(
        1, count / (8 * static_cast<std::size_t>(par::effective_workers())));
  };

  // Finish, in parallel across segments, every segment [lo, hi) of `cur`
  // of at most `limit` records that some window still needs, with
  // finish_one(lo, hi).
  const auto finish_segments = [&](std::size_t limit,
                                   const auto& finish_one) {
    par::parallel_for(
        0, ncur,
        [&](std::size_t i) {
          const auto [lo, hi] = cur[i];
          if (hi - lo <= limit &&
              fate_of(windows, lo, hi) != window_fate::outside)
            finish_one(lo, hi);
        },
        seg_granularity(ncur));
  };
  // The small-segment finish of a round whose segments tie through word f
  // of the words in the records' slots, which a string key's records hold
  // from byte `filled` on (0: the materialized prefix): for string keys
  // the cached-word radix finish, with the workspace's record buffer (idle
  // between the dispatcher's sorts, which size it for n records anyway) as
  // the twin, else one stable comparison sort over the remaining words and
  // the true-key tie.
  const auto finish_small = [&](std::size_t filled, std::size_t f) {
    if constexpr (WT::offset_encodable) {
      const std::span<Rec> twin = ws.template record_buffer<Rec>(n, stats);
      finish_segments(base_case, [&](std::size_t lo, std::size_t hi) {
        radix_finish_words<WT>(data.subspan(lo, hi - lo), twin.data() + lo,
                               filled, f, key_of);
      });
    } else {
      finish_segments(base_case, [&](std::size_t lo, std::size_t hi) {
        stable_segment_sort(
            data.subspan(lo, hi - lo),
            words_then_tie(word_of, f, word_count, exhaustive, tie_less));
      });
    }
  };

  // Indices into `cur` of this round's above-base-case segments inside a
  // window / straddling one: at most n / base_case entries, so the vectors
  // stay tiny next to the O(n) workspace tables above.
  std::vector<std::size_t> large;
  std::vector<std::size_t> straddling;

  // Sort (or prune) every above-base-case segment of `cur` on word w and
  // split it on that word; the surviving runs become the new `cur` table.
  // Shared by the prefix rounds and the continuation rounds — append order
  // is identical on both schedules below, so the next round's table (and
  // therefore the output) does not depend on the pool.
  const auto step_round = [&](std::size_t w) {
    large.clear();
    straddling.clear();
    for (std::size_t i = 0; i < ncur; ++i) {
      const auto [lo, hi] = cur[i];
      if (hi - lo <= base_case) continue;
      const window_fate f = fate_of(windows, lo, hi);
      if (f == window_fate::inside) large.push_back(i);
      if (f == window_fate::straddles) straddling.push_back(i);
    }
    nnext = 0;
    if (large.size() > 1 && par::effective_workers() > 1) {
      // Concurrent in-flight sorts, one pool workspace each (the caller's
      // `ws` cannot serve them all: one in-flight sort per workspace).
      // Each segment sort still parallelises internally — work stealing
      // balances rounds whose segments differ wildly in size. The splits
      // run as a second phase, sequential in segment order.
      par::parallel_for(
          0, large.size(),
          [&](std::size_t j) {
            const auto [lo, hi] = cur[large[j]];
            workspace_pool::handle h = pool.checkout();
            sort_seg(lo, hi, w, *h);
          },
          1);
      for (const std::size_t i : large) split(cur[i].lo, cur[i].hi, w);
    } else {
      // Serial: one segment at a time through the caller's warm arena,
      // splitting each immediately after its sort while its records are
      // still cache-hot (a deferred split phase re-reads the segment cold
      // — measurably slower on fat segments).
      for (const std::size_t i : large) {
        sort_seg(cur[i].lo, cur[i].hi, w, ws);
        split(cur[i].lo, cur[i].hi, w);
      }
    }
    // At most two straddlers per window, pruned one at a time through the
    // caller's workspace.
    for (const std::size_t i : straddling) select(cur[i].lo, cur[i].hi, w);
    std::swap(cur, next);
    ncur = nnext;
  };

  // The refinement rounds of the materialized words. Each round's small
  // segments finish ALL remaining words (and the true-key order beyond
  // them when the codec is a prefix) with finish_small, in parallel across
  // segments; they never re-enter the refinement. Large segments go back
  // through the front door (or the selector).
  for (std::size_t w = 1; w < word_count && ncur > 0; ++w) {
    ++rounds;
    segments += ncur;
    finish_small(0, w);
    step_round(w);
  }

  // Residual segments are equal on every word so far. An exhaustive codec
  // is done (equal words == equal keys); a non-exhaustive codec owes the
  // order beyond the words.
  if constexpr (WT::offset_encodable) {
    // MSD continuation of string keys: keep refining by radix on the next
    // 7-byte window of the true keys, window after window. Each round:
    // still-tied segments at or below the base case finish with
    // finish_small from the current offset; larger ones take one
    // refill_words pass at the offset, which finds their keys' earliest
    // divergence and, for a split, writes their next words. A window every
    // key shares
    // costs exactly that pass: segments whose keys continue past it are
    // deferred to the next offset (long shared prefixes walk forward one
    // scan per window, never paying a radix round that would not split
    // anything), and segments whose keys end inside it are dropped (all
    // equal, stability keeps their order). Only windows where keys
    // actually differ re-enter the word rounds, on the words the pass just
    // wrote. Distinct keys differ at some byte or end at different
    // lengths, so every segment eventually splits or ends: the loop
    // terminates, and no above-base-case segment ever meets a comparison
    // sort (tiebreak_fallbacks stays 0 by construction).
    constexpr std::size_t kStride = WT::codec::word_bytes;
    std::span<wide_seg> deferred;
    sort_workspace::lease def_lease =
        ws.acquire_array<wide_seg>(seg_cap, deferred, stats);
    std::size_t offset = kStride * word_count;  // past the prefix words
    // Where the words in the slots of every record of a small segment
    // start: the prefix in the first round, later the last split round's
    // refill (small segments only come out of its splits, and a round
    // with splits advances `offset` one stride past it).
    std::size_t filled = 0;
    while (ncur > 0) {
      std::size_t nsmall = 0;
      for (std::size_t i = 0; i < ncur; ++i)
        if (cur[i].hi - cur[i].lo <= base_case) ++nsmall;
      if (nsmall > 0) {
        ++rounds;
        segments += nsmall;
        // Every segment here is key-equal through byte `offset` (actives
        // re-enter one stride past the window they sorted; deferred
        // segments were verified tied at least that far), so the finish
        // orders suffixes only — under a long shared prefix, the true-key
        // order from byte 0 would re-scan the whole prefix per comparison.
        finish_small(filled, (offset - filled) / kStride);
      }
      // Refill each large segment some window needs: a divergence inside
      // the window splits it (sort it now), a later one defers it that
      // many whole windows, none drops it (keys equal to the end).
      std::size_t m = 0;
      std::size_t ndef = 0;
      std::size_t min_skip = npos;
      for (std::size_t i = 0; i < ncur; ++i) {
        const auto [lo, hi] = cur[i];
        if (hi - lo <= base_case ||
            fate_of(windows, lo, hi) == window_fate::outside)
          continue;
        const std::size_t d =
            refill_words<WT>(data.subspan(lo, hi - lo), offset, key_of, true);
        if (d == npos) continue;
        const std::size_t skip = (d - offset) / kStride;
        if (skip == 0) {
          next[m++] = cur[i];
        } else {
          deferred[ndef++] = cur[i];
          min_skip = std::min(min_skip, skip);
        }
      }
      std::swap(cur, next);
      ncur = m;
      if (m + ndef == 0) break;
      ++cont_rounds;
      cont_segments += m + ndef;
      max_offset = static_cast<std::uint64_t>(offset + kStride);
      if (m > 0) {
        // The refilled window runs the same machinery as the prefix: word
        // 0 per segment (every survivor is above the base case by
        // construction).
        filled = offset;
        ++rounds;
        segments += ncur;
        step_round(0);
      }
      // Deferred segments rejoin the table for the next window's refill.
      // When every surviving segment is deferred, jump the smallest
      // verified-tied distance in one step instead of re-scanning window
      // by window (a round with active segments advances one stride, so
      // actives re-enter at the very next window).
      for (std::size_t j = 0; j < ndef; ++j) cur[ncur++] = deferred[j];
      offset += kStride * ((m == 0 && ndef > 0) ? min_skip : 1);
    }
  } else if (ncur > 0 && !exhaustive) {
    // The comparison tie-break — the route for every non-exhaustive codec
    // but the string codec: segments here share their whole prefix, so
    // each is one sequential comparison sort — parallel across segments
    // only. Above-base-case segments finished here are the degenerate case
    // the continuation removes for string keys — counted so tests and
    // benchmarks can tell the two routes apart.
    ++rounds;
    segments += ncur;
    for (std::size_t i = 0; i < ncur; ++i)
      if (cur[i].hi - cur[i].lo > base_case &&
          fate_of(windows, cur[i].lo, cur[i].hi) != window_fate::outside)
        ++tiebreak_fallbacks;
    finish_segments(n, [&](std::size_t lo, std::size_t hi) {
      stable_segment_sort(data.subspan(lo, hi - lo), tie_less);
    });
  }
  if (stats != nullptr) {
    stats->refine_rounds.fetch_add(rounds, std::memory_order_relaxed);
    stats->wide_segments.fetch_add(segments, std::memory_order_relaxed);
    stats->wide_continuation_rounds.fetch_add(cont_rounds,
                                              std::memory_order_relaxed);
    stats->wide_continuation_segments.fetch_add(cont_segments,
                                                std::memory_order_relaxed);
    sort_stats::note_max(stats->wide_max_byte_offset, max_offset);
    stats->wide_tiebreak_fallbacks.fetch_add(tiebreak_fallbacks,
                                             std::memory_order_relaxed);
  }
  return root;
}

// ---------------------------------------------------------------------------
// Entry points for the typed front door (auto_sort.hpp), which has already
// installed the per-call preamble: `opt.workspace` is the call's workspace.
// Both run the segment driver over `windows` — [0, n) for a sort — and
// return its root kernel.

// The encode-once records, built by detail::encode_once (auto_sort.hpp):
// (encoded key, source index) for single-word keys — the 32-bit record
// whenever the encoded key and the index both fit, half the bytes per
// scatter pass — and every word of a W-word key materialized up front
// with one sequential read of each key, so the refine rounds and the word
// half of every comparison run over a cache-resident array: the true key
// is touched again only by a prefix codec's tie-break or continuation and
// by the caller's final gather.
struct enc_idx32 {
  std::uint32_t key;
  std::uint32_t idx;
};
struct enc_idx64 {
  std::uint64_t key;
  std::uint64_t idx;
};
template <std::size_t W>
struct enc_words {
  std::uint64_t word[W];
  std::uint64_t idx;
};

// Refine encode-once records R of key type K; key_at(idx) is the true key
// of the record with source index idx. The only route of string keys.
template <typename K, typename R, typename KeyAt>
sort_kernel refine_encoded(std::span<R> recs, const KeyAt& key_at,
                           std::span<const rank_window> windows,
                           const auto_sort_options& opt) {
  using WT = wide_key_traits<K>;
  // A single-word record keeps its native key width (the 32-bit record
  // sorts 32-bit keys).
  const auto word_of = [](const R& r, [[maybe_unused]] std::size_t w) {
    if constexpr (WT::single_word)
      return r.key;
    else
      return r.word[w];
  };
  const auto key_of = [&key_at](const R& r) -> decltype(auto) {
    return key_at(static_cast<std::size_t>(r.idx));
  };
  return wide_refine<WT>(recs, word_of, key_of, windows, opt);
}

// Fused refine — trivially copyable records under a cheap codec other
// than the string codec: the records are scattered as-is and each word
// pass re-derives its radix key from the record, with no memory beyond
// the dispatcher's own scratch.
template <typename Rec, typename KeyFn>
sort_kernel refine_fused(std::span<Rec> data, const KeyFn& key,
                         std::span<const rank_window> windows,
                         const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  using WT = wide_key_traits<K>;
  static_assert(!WT::offset_encodable,
                "string keys continue on encode-once records");
  const auto word_of = [&key](const Rec& r, std::size_t w) {
    return WT::word(key(r), w);
  };
  return wide_refine<WT>(data, word_of, key, windows, opt);
}

}  // namespace detail

}  // namespace dovetail
