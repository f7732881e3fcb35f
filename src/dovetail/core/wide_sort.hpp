// Segmented-MSD refine driver for wide (multi-word) keys — the layer that
// lifts the front door's 64-bit encoded-key ceiling.
//
// A key wider than one radix word (key_codec.hpp's multi-word form:
// pair<u64, u64>, __int128, fixed-prefix strings, >64-bit composites) is a
// lexicographic sequence of u64 words. Multi-round distribution over such
// words is the classic answer in the multicore integer-sorting literature
// (Gerbessiotis, "Integer sorting on multicores"); the paper's DTSort
// already embodies the per-word half of it — distribute on high digits,
// recurse within equal groups. This driver stacks that idea one level up:
//
//   1. Sort the whole array by word 0 through the EXISTING dispatcher
//      (detail::sort_unsigned, dispatch.hpp): the input sketch, the
//      dispatch policy and every kernel apply unchanged, per word.
//   2. Split into maximal equal-word segments. Only segments with >= 2
//      records survive; a word-0 pass that separates every key (the common
//      case for hashed high words) ends the sort right here.
//   3. Refine each segment on the next word — large segments go back
//      through the dispatcher, concurrently when a round has several of
//      them and several workers (each in-flight sort on its own
//      workspace_pool arena: one in-flight sort per workspace), else one
//      at a time through the caller's workspace; segments at or below
//      dispatch_policy::wide_segment_base_case finish with ONE stable
//      comparison sort over all remaining words, in parallel across
//      segments. Repeat per word.
//   4. Non-exhaustive codecs still owe the order beyond the words. An
//      OFFSET-capable codec (key_codec.hpp's continuation form — the
//      string codecs) keeps refining by radix, PARADIS/RADULS-style:
//      still-tied segments above the base case PROBE the next
//      continuation_stride-byte window of the true keys first — a window
//      every key shares is skipped with that one early-exit scan (a long
//      shared prefix walks forward one cheap scan per window, no radix
//      round), a window where the keys end while equal drops the segment
//      — and only windows where keys differ re-encode and re-enter the
//      same refinement, round after round, until every segment
//      separates, ends, or shrinks to the comparison base case. No
//      comparison sort ever runs on an above-base-case segment
//      (sort_stats::wide_tiebreak_fallbacks stays 0). A non-exhaustive
//      codec WITHOUT the offset form (a user key_codec) gets one stable
//      comparison sort on the TRUE keys per residual segment (the
//      tie-break). Both routes yield full lexicographic order.
//
// Stability: every pass is stable and confined to one segment, so the
// whole sort is stable. Scratch: the segment tables and the encode-once
// (encoded words, index) record array lease workspace slabs — warm calls
// allocate nothing from the workspace, continuation rounds included (they
// reuse the same tables and, on the encode-once path, rewrite the word
// array in place). The refine work lands in sort_stats as refine_rounds /
// wide_segments / wide_continuation_* / wide_tiebreak_fallbacks
// snapshots.
//
// Layering: this header sits on the single-word dispatcher (dispatch.hpp)
// and is included by the typed front door (auto_sort.hpp), which routes
// every wide key type here — dovetail::sort / sort_by_key / rank accept
// wide keys transparently.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/util/simd.hpp"

namespace dovetail {

namespace detail {

// A half-open segment [lo, hi) of the array being refined. A plain struct
// (not std::pair, which libstdc++ makes non-trivially-copyable) so the
// segment tables can live in workspace slabs.
struct wide_seg {
  std::size_t lo;
  std::size_t hi;
};

// Stable sort for the comparison-finished segments: insertion sort below
// the allocation-free threshold (thousands of tiny segments finish per
// round; std::stable_sort's temporary buffer would be malloc churn),
// std::stable_sort above it — preceded by one linear sortedness scan,
// because the large residual segments of duplicate-heavy inputs are
// usually runs of EQUAL keys, already in stable order, and n comparisons
// beat n log n comparisons that all answer "false".
template <typename Rec, typename Less>
void stable_segment_sort(std::span<Rec> a, const Less& less) {
  if (a.size() <= 32) {
    // Tiniest segments first try the branchless fixed-comparator network
    // (util/simd.hpp): same stable permutation as the insertion sort,
    // byte-identical output, no data-dependent branches.
    if constexpr (std::is_trivially_copyable_v<Rec>) {
      if (simd::stable_network_sort(a, less)) return;
    }
    for (std::size_t i = 1; i < a.size(); ++i) {
      Rec x = std::move(a[i]);
      std::size_t j = i;
      for (; j > 0 && less(x, a[j - 1]); --j) a[j] = std::move(a[j - 1]);
      a[j] = std::move(x);
    }
  } else {
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (less(a[i], a[i - 1])) {
        std::stable_sort(a.begin(), a.end(), less);
        return;
      }
    }
  }
}

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
// segments and rank_selector's base case (order_stats.hpp).
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

// Continuation probe: what a still-tied segment's keys look like past a
// byte offset, decided BEFORE paying a re-encode + radix round for it.
// `probe(segment, byte_offset)` compares every key's suffix at the
// offset against the segment's FIRST key's (each comparison stops at its
// own first difference, so the whole probe is one pass over the shared
// bytes) and returns:
//   cont_probe_done — every key ends while still equal: the keys are
//       identical from the offset on; stability keeps their order.
//   0 — some keys differ inside the very next window: re-encode + sort.
//   k > 0 — every key shares the next k full windows and the first
//       difference (if any) lies beyond them: the driver may jump k
//       strides forward without sorting. This is the PARADIS-style
//       skip-common-prefix walk — a 256-byte shared prefix costs ONE
//       scan of the shared bytes, not a radix round per window.
inline constexpr std::size_t cont_probe_done = static_cast<std::size_t>(-1);

// Continuation hooks — the driver-side face of the offset-codec form
// (key_codec.hpp). `probe` as above; `reencode(segment, byte_offset)`
// repoints the word source of a segment the probe decided to split
// (rewriting materialized words on the encode-once path, or just moving
// a shared offset on the fused path); `tie_from(a, b, byte_offset)` is
// the true-key order restricted to the key suffixes at byte_offset —
// continuation rounds know their segments are key-equal through the
// current offset, so small-segment finishes compare only the bytes that
// can still differ (a duplicate-heavy corpus under a 256-byte prefix
// would otherwise re-scan the whole shared prefix on every comparison).
// `stride` is the bytes a continuation window consumes and `words` how
// many words the reencode fills per round — possibly FEWER than the
// materialized prefix (the string codecs continue one 7-byte word per
// round: the probe skips tied words wholesale, so a round only ever
// sorts a word known to differ). `prefix_bytes` is where the
// materialized prefix ends, i.e. the first continuation offset. The
// no_continuation tag keeps exhaustive codecs and the codecs without the
// offset form on the pre-continuation path with zero overhead.
struct no_continuation {};

template <typename Reencode, typename Probe, typename TieFrom>
struct continuation_hooks {
  std::size_t stride;
  std::size_t words;
  std::size_t prefix_bytes;
  Reencode reencode;
  Probe probe;
  TieFrom tie_from;
};
template <typename R, typename P, typename T>
continuation_hooks(std::size_t, std::size_t, std::size_t, R, P, T)
    -> continuation_hooks<R, P, T>;

// True-key suffix order expressed in codec words: walk the continuation
// windows at byte `off` until a word differs (word order = suffix byte
// order by the offset-codec contract) or both keys end while equal.
// Exactly the order tie_from owes, with no byte-level access outside the
// codec.
template <typename WT, typename K>
bool suffix_words_less(const K& a, const K& b, std::size_t off) {
  constexpr std::size_t W = WT::continuation_words;
  for (std::size_t f = 0;; ++f) {
    const std::size_t woff = off + (f / W) * WT::continuation_stride;
    const std::uint64_t wa = WT::word_at(a, f % W, woff);
    const std::uint64_t wb = WT::word_at(b, f % W, woff);
    if (wa != wb) return wa < wb;
    if (!WT::word_continues(wa)) return false;  // equal to the end
  }
}

// Byte-level probe machinery for string-view-convertible keys. The
// generic word probe below is codec-correct for ANY offset codec, but
// for strings every word_at call rebuilds a 7-byte word a byte at a
// time — ~3x the cost of a flat memcmp-style scan, and the probe's scan
// over a segment's shared bytes is the single biggest continuation cost
// under deep prefixes. These helpers walk the raw bytes 8 at a time and
// translate the first divergence back into the window arithmetic the
// driver needs.
//
// first_divergence(a, b, from, cap): smallest byte index >= from where
// the two keys diverge — differing content bytes, or the end of the
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

// Byte-level probe: same contract as probe_tied_windows below, memcmp
// speed. Each key's scan is capped at the earliest divergence seen so
// far, so the whole probe is one pass over the segment's shared bytes.
template <typename KeyViewOf>
std::size_t probe_tied_bytes(std::size_t count, std::size_t off,
                             std::size_t stride, const KeyViewOf& key_of) {
  const std::string_view k0 = key_of(std::size_t{0});
  std::size_t min_d = std::string_view::npos;
  for (std::size_t i = 1; i < count; ++i) {
    const std::string_view ki = key_of(i);
    const std::size_t d = string_first_divergence(k0, ki, off, min_d);
    if (d < min_d) {
      min_d = d;
      // Divergence inside the very next window: the answer is already
      // "split", no later key can change it.
      if (min_d < off + stride) return 0;
    }
  }
  return min_d == std::string_view::npos ? cont_probe_done
                                         : (min_d - off) / stride;
}

// Shared probe body: flat word-by-word comparison of each key against
// the segment's first key, via `key_of(i)` (the i-th true key of the
// segment) and `word_of_at(key, word, byte_offset)`; W words per window,
// `stride` bytes per window. Each key's scan stops at its own first
// difference — and never past the earliest difference seen so far — so
// the whole probe is one pass over the segment's shared bytes. Returns
// the cont_probe contract above.
template <std::size_t W, typename KeyOf, typename WordAt,
          typename Continues>
std::size_t probe_tied_windows(std::size_t count, std::size_t off,
                               std::size_t stride, const KeyOf& key_of,
                               const WordAt& word_of_at,
                               const Continues& word_continues) {
  auto&& k0 = key_of(std::size_t{0});
  // min_f: flat index (window * W + word) of the earliest word where any
  // key differs from key 0; cont_probe_done while none found.
  std::size_t min_f = cont_probe_done;
  for (std::size_t i = 1; i < count && min_f > 0; ++i) {
    auto&& ki = key_of(i);
    for (std::size_t f = 0; f < min_f; ++f) {
      const std::size_t woff = off + (f / W) * stride;
      const std::uint64_t a = word_of_at(k0, f % W, woff);
      const std::uint64_t b = word_of_at(ki, f % W, woff);
      if (a != b) {
        min_f = f;
        break;
      }
      if (!word_continues(a)) break;  // both keys end equal inside f
    }
  }
  return min_f == cont_probe_done ? cont_probe_done : min_f / W;
}

// The driver core. `word_of(rec, w)` yields word w of a record's key;
// `sort_seg(subspan, w, ws)` stably sorts a segment by word w through the
// front door using workspace `ws` (one in-flight sort per workspace, so
// concurrent segment sorts each get their own); `tie_less` is the true-key
// order, consulted only when `exhaustive` is false. Precondition of the
// codec contract: key order implies lexicographic word order (coarsening),
// so within an equal-prefix segment tie_less alone is a refinement of
// every remaining word.
//
// `pool` serves concurrent large-segment refinement: when a round has
// more than one large segment and more than one worker is available, they
// are sorted in parallel, each in-flight sort on a workspace checked out
// of the pool (warm after the first round: zero pool-level allocation).
// With one worker or one large segment they run serially through the
// caller's workspace — pool arenas would only duplicate its warm arena.
template <typename Rec, typename WordOf, typename SortSeg, typename TieLess,
          typename Cont = no_continuation>
void wide_refine(std::span<Rec> data, std::size_t word_count,
                 bool exhaustive, std::size_t base_case,
                 const WordOf& word_of, const SortSeg& sort_seg,
                 const TieLess& tie_less, sort_workspace& ws,
                 workspace_pool& pool, sort_stats* stats,
                 const Cont& cont = {}) {
  constexpr bool kContinuation =
      !std::is_same_v<std::remove_cvref_t<Cont>, no_continuation>;
  const std::size_t n = data.size();
  std::uint64_t rounds = 0;
  std::uint64_t segments = 0;
  std::uint64_t cont_rounds = 0;
  std::uint64_t cont_segments = 0;
  std::uint64_t max_offset = 0;
  std::uint64_t tiebreak_fallbacks = 0;
  const auto note = [&] {
    if (stats != nullptr) {
      stats->refine_rounds.store(rounds, std::memory_order_relaxed);
      stats->wide_segments.store(segments, std::memory_order_relaxed);
      stats->wide_continuation_rounds.store(cont_rounds,
                                            std::memory_order_relaxed);
      stats->wide_continuation_segments.store(cont_segments,
                                              std::memory_order_relaxed);
      stats->wide_max_byte_offset.store(max_offset,
                                        std::memory_order_relaxed);
      stats->wide_tiebreak_fallbacks.store(tiebreak_fallbacks,
                                           std::memory_order_relaxed);
    }
  };
  sort_seg(data, std::size_t{0}, ws);  // word 0: full front-door dispatch
  if (n < 2 || (word_count <= 1 && exhaustive)) {
    note();
    return;
  }

  // Segment tables: disjoint segments of >= 2 records, so at most n/2;
  // plus the cut-position scratch for the split scans (< n cuts).
  const std::size_t seg_cap = n / 2 + 1;
  std::span<wide_seg> cur, next;
  std::span<std::size_t> cut_scratch;
  sort_workspace::lease cur_lease =
      ws.acquire_array<wide_seg>(seg_cap, cur, stats);
  sort_workspace::lease next_lease =
      ws.acquire_array<wide_seg>(seg_cap, next, stats);
  sort_workspace::lease cut_lease =
      ws.acquire_array<std::size_t>(n, cut_scratch, stats);
  std::size_t ncur =
      append_word_runs(std::span<const Rec>(data.data(), n), 0, n, 0,
                       word_of, cut_scratch, cur, 0);

  const auto seg_granularity = [](std::size_t count) {
    return std::max<std::size_t>(
        1, count / (8 * static_cast<std::size_t>(par::num_workers())));
  };

  // Indices into `cur` of this round's above-base-case segments: at most
  // n / base_case entries, so the vector stays tiny next to the O(n)
  // workspace tables above.
  std::vector<std::size_t> large;

  // Sort every `large` segment by word w and split it on that word; the
  // surviving runs become the new `cur` table. Shared by the prefix rounds
  // and the continuation rounds — append order is identical on both
  // schedules below, so the next round's table (and therefore the output)
  // does not depend on the pool.
  const auto sort_split_large = [&](std::size_t w) {
    std::size_t nnext = 0;
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
            sort_seg(data.subspan(lo, hi - lo), w, *h);
          },
          1);
      for (const std::size_t i : large) {
        const auto [lo, hi] = cur[i];
        nnext = append_word_runs(std::span<const Rec>(data.data(), n), lo,
                                 hi, w, word_of, cut_scratch, next, nnext);
      }
    } else {
      // Serial: one segment at a time through the caller's warm arena,
      // splitting each immediately after its sort while its records are
      // still cache-hot (a deferred split phase re-reads the segment cold
      // — measurably slower on fat segments).
      for (const std::size_t i : large) {
        const auto [lo, hi] = cur[i];
        sort_seg(data.subspan(lo, hi - lo), w, ws);
        nnext = append_word_runs(std::span<const Rec>(data.data(), n), lo,
                                 hi, w, word_of, cut_scratch, next, nnext);
      }
    }
    std::swap(cur, next);
    ncur = nnext;
  };

  // One refinement round of the current table at word w. Small segments:
  // one stable comparison sort finishes ALL remaining words (and the
  // true-key tie-break when the codec is a prefix; see words_then_tie), in
  // parallel across segments; they never re-enter the refinement. Large
  // segments (at most n / base_case, so the index list stays small even
  // when the segment table is huge) go back through the front door.
  const auto refine_round = [&](std::size_t w) {
    ++rounds;
    segments += ncur;
    const auto finish_less =
        words_then_tie(word_of, w, word_count, exhaustive, tie_less);
    par::parallel_for(
        0, ncur,
        [&](std::size_t i) {
          const auto [lo, hi] = cur[i];
          if (hi - lo <= base_case)
            stable_segment_sort(data.subspan(lo, hi - lo), finish_less);
        },
        seg_granularity(ncur));
    large.clear();
    for (std::size_t i = 0; i < ncur; ++i)
      if (cur[i].hi - cur[i].lo > base_case) large.push_back(i);
    sort_split_large(w);
  };

  for (std::size_t w = 1; w < word_count && ncur > 0; ++w) refine_round(w);

  // Residual segments are equal on every word so far. An exhaustive codec
  // is done (equal words == equal keys); a non-exhaustive codec owes the
  // order beyond the words.
  if constexpr (kContinuation) {
    // MSD continuation (the offset-codec form): keep refining by radix on
    // the next slice of the true keys, window after window. Each round:
    // still-tied segments at or below the base case finish with the
    // true-key comparison sort (their window words are all equal — only
    // tie_less can order them); larger ones are PROBED at the next
    // window first. A window every key shares costs exactly that scan:
    // segments whose keys continue past it are deferred to the next
    // offset untouched (long shared prefixes walk forward one cheap scan
    // per window, never paying a radix round that would not split
    // anything), and segments whose keys end inside it are dropped (all
    // equal, stability keeps their order). Only windows where keys
    // actually differ re-encode and re-enter the word rounds. Distinct
    // keys differ at some byte or end at different lengths, so every
    // segment eventually splits or ends: the loop terminates, and no
    // above-base-case segment ever meets a comparison sort
    // (tiebreak_fallbacks stays 0 by construction).
    std::span<wide_seg> deferred;
    sort_workspace::lease def_lease =
        ws.acquire_array<wide_seg>(seg_cap, deferred, stats);
    std::size_t offset = cont.prefix_bytes;
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
        // compares suffixes only — under a long shared prefix, tie_less
        // from byte 0 would re-scan the whole prefix per comparison.
        par::parallel_for(
            0, ncur,
            [&](std::size_t i) {
              const auto [lo, hi] = cur[i];
              if (hi - lo <= base_case)
                stable_segment_sort(data.subspan(lo, hi - lo),
                                    [&](const Rec& a, const Rec& b) {
                                      return cont.tie_from(a, b, offset);
                                    });
            },
            seg_granularity(ncur));
      }
      // Probe each large segment's next window BEFORE re-encoding:
      // skip == 0 splits (sort it now), k > 0 defers k whole windows,
      // cont_probe_done drops the segment (keys equal to the end).
      std::size_t m = 0;
      std::size_t ndef = 0;
      std::size_t min_skip = cont_probe_done;
      for (std::size_t i = 0; i < ncur; ++i) {
        const auto [lo, hi] = cur[i];
        if (hi - lo <= base_case) continue;
        const std::size_t skip = cont.probe(
            std::span<const Rec>(data.data() + lo, hi - lo), offset);
        if (skip == cont_probe_done) continue;
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
      max_offset = static_cast<std::uint64_t>(offset + cont.stride);
      if (m > 0) {
        for (std::size_t i = 0; i < ncur; ++i) {
          const auto [lo, hi] = cur[i];
          cont.reencode(data.subspan(lo, hi - lo), offset);
        }
        // The re-encoded window runs the same machinery as the prefix:
        // word 0 through the front door per segment (every survivor is
        // above the base case by construction), then the regular refine
        // rounds for the window's remaining words — none for the
        // one-word-per-round string codecs, whose probe already skipped
        // every tied word.
        ++rounds;
        segments += ncur;
        large.clear();
        for (std::size_t i = 0; i < ncur; ++i) large.push_back(i);
        sort_split_large(0);
        for (std::size_t w = 1; w < cont.words && ncur > 0; ++w)
          refine_round(w);
      }
      // Deferred segments rejoin the table for the next window's probe.
      // When every surviving segment is deferred, jump the smallest
      // verified-tied distance in one step instead of re-probing window
      // by window (a round with active segments advances one stride, so
      // actives re-enter at the very next window).
      for (std::size_t j = 0; j < ndef; ++j) cur[ncur++] = deferred[j];
      offset += cont.stride * ((m == 0 && ndef > 0) ? min_skip : 1);
    }
  } else if (ncur > 0 && !exhaustive) {
    // The comparison tie-break — the route for non-exhaustive codecs
    // without the offset form: segments here share their whole prefix, so
    // each is one sequential comparison sort — parallel across segments
    // only. Above-base-case segments finished here are the degenerate case
    // the continuation removes for offset codecs — counted so tests and
    // benchmarks can tell the two routes apart.
    ++rounds;
    segments += ncur;
    for (std::size_t i = 0; i < ncur; ++i)
      if (cur[i].hi - cur[i].lo > base_case) ++tiebreak_fallbacks;
    par::parallel_for(
        0, ncur,
        [&](std::size_t i) {
          const auto [lo, hi] = cur[i];
          stable_segment_sort(data.subspan(lo, hi - lo), tie_less);
        },
        seg_granularity(ncur));
  }
  note();
}

// Run wide_refine on the caller's workspace (opt.workspace, set by
// the front door's per-call preamble) with every segment sorted through
// the adaptive dispatcher (sort_unsigned keyed on word_of), returning the
// word-0 dispatch's kernel — the shared scaffolding of the fused and
// encode-once paths below.
template <typename Rec, typename WordOf, typename TieLess,
          typename Cont = no_continuation>
sort_kernel refine_through_front_door(std::span<Rec> data,
                                      std::size_t word_count,
                                      bool exhaustive, const WordOf& word_of,
                                      const TieLess& tie_less,
                                      const auto_sort_options& opt,
                                      const Cont& cont = {}) {
  sort_kernel root = sort_kernel::std_sort;
  bool first = true;
  // chosen_kernel and the sketch_* fields are last-write-wins snapshots,
  // so the per-segment dispatches of later rounds would leave them
  // describing the LAST refined segment. The wide contract is that they
  // describe the ROOT (word-0, whole-input) dispatch — the kernel this
  // function returns — so the word-0 values are captured here and
  // restored after the refine rounds.
  std::atomic<std::uint64_t> sort_stats::*const snap_fields[] = {
      &sort_stats::chosen_kernel,          &sort_stats::sketch_key_bits,
      &sort_stats::sketch_distinct_permille, &sort_stats::sketch_top_permille,
      &sort_stats::sketch_desc_permille,   &sort_stats::sketch_heavy_keys,
      &sort_stats::sketch_runs,            &sort_stats::chosen_parallelism,
      &sort_stats::effective_workers};
  constexpr std::size_t kNumSnap = std::size(snap_fields);
  std::uint64_t snap[kNumSnap] = {};
  const auto sort_seg = [&](std::span<Rec> seg, std::size_t w,
                            sort_workspace& seg_ws) {
    auto_sort_options seg_opt = opt;
    seg_opt.workspace = &seg_ws;
    const sort_kernel k = sort_unsigned(
        seg, [&word_of, w](const Rec& r) { return word_of(r, w); }, seg_opt);
    if (first) {
      root = k;
      first = false;
      if (opt.stats != nullptr)
        for (std::size_t f = 0; f < kNumSnap; ++f)
          snap[f] = (opt.stats->*snap_fields[f])
                        .load(std::memory_order_relaxed);
    }
  };
  // Pool for the concurrent large-segment sorts: the caller's, else the
  // process-wide shared pool.
  workspace_pool& pool =
      opt.pool != nullptr ? *opt.pool : workspace_pool::shared();
  wide_refine(data, word_count, exhaustive,
              opt.policy.wide_segment_base_case, word_of, sort_seg,
              tie_less, *opt.workspace, pool, opt.stats, cont);
  if (opt.stats != nullptr && !first)
    for (std::size_t f = 0; f < kNumSnap; ++f)
      (opt.stats->*snap_fields[f]).store(snap[f],
                                         std::memory_order_relaxed);
  return root;
}

// Continuation hooks over records whose true key is key_of(record): the
// probe walks each key's suffix straight from the true keys (no store) —
// at memcmp speed when the key reads as raw bytes, via the codec words
// otherwise — and tie_from compares the suffixes past the verified-tied
// bytes. `reencode` is the one hook that depends on the record shape (see
// the two callers below).
template <typename WT, typename Rec, typename KeyOf, typename Reencode>
auto continuation_for(const KeyOf& key_of, const Reencode& reencode) {
  constexpr bool kByteKeys = std::is_convertible_v<
      std::invoke_result_t<const KeyOf&, const Rec&>, std::string_view>;
  const auto probe = [&key_of](std::span<const Rec> seg,
                               std::size_t off) -> std::size_t {
    if constexpr (kByteKeys) {
      return probe_tied_bytes(
          seg.size(), off, WT::continuation_stride,
          [&](std::size_t i) { return std::string_view(key_of(seg[i])); });
    } else {
      return probe_tied_windows<WT::continuation_words>(
          seg.size(), off, WT::continuation_stride,
          [&](std::size_t i) -> decltype(auto) { return key_of(seg[i]); },
          [](const auto& k, std::size_t w, std::size_t o) {
            return WT::word_at(k, w, o);
          },
          [](std::uint64_t wd) { return WT::word_continues(wd); });
    }
  };
  const auto tie_from = [&key_of](const Rec& a, const Rec& b,
                                  std::size_t off) {
    if constexpr (kByteKeys) {
      // string_view order IS the codec's true order (char_traits compares
      // unsigned), restricted to the suffixes past the verified-tied
      // bytes.
      std::string_view sa(key_of(a));
      std::string_view sb(key_of(b));
      sa.remove_prefix(std::min(off, sa.size()));
      sb.remove_prefix(std::min(off, sb.size()));
      return sa < sb;
    } else {
      return suffix_words_less<WT>(key_of(a), key_of(b), off);
    }
  };
  // Materialized prefix bytes: the continuation picks up where the prefix
  // words end (bytes-per-word x word_count).
  constexpr std::size_t prefix_bytes =
      WT::continuation_stride / WT::continuation_words * WT::word_count;
  return continuation_hooks{WT::continuation_stride, WT::continuation_words,
                            prefix_bytes, reencode, probe, tie_from};
}

// ---------------------------------------------------------------------------
// Entry points for the typed front door (auto_sort.hpp), which has already
// installed the per-call preamble: `opt.workspace` is the call's workspace.

// The encode-once record of a W-word key: every word materialized up
// front with one sequential read of each key, so the refine rounds and
// the word half of every comparison run over a cache-resident array — the
// true key is touched again only by a prefix codec's tie-break or
// continuation and by the caller's final gather. Built by
// detail::encode_once (auto_sort.hpp), next to the single-word enc_idx
// records.
template <std::size_t W>
struct enc_words {
  std::uint64_t word[W];
  std::uint64_t idx;
};

// Refine-sort encode-once records of key type K; key_at(idx) is the true
// key of the record with source index idx. Returns the word-0 kernel.
template <typename K, std::size_t W, typename KeyAt>
sort_kernel refine_encoded(std::span<enc_words<W>> recs, const KeyAt& key_at,
                           const auto_sort_options& opt) {
  using WT = wide_key_traits<K>;
  using R = enc_words<W>;
  static_assert(WT::word_count == W);
  const auto word_of = [](const R& r, std::size_t w) { return r.word[w]; };
  const auto key_of = [&key_at](const R& r) -> decltype(auto) {
    return key_at(static_cast<std::size_t>(r.idx));
  };
  const auto tie = true_key_less<WT>(key_of);
  if constexpr (WT::offset_encodable) {
    // Re-encode refreshes the materialized words from the true keys at
    // the chosen offset (one parallel pass per segment; every later word
    // read is back to a cache-resident array hit).
    const auto reencode = [&key_of](std::span<R> seg, std::size_t off) {
      par::parallel_for(0, seg.size(), [&](std::size_t i) {
        auto&& k = key_of(seg[i]);
        for (std::size_t w = 0; w < WT::continuation_words; ++w)
          seg[i].word[w] = WT::word_at(k, w, off);
      });
    };
    return refine_through_front_door(
        recs, W, WT::exhaustive, word_of, tie, opt,
        continuation_for<WT, R>(key_of, reencode));
  } else {
    return refine_through_front_door(recs, W, WT::exhaustive, word_of, tie,
                                     opt);
  }
}

// Fused wide sort — trivially copyable records under a cheap codec: the
// records are scattered as-is and each word pass re-derives its radix key
// from the record, with no memory beyond the dispatcher's own scratch.
template <typename Rec, typename KeyFn>
sort_kernel refine_fused(std::span<Rec> data, const KeyFn& key,
                         const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  using WT = wide_key_traits<K>;
  const auto tie = true_key_less<WT>(key);
  if constexpr (WT::offset_encodable) {
    // Offset-capable (std::string_view records): there are no
    // materialized words to refresh, so the continuation offset lives in
    // one shared variable read by every word access. The driver writes it
    // (reencode) strictly between parallel phases — the fork of the next
    // segment sort publishes the store to its workers — and every
    // continuing segment of a round shares the same offset (the rounds
    // are globally lockstep), so a single variable is enough.
    std::size_t cont_off = 0;
    const auto word_of = [&key, &cont_off](const Rec& r, std::size_t w) {
      return WT::word_at(key(r), w, cont_off);
    };
    const auto reencode = [&cont_off](std::span<Rec>, std::size_t off) {
      cont_off = off;
    };
    return refine_through_front_door(
        data, WT::word_count, WT::exhaustive, word_of, tie, opt,
        continuation_for<WT, Rec>(key, reencode));
  } else {
    const auto word_of = [&key](const Rec& r, std::size_t w) {
      return WT::word(key(r), w);
    };
    return refine_through_front_door(data, WT::word_count, WT::exhaustive,
                                     word_of, tie, opt);
  }
}

}  // namespace detail

}  // namespace dovetail
