// Order-statistics queries — rank-pruned top-k / nth_element /
// partial_sort / percentiles over the typed front door.
//
// A full sort does strictly more work than most production queries need:
// a leaderboard wants the smallest (or largest) k records, a latency
// monitor wants a handful of percentile ranks, a scheduler wants the
// median. All of these are RANK WINDOWS — half-open ranges [lo, hi) of
// positions in the stable sorted order — and the distribution machinery
// the paper builds (histogram, stable scatter, recurse per bucket) prunes
// them almost for free: after one counting pass the bucket offsets pin
// every record's rank to its bucket's global range, so any bucket wholly
// OUTSIDE every requested window is already "done" — its records are
// placed, partitioned correctly against the window, and never looked at
// again. Only buckets that straddle or lie inside a window recurse. For
// k << n that prunes ~all of the input after the first pass — and when
// the counting pass shows most of a segment pruning, the driver does not
// even pay the scatter: the carve fast path copies only the active
// buckets' records aside (stably) and moves just the misplaced pruned
// records into the gaps between them (rank_selector::try_carve), so top-k
// costs one counting pass, one classify pass, and work proportional to k,
// not n log n — the bench_suite query-topk family measures the gap
// against a full dovetail::sort (speedup_vs_fullsort in BENCH_query.json).
//
// The driver (detail::rank_selector) is the MSD mirror of the engine's
// recursion: distribute on the current radix byte through the SAME
// stable engine (core/distribute.hpp, workspace-leased, scatter-strategy
// aware), then recurse only into window-intersecting buckets —
// byte by byte within a word, word by word across wide keys.
// Pruning decisions land in sort_stats (buckets_pruned /
// records_pruned, cumulative) and the query entry point in
// sort_stats::query_kind (snapshot; decode with query_kind_of).
//
// Semantics are defined by ONE reference: every query result is exactly a
// slice of the stable full sort. top_k == stable_sort(data)[0..k) byte
// for byte (ties resolved to the earliest input records), nth_element
// puts the stable-sort resident of position nth there, percentiles reads
// nearest ranks out of the stable order. The selection is stable by
// construction — every distribution pass is stable and confined to one
// bucket, exactly as in the full sort.
//
// Codec coverage matches dovetail::sort: unsigned/signed integers,
// float/double (IEEE total order), composites, 128-bit integers,
// std::string/string_view — cheap single-word codecs on trivially
// copyable records fuse; everything else takes the front door's
// encode-once route (auto_sort.hpp) with the selector as its kernel, and
// wide codecs select word 0 first and refine only surviving segments on
// later words (equal-prefix segments that still tie after the
// materialized words finish with one true-key comparison sort, the same
// contract as wide_sort.hpp).
// Workspace/stats contract as dovetail::sort: all O(n) scratch is leased,
// warm repeated queries on one workspace allocate nothing.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"

namespace dovetail {

// A half-open window [lo, hi) of positions in the stable sorted order.
// The selection driver guarantees that after a query, every requested
// window holds exactly the records a stable full sort would put there,
// in that order; records outside the windows are bucket-partitioned
// consistently (everything before a window ranks below it, everything
// after ranks above) but not internally sorted.
struct rank_window {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] std::size_t size() const noexcept { return hi - lo; }
};

// Which query entry point ran last — recorded as 1 + static_cast<int>(..)
// in sort_stats::query_kind (snapshot, last-write-wins like chosen_kernel).
enum class query_kind : std::uint8_t {
  top_k,
  nth_element,
  partial_sort,
  percentiles,
  group_by,
};

inline constexpr int kNumQueryKinds = 5;

inline const char* query_kind_name(query_kind q) {
  switch (q) {
    case query_kind::top_k: return "top_k";
    case query_kind::nth_element: return "nth_element";
    case query_kind::partial_sort: return "partial_sort";
    case query_kind::percentiles: return "percentiles";
    case query_kind::group_by: return "group_by";
  }
  return "?";
}

// Decode sort_stats::query_kind (0 = no query recorded).
inline std::optional<query_kind> query_kind_of(const sort_stats& st) {
  const std::uint64_t v = st.query_kind.load(std::memory_order_relaxed);
  if (v == 0 || v > static_cast<std::uint64_t>(kNumQueryKinds))
    return std::nullopt;
  return static_cast<query_kind>(v - 1);
}

// Which end of the sorted order top_k selects.
enum class rank_side : std::uint8_t { smallest, largest };

namespace detail {

// Snapshot the query/codec stats fields (last write wins; the pruning
// counters are cumulative and bumped by the driver itself).
template <typename K>
void note_query(sort_stats* st, query_kind q) {
  note_call<K>(st, &sort_stats::query_kind, 1 + static_cast<std::uint64_t>(q));
}

inline constexpr std::size_t kSelectRadixBits = 8;
inline constexpr std::size_t kSelectBuckets = std::size_t{1}
                                              << kSelectRadixBits;
// Below this the carve fast path's bookkeeping (zone tables, per-block
// cursor matrix) costs more than the scatter it avoids.
inline constexpr std::size_t kCarveMin = std::size_t{1} << 15;
// Below this a 16-bit first digit (65536 buckets) is not worth its counting
// matrix; above it, one wide fanout replaces two 8-bit levels — decisive on
// skewed inputs whose smallest-byte bucket holds a large slice of the input.
inline constexpr std::size_t kCarve16Min = std::size_t{1} << 19;

// Tag for selections with no whole-segment re-dispatch (the wide path:
// covered segments keep radix-recursing instead).
struct no_covered_sort {};

// The rank-window MSD selection driver. One instance per query call;
// recursion is serial ACROSS buckets (only a handful intersect the
// windows per level) while each distribution pass is internally parallel
// through the shared engine. `word_of(rec, w)` is word w of the record's
// encoded key (single-word keys: word_count == 1); `tie` is the true-key
// order consulted only when `exhaustive` is false (prefix string codecs);
// `covered_sort(lo, hi)`, when provided, fully sorts a segment that lies
// wholly inside one window — the narrow path routes those back through
// the adaptive dispatcher so an in-window segment still gets the best
// kernel for its shape.
template <typename Rec, typename WordOf, typename TieLess,
          typename CoveredSort = no_covered_sort>
class rank_selector {
 public:
  rank_selector(std::span<Rec> all, std::size_t word_count, bool exhaustive,
                const WordOf& word_of, const TieLess& tie,
                std::span<const rank_window> windows, std::size_t base_case,
                sort_workspace& ws, sort_stats* st,
                const CoveredSort& covered_sort = {})
      : all_(all),
        word_count_(word_count),
        exhaustive_(exhaustive),
        word_of_(word_of),
        tie_(tie),
        windows_(windows),
        base_case_(std::max<std::size_t>(1, base_case)),
        ws_(ws),
        st_(st),
        covered_sort_(covered_sort) {}

  void run() {
    if (all_.size() >= 2 && !windows_.empty())
      select_word(0, all_.size(), 0);
    if (st_ != nullptr) {
      st_->buckets_pruned.fetch_add(buckets_pruned_,
                                    std::memory_order_relaxed);
      st_->records_pruned.fetch_add(records_pruned_,
                                    std::memory_order_relaxed);
      st_->base_case_records.fetch_add(base_case_records_,
                                       std::memory_order_relaxed);
      st_->distributed_records.fetch_add(distributed_records_,
                                         std::memory_order_relaxed);
      st_->num_distributions.fetch_add(num_distributions_,
                                       std::memory_order_relaxed);
    }
  }

 private:
  static constexpr bool kHasCoveredSort =
      !std::is_same_v<std::remove_cvref_t<CoveredSort>, no_covered_sort>;

  // Windows are sorted and disjoint, so the scan can stop at the first
  // window starting at or past `hi`.
  [[nodiscard]] bool intersects(std::size_t lo, std::size_t hi) const {
    for (const rank_window& w : windows_) {
      if (w.lo >= hi) break;
      if (w.hi > lo) return true;
    }
    return false;
  }

  [[nodiscard]] bool covered(std::size_t lo, std::size_t hi) const {
    for (const rank_window& w : windows_) {
      if (w.lo >= hi) break;
      if (w.lo <= lo && hi <= w.hi) return true;
    }
    return false;
  }

  // Comparison finish from word w: the remaining words, then the true-key
  // tie-break (words_then_tie, wide_sort.hpp). stable_segment_sort keeps
  // equal keys in their (stable) arrival order.
  void finish(std::size_t lo, std::size_t hi, std::size_t w) {
    stable_segment_sort(
        all_.subspan(lo, hi - lo),
        words_then_tie(word_of_, w, word_count_, exhaustive_, tie_));
    base_case_records_ += hi - lo;
  }

  // Select within [lo, hi), all records tied on words [0, w). Precondition
  // of every call below the root: the segment intersects a window.
  void select_word(std::size_t lo, std::size_t hi, std::size_t w) {
    const std::size_t n = hi - lo;
    if (n <= 1) return;
    if (w >= word_count_) {
      // Tied on every materialized word: an exhaustive codec is done
      // (equal words imply equal keys; the stable arrival order is the
      // answer), a prefix codec owes the tail one true-key sort.
      if (!exhaustive_) finish(lo, hi, w);
      return;
    }
    if (n <= base_case_) {
      finish(lo, hi, w);
      return;
    }
    if constexpr (kHasCoveredSort) {
      if (covered(lo, hi)) {
        covered_sort_(lo, hi);
        return;
      }
    }
    const auto [mn, mx] = exact_key_range(
        std::span<const Rec>(all_.data() + lo, n),
        [&](const Rec& r) { return word_of_(r, w); });
    if (mn == mx) {
      // The whole segment ties on this word too — skip to the next one
      // without paying a distribution pass (long shared prefixes cost one
      // min/max scan per constant word, not one scatter).
      select_word(lo, hi, w + 1);
      return;
    }
    // Unaligned shift: the top byte of the RANGE (width - 8), not the
    // byte-aligned digit of the word. Selection has no LSD pass to stay
    // compatible with, so every level gets a full 8-bit fanout — a range
    // whose aligned top digit spans 2 values (width = 25) would otherwise
    // waste an entire distribution level on a 2-way split.
    const int width = 64 - std::countl_zero(mn ^ mx);
    select_span(lo, hi, w, width);
  }

  // Select within [lo, hi) given that only the low `width` bits of word w
  // vary across the segment. Large segments try the carve fast path first
  // — with a 16-bit digit when the segment is big enough to amortize the
  // wider counting matrix (one wide fanout instead of two levels, and the
  // active bucket stays tiny even on skewed byte distributions), else the
  // regular 8-bit digit — and fall back to the full stable scatter.
  void select_span(std::size_t lo, std::size_t hi, std::size_t w,
                   int width) {
    if (width > static_cast<int>(kSelectRadixBits) &&
        hi - lo >= kCarve16Min) {
      if (try_carve(lo, hi, w, std::max(0, width - 16), std::size_t{1} << 16))
        return;
    }
    const int shift =
        std::max(0, width - static_cast<int>(kSelectRadixBits));
    if (try_carve(lo, hi, w, shift, kSelectBuckets)) return;
    select_digit(lo, hi, w, shift);
  }

  // Continue below one window-intersecting bucket [blo, bhi): finish it,
  // hand it to the covered-segment sorter, or keep selecting on the next
  // digit/word. Shared by the carve fast path and the scatter fallback.
  void descend(std::size_t blo, std::size_t bhi, std::size_t w, int shift) {
    if (bhi - blo < 2) return;
    if (bhi - blo <= base_case_) {
      finish(blo, bhi, w);
      return;
    }
    if constexpr (kHasCoveredSort) {
      if (covered(blo, bhi)) {
        covered_sort_(blo, bhi);
        return;
      }
    }
    if (shift > 0)
      select_span(blo, bhi, w, shift);
    else
      select_word(blo, bhi, w + 1);
  }

  // Carve fast path: when only a small fraction of [lo, hi) lands in
  // window-intersecting ("active") buckets — the normal shape for k << n —
  // a full stable scatter plus copy-back moves every record twice to
  // place a handful. Instead:
  //
  //   1. counting pass only (per-block histograms, no scatter);
  //   2. carve the active-bucket records out to a leased side array,
  //      stably (per-(block, bucket) cursors, same construction as the
  //      engine's stable scatter);
  //   3. pruned records owe the windows nothing but SIDE: group maximal
  //      runs of pruned buckets into zones (the gaps between active
  //      buckets' global rank ranges) and move only the records sitting
  //      outside their own zone's span into slots vacated within it. The
  //      contract leaves order inside a pruned region unspecified, so the
  //      moves claim slots with a fetch-and-add (Thm 4.1's unstable
  //      scatter, confined to records no window will ever see);
  //   4. copy the carved records back to their buckets' rank ranges —
  //      still in stable order — and recurse on those buckets only.
  //
  // Traffic drops from ~2 full rewrites of the segment to one counting
  // read, one classify read, and writes proportional to the active set
  // plus the misplaced pruned records — at n = 1e7, k <= 1024 this is the
  // difference between ~4x and >5x over a full sort (BENCH_query.json).
  //
  // `nb` is the fanout (256, or 65536 for large segments — the wide first
  // digit keeps the active bucket tiny even when the key distribution
  // piles most records onto one byte value); the digit is the nb-ary
  // value at `shift`, clamped against the segment's key width by the
  // caller (select_span).
  bool try_carve(std::size_t lo, std::size_t hi, std::size_t w, int shift,
                 std::size_t nb) {
    const std::size_t n = hi - lo;
    if (n < kCarveMin) return false;
    const auto digit_of = [&](const Rec& r) -> std::size_t {
      return static_cast<std::size_t>((word_of_(r, w) >> shift) & (nb - 1));
    };
    const block_geometry g = distribution_blocks(n, nb);
    const std::size_t nblocks = g.nblocks, bsize = g.bsize;
    // Active-bucket rank ranges survive the lease scope: the recursion
    // below re-leases freely once the carve scratch is returned.
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    {
      // Counting matrix + per-bucket tables in one lease. totals doubles
      // as the scratch-offset table once the bucket starts are computed.
      sort_workspace::lease cm = ws_.acquire(
          (nblocks + 2) * nb * sizeof(std::size_t) + nb * sizeof(std::size_t) +
              nb * (sizeof(std::uint16_t) + 1) + 6 * kSlabAlign,
          st_);
      const std::span<std::size_t> counts =
          cm.template carve<std::size_t>(nblocks * nb);
      const std::span<std::size_t> totals = cm.template carve<std::size_t>(nb);
      const std::span<std::size_t> offs =
          cm.template carve<std::size_t>(nb + 1);
      const std::span<std::uint16_t> zone_of =
          cm.template carve<std::uint16_t>(nb);
      const std::span<std::uint8_t> active = cm.template carve<std::uint8_t>(nb);
      count_blocks(n, nb, g,
                   [&](std::size_t i) { return digit_of(all_[lo + i]); },
                   counts);
      column_totals(counts, nblocks, nb, totals);
      std::size_t acc = 0;
      for (std::size_t b = 0; b < nb; ++b) {
        offs[b] = acc;
        acc += totals[b];
      }
      offs[nb] = acc;

      std::size_t a = 0;
      for (std::size_t b = 0; b < nb; ++b) {
        const std::size_t blo = lo + offs[b], bhi = lo + offs[b + 1];
        active[b] = bhi > blo && intersects(blo, bhi) ? 1 : 0;
        if (active[b] != 0) a += bhi - blo;
      }
      // Carve pays when it skips most of the segment; otherwise the plain
      // stable scatter (with its buffered-burst cursor engine) wins.
      if (a == 0 || a * 4 > n) return false;
      const std::size_t m = n - a;

      // Zones: maximal runs of non-active buckets, as absolute rank spans.
      // Empty buckets are never active (an empty range intersects no
      // window), so runs merge across them for free. zone_of maps a pruned
      // digit to its run.
      std::vector<std::size_t> zlo, zhi, zstart;
      for (std::size_t b = 0; b < nb; ++b) {
        if (active[b] != 0) {
          spans.emplace_back(lo + offs[b], lo + offs[b + 1]);
          continue;
        }
        if (zhi.empty() || zhi.back() != lo + offs[b]) {
          zlo.push_back(lo + offs[b]);
          zhi.push_back(lo + offs[b]);
        }
        zone_of[b] = static_cast<std::uint16_t>(zhi.size() - 1);
        zhi.back() = lo + offs[b + 1];
        if (offs[b + 1] > offs[b]) {
          ++buckets_pruned_;
          records_pruned_ += offs[b + 1] - offs[b];
        }
      }
      const std::size_t nz = zlo.size();
      zstart.resize(nz + 1, 0);
      for (std::size_t z = 0; z < nz; ++z)
        zstart[z + 1] = zstart[z] + (zhi[z] - zlo[z]);

      // Scratch for the carved active records (stable), worst-case room
      // for the misplaced pruned records and the slots they fill, and the
      // per-digit action tables: one row per zone plus a trailing row for
      // positions covered by no zone (inside active buckets' spans).
      // 0 = stays put (a zone record already inside its own span),
      // 1 = active (carved to scratch), 2 = moves to its zone. The hot
      // classify loop below then does one key read, one byte-table read,
      // and a branch that almost always takes the stay case.
      std::span<Rec> scratch, moves;
      std::span<std::size_t> frees;
      std::span<std::uint8_t> act;
      sort_workspace::lease side = ws_.acquire(
          (a + m) * sizeof(Rec) + m * sizeof(std::size_t) + (nz + 1) * nb +
              5 * kSlabAlign,
          st_);
      scratch = side.template carve<Rec>(a);
      moves = side.template carve<Rec>(m);
      frees = side.template carve<std::size_t>(m);
      act = side.template carve<std::uint8_t>((nz + 1) * nb);
      par::parallel_for(0, nz + 1, [&](std::size_t z) {
        std::uint8_t* arow = act.data() + z * nb;
        for (std::size_t d = 0; d < nb; ++d)
          arow[d] = active[d] != 0
                        ? std::uint8_t{1}
                        : (z < nz && zone_of[d] == z ? std::uint8_t{0}
                                                     : std::uint8_t{2});
      });

      // Per-(block, active-bucket) scratch cursors: bucket-major then
      // block-major, the stable order (same construction as distribute's).
      // totals is re-purposed as the active buckets' scratch starts.
      {
        std::size_t sa = 0;
        for (std::size_t b = 0; b < nb; ++b) {
          if (active[b] == 0) continue;
          totals[b] = sa;
          sa += offs[b + 1] - offs[b];
        }
        par::parallel_for(0, nb, [&](std::size_t b) {
          if (active[b] == 0) return;
          std::size_t cur = totals[b];
          for (std::size_t blk = 0; blk < nblocks; ++blk) {
            std::size_t& cell = counts[blk * nb + b];
            const std::size_t c = cell;
            cell = cur;
            cur += c;
          }
        });
      }

      // Classify pass: active records to scratch (stable), pruned records
      // outside their zone's span to the move buffer, and every in-zone
      // slot whose occupant belongs elsewhere to the free list. Each block
      // walks its range as runs that lie within one zone's span (or within
      // none), so the POSITION's zone is loop-invariant and the action row
      // is picked once per run. Per-zone claim counters are plain size_t
      // bumped through atomic_ref, exactly like the engine's unstable
      // scatter.
      std::vector<std::size_t> mcnt(nz, 0), fcnt(nz, 0);
      par::parallel_for(
          0, nblocks,
          [&, bsize = bsize](std::size_t blk) {
            const std::size_t i0 = blk * bsize, i1 = std::min(n, i0 + bsize);
            std::size_t* row = counts.data() + blk * nb;
            std::size_t zi = 0;  // zone at/after pos, advanced monotonically
            while (zi < nz && zhi[zi] <= lo + i0) ++zi;
            std::size_t i = i0;
            while (i < i1) {
              const bool in_zone = zi < nz && lo + i >= zlo[zi];
              const std::size_t seg_end =
                  in_zone ? std::min(i1, zhi[zi] - lo)
                          : std::min(i1, (zi < nz ? zlo[zi] : hi) - lo);
              const std::uint8_t* arow =
                  act.data() + (in_zone ? zi : nz) * nb;
              for (; i < seg_end; ++i) {
                const Rec& r = all_[lo + i];
                const std::size_t d = digit_of(r);
                const std::uint8_t tag = arow[d];
                if (tag == 0) continue;  // in its own zone's span: stays
                if (tag == 1) {
                  scratch[row[d]++] = r;
                } else {
                  const std::size_t z = zone_of[d];
                  const std::size_t at =
                      std::atomic_ref<std::size_t>(mcnt[z]).fetch_add(
                          1, std::memory_order_relaxed);
                  moves[zstart[z] + at] = r;
                }
                if (in_zone) {
                  const std::size_t at =
                      std::atomic_ref<std::size_t>(fcnt[zi]).fetch_add(
                          1, std::memory_order_relaxed);
                  frees[zstart[zi] + at] = lo + i;
                }
              }
              if (in_zone) ++zi;
            }
          },
          1);

      // Per zone, vacated slots and misplaced records pair off exactly:
      // a zone's span is the sum of its buckets, so (records of the zone
      // outside the span) == (span slots holding someone else's record).
      for (std::size_t z = 0; z < nz; ++z) {
        assert(mcnt[z] == fcnt[z]);
        par::parallel_for(0, mcnt[z], [&, z](std::size_t i) {
          all_[frees[zstart[z] + i]] = moves[zstart[z] + i];
        });
      }

      // Carved records return to their buckets' global rank ranges, still
      // in stable order.
      {
        std::size_t sa = 0;
        for (const auto& [blo, bhi] : spans) {
          const std::size_t sz = bhi - blo;
          par::copy(std::span<const Rec>(scratch.data() + sa, sz),
                    all_.subspan(blo, sz));
          sa += sz;
        }
      }
      distributed_records_ += a + m;
      ++num_distributions_;
    }  // leases released: recursion re-leases freely
    for (const auto& [blo, bhi] : spans) descend(blo, bhi, w, shift);
    return true;
  }

  // One stable distribution pass on the byte at `shift` of word w, then
  // recurse only into buckets that intersect a window. Buckets wholly
  // outside every window are DONE the moment the scatter places them:
  // their records' final ranks are pinned to the bucket's global range,
  // which no requested window overlaps. Large segments that prune most of
  // their records take the carve fast path above instead of paying the
  // full scatter + copy-back.
  void select_digit(std::size_t lo, std::size_t hi, std::size_t w,
                    int shift) {
    const std::size_t n = hi - lo;
    std::array<std::size_t, kSelectBuckets + 1> offs{};
    {
      const std::span<Rec> t = ws_.template record_buffer<Rec>(n, st_);
      sort_workspace::lease ol =
          ws_.acquire((kSelectBuckets + 1) * sizeof(std::size_t), st_);
      const std::span<std::size_t> po =
          ol.template carve<std::size_t>(kSelectBuckets + 1);
      distribute_options dopt;
      dopt.require_stable = true;
      dopt.workspace = &ws_;
      dopt.stats = st_;
      distribute(std::span<const Rec>(all_.data() + lo, n), t,
                 kSelectBuckets,
                 [&](const Rec& r) -> std::size_t {
                   return static_cast<std::size_t>(
                       (word_of_(r, w) >> shift) & (kSelectBuckets - 1));
                 },
                 po, dopt);
      par::copy(std::span<const Rec>(t.data(), n), all_.subspan(lo, n));
      std::copy(po.begin(), po.end(), offs.begin());
      distributed_records_ += n;
      ++num_distributions_;
    }  // offsets copied out, leases released: recursion re-leases freely
    for (std::size_t b = 0; b < kSelectBuckets; ++b) {
      const std::size_t blo = lo + offs[b];
      const std::size_t bhi = lo + offs[b + 1];
      if (bhi == blo) continue;
      if (!intersects(blo, bhi)) {
        ++buckets_pruned_;
        records_pruned_ += bhi - blo;
        continue;
      }
      descend(blo, bhi, w, shift);
    }
  }

  std::span<Rec> all_;
  std::size_t word_count_;
  bool exhaustive_;
  const WordOf& word_of_;
  const TieLess& tie_;
  std::span<const rank_window> windows_;
  std::size_t base_case_;
  sort_workspace& ws_;
  sort_stats* st_;
  CoveredSort covered_sort_;
  std::uint64_t buckets_pruned_ = 0;
  std::uint64_t records_pruned_ = 0;
  std::uint64_t base_case_records_ = 0;
  std::uint64_t distributed_records_ = 0;
  std::uint64_t num_distributions_ = 0;
};

// Single-word selection: enc(rec) is the (already codec-encoded) unsigned
// key. Covered segments re-enter the adaptive dispatcher — the rank
// window threading through dispatch: a segment wholly inside a window is
// a full sub-sort, and sort_unsigned picks its kernel from the segment's
// own sketch. `opt` comes from a call_scope.
template <typename Rec, typename EncFn>
void select_unsigned(std::span<Rec> data, const EncFn& enc,
                     std::span<const rank_window> windows,
                     const auto_sort_options& opt) {
  const auto word_of = [&enc](const Rec& r, std::size_t) {
    return static_cast<std::uint64_t>(enc(r));
  };
  const auto tie = [](const Rec&, const Rec&) { return false; };
  const auto covered_sort = [&](std::size_t lo, std::size_t hi) {
    sort_unsigned(std::span<Rec>(data.data() + lo, hi - lo),
                  [&enc](const Rec& r) { return enc(r); }, opt);
  };
  rank_selector<Rec, decltype(word_of), decltype(tie),
                decltype(covered_sort)>
      sel(data, 1, true, word_of, tie, windows,
          opt.policy.select_base_case, *opt.workspace, opt.stats,
          covered_sort);
  sel.run();
}

// The shared orchestrator behind every public query: rearrange `data` so
// each requested window holds its slice of the stable sorted order.
// `windows` must be sorted, disjoint, and clipped to [0, data.size()).
// Routing mirrors dovetail::sort — fused, or the encode-once route with
// the selector as its kernel: single-word records select like the fused
// path, W-word records select word by word (word 0 prunes most of the
// input for small windows; only surviving segments ever touch later
// words).
template <typename Rec, typename KeyFn>
void select_by_rank(std::span<Rec> data, const KeyFn& key,
                    std::span<const rank_window> windows,
                    const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(any_sortable_key<K>,
                "dovetail order-statistics: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  using WT = wide_key_traits<K>;
  const std::size_t n = data.size();
  if (windows.empty() || n <= 1) return;
  if (windows.size() == 1 && windows[0].lo == 0 && windows[0].hi >= n) {
    // The window IS the whole array: a full sort through the front door
    // (partial_sort with m == n, percentile sets hitting every rank).
    dovetail::sort(data, key, opt);
    return;
  }
  const call_scope call(opt);
  if (opt.stats != nullptr)
    opt.stats->effective_workers.store(
        static_cast<std::uint64_t>(par::effective_workers()),
        std::memory_order_relaxed);
  if constexpr (std::is_trivially_copyable_v<Rec> && WT::cheap &&
                WT::single_word) {
    // Fused: the selection passes scatter the records as-is, encoding per
    // key access — no extra pass, no extra memory.
    select_unsigned(
        data, [&key](const Rec& r) { return WT::word(key(r), 0); }, windows,
        call.opt());
  } else {
    // Encode once, select the records, gather once — the sort's
    // encode-once route with the selector as its kernel.
    const auto key_at = [&](std::size_t i) -> decltype(auto) {
      return key(data[i]);
    };
    reorder_arrays<K>(
        data, std::span<Rec>{}, key_at, call.opt(),
        [&]<typename R>(std::span<R> recs) {
          if constexpr (WT::single_word) {
            select_unsigned(recs, [](const R& r) { return r.key; }, windows,
                            call.opt());
          } else {
            const auto word_of = [](const R& r, std::size_t w) {
              return r.word[w];
            };
            const auto key_of = [&key_at](const R& r) -> decltype(auto) {
              return key_at(static_cast<std::size_t>(r.idx));
            };
            const auto tie = true_key_less<WT>(key_of);
            rank_selector<R, decltype(word_of), decltype(tie)> sel(
                recs, WT::word_count, WT::exhaustive, word_of, tie, windows,
                opt.policy.select_base_case, call.ws(), opt.stats);
            sel.run();
          }
        });
  }
}

}  // namespace detail

// The k smallest (or largest) records by key(record), stable: the result
// is byte-identical to the first (last) k entries of a stable full sort —
// ties go to the earliest input records for rank_side::smallest and the
// latest for rank_side::largest, exactly as the stable order dictates.
// `data` is rearranged in place; the returned span views the results
// WITHIN data (the front for smallest, the tail for largest), in
// ascending key order. k is clamped to data.size().
//
// Work: one distribution pass over n plus work proportional to the
// surviving buckets — for k << n the driver prunes nearly everything
// after the first pass (sort_stats::buckets_pruned / records_pruned
// count it). Workspace/stats contract as dovetail::sort: warm repeated
// queries on one workspace allocate nothing.
template <typename Rec, typename KeyFn>
  requires std::invocable<const KeyFn&, const Rec&>
std::span<Rec> top_k(std::span<Rec> data, std::size_t k, const KeyFn& key,
                     rank_side side = rank_side::smallest,
                     const auto_sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(any_sortable_key<K>,
                "dovetail::top_k: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  detail::note_query<K>(opt.stats, query_kind::top_k);
  const std::size_t n = data.size();
  k = std::min(k, n);
  if (k > 0) {
    const rank_window w = side == rank_side::smallest
                              ? rank_window{0, k}
                              : rank_window{n - k, n};
    detail::select_by_rank(data, key, std::span<const rank_window>(&w, 1),
                           opt);
  }
  return side == rank_side::smallest ? data.first(k) : data.last(k);
}

// top_k over a span of plain keys (any codec-covered type, wide included).
template <typename K>
  requires any_sortable_key<K>
std::span<K> top_k(std::span<K> data, std::size_t k,
                   rank_side side = rank_side::smallest,
                   const auto_sort_options& opt = {}) {
  return top_k(data, k, [](const K& v) -> const K& { return v; }, side, opt);
}

// Place the record a stable full sort would put at position nth there,
// partitioning the rest around it (keys before nth are <=, keys after are
// >=). Returns a reference to data[nth]. Throws std::out_of_range when
// nth >= data.size().
template <typename Rec, typename KeyFn>
  requires std::invocable<const KeyFn&, const Rec&>
Rec& nth_element(std::span<Rec> data, std::size_t nth, const KeyFn& key,
                 const auto_sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(any_sortable_key<K>,
                "dovetail::nth_element: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  detail::note_query<K>(opt.stats, query_kind::nth_element);
  if (nth >= data.size())
    throw std::out_of_range("dovetail::nth_element: nth out of range");
  const rank_window w{nth, nth + 1};
  detail::select_by_rank(data, key, std::span<const rank_window>(&w, 1),
                         opt);
  return data[nth];
}

template <typename K>
  requires any_sortable_key<K>
K& nth_element(std::span<K> data, std::size_t nth,
               const auto_sort_options& opt = {}) {
  return nth_element(data, nth, [](const K& v) -> const K& { return v; },
                     opt);
}

// Stable std::partial_sort: the first m positions end up byte-identical
// to the first m entries of a stable full sort; the tail is partitioned
// above them. m is clamped to data.size() (m == n is a full sort through
// the front door).
template <typename Rec, typename KeyFn>
  requires std::invocable<const KeyFn&, const Rec&>
void partial_sort(std::span<Rec> data, std::size_t m, const KeyFn& key,
                  const auto_sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(any_sortable_key<K>,
                "dovetail::partial_sort: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  detail::note_query<K>(opt.stats, query_kind::partial_sort);
  m = std::min(m, data.size());
  if (m == 0) return;
  const rank_window w{0, m};
  detail::select_by_rank(data, key, std::span<const rank_window>(&w, 1),
                         opt);
}

template <typename K>
  requires any_sortable_key<K>
void partial_sort(std::span<K> data, std::size_t m,
                  const auto_sort_options& opt = {}) {
  partial_sort(data, m, [](const K& v) -> const K& { return v; }, opt);
}

// Percentile extraction by the nearest-rank rule: quantile q in [0, 1]
// reads the key a stable full sort would leave at position
// round(q * (n - 1)) — q = 0 the minimum, q = 0.5 the lower median,
// q = 1 the maximum. The input is NOT modified: the keys are copied into
// workspace-leased scratch (a per-call vector for non-trivially-copyable
// keys like std::string) and one multi-window selection resolves every
// requested rank in a single pruned pass — asking for {0.5, 0.9, 0.99}
// costs one query, not three.
//
// Returns the values in the order the quantiles were given. Throws
// std::invalid_argument for an empty input (with non-empty qs) or a
// quantile outside [0, 1].
template <typename K>
  requires any_sortable_key<K>
std::vector<K> percentiles(std::span<const K> data,
                           std::span<const double> qs,
                           const auto_sort_options& opt = {}) {
  detail::note_query<K>(opt.stats, query_kind::percentiles);
  if (qs.empty()) return {};
  if (data.empty())
    throw std::invalid_argument("dovetail::percentiles: empty input");
  const std::size_t n = data.size();
  std::vector<std::size_t> ranks;
  ranks.reserve(qs.size());
  for (const double q : qs) {
    if (!(q >= 0.0 && q <= 1.0))
      throw std::invalid_argument(
          "dovetail::percentiles: quantile outside [0, 1]");
    ranks.push_back(static_cast<std::size_t>(
        std::llround(q * static_cast<double>(n - 1))));
  }
  // Coalesce the ranks into sorted disjoint singleton windows (adjacent
  // ranks merge into one window).
  std::vector<std::size_t> sorted_ranks = ranks;
  std::sort(sorted_ranks.begin(), sorted_ranks.end());
  sorted_ranks.erase(
      std::unique(sorted_ranks.begin(), sorted_ranks.end()),
      sorted_ranks.end());
  std::vector<rank_window> windows;
  for (const std::size_t r : sorted_ranks) {
    if (!windows.empty() && windows.back().hi == r)
      windows.back().hi = r + 1;
    else
      windows.push_back({r, r + 1});
  }
  const detail::call_scope call(opt);
  detail::scratch_array<K> tmp(n, call.ws(), opt.stats);
  const std::span<K> t = tmp.get();
  par::parallel_for(0, n, [&](std::size_t i) { t[i] = data[i]; });
  detail::select_by_rank(t, [](const K& v) -> const K& { return v; },
                         std::span<const rank_window>(windows), call.opt());
  std::vector<K> out;
  out.reserve(qs.size());
  for (const std::size_t r : ranks) out.push_back(t[r]);
  return out;
}

template <typename K>
  requires any_sortable_key<K>
std::vector<K> percentiles(std::span<const K> data,
                           std::initializer_list<double> qs,
                           const auto_sort_options& opt = {}) {
  return percentiles(data, std::span<const double>(qs.begin(), qs.size()),
                     opt);
}

}  // namespace dovetail
