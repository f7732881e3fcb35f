// Rank windows and the single-word pruning step of the MSD segment driver.
//
// A full sort does strictly more work than most production queries need:
// a leaderboard wants the smallest (or largest) k records, a latency
// monitor wants a handful of percentile ranks, a scheduler wants the
// median. All of these are RANK WINDOWS — half-open ranges [lo, hi) of
// positions in the stable sorted order — and a sort is the one window
// [0, n). The segment driver (wide_sort.hpp) asks one question of every
// segment it meets (window_fate): wholly inside a window, it sorts the
// segment on the current word; straddling a window boundary, it hands the
// segment to the rank_selector below; outside every window, it drops it.
//
// The selector is the MSD mirror of the engine's recursion within ONE
// word: distribute on the current radix digit through the SAME stable
// engine (core/distribute.hpp, workspace-leased, scatter-strategy aware),
// then recurse only into window-intersecting buckets. After one counting
// pass the bucket offsets pin every record's rank to its bucket's global
// range, so any bucket wholly OUTSIDE every window is already "done" —
// its records are placed, partitioned correctly against the window, and
// never looked at again. For k << n that prunes ~all of the input after
// the first pass — and when the counting pass shows most of a segment
// pruning, the selector does not even pay the scatter: the carve fast
// path copies only the active buckets' records aside (stably) and moves
// just the misplaced pruned records into the gaps between them
// (rank_selector::try_carve), so top-k costs one counting pass, one
// classify pass, and work proportional to k, not n log n — the
// bench_suite query-topk family measures the gap against a full
// dovetail::sort (speedup_vs_fullsort in BENCH_query.json).
//
// Buckets the selector stops at go back to the driver through two
// callbacks: a bucket wholly inside a window takes the driver's sort step
// on the word (`step`), and a bucket already in order on the word — tied
// on it, or finished by the selector's comparison base case — only has
// its equal-word runs handed on (`split`). What happens on later words
// (more key words, the string continuation, the true-key tie-break) is
// the driver's business, exactly as for a sort. Pruning decisions land in
// sort_stats (buckets_pruned / records_pruned, cumulative).
//
// Every pass is stable and confined to one bucket, so each window ends up
// holding exactly its slice of the stable full sort (see rank_window).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"

namespace dovetail {

// A half-open window [lo, hi) of positions in the stable sorted order.
// After a query every requested window holds exactly the records a stable
// full sort would put there, in that order; records outside the windows
// are bucket-partitioned consistently (everything before a window ranks
// below it, everything after ranks above) but not internally sorted.
struct rank_window {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] std::size_t size() const noexcept { return hi - lo; }
};

namespace detail {

// Where the segment [lo, hi) (non-empty) stands against `windows` (sorted,
// disjoint): only the first window ending after lo can intersect or
// contain it, so one binary search answers.
enum class window_fate : std::uint8_t { outside, straddles, inside };

inline window_fate fate_of(std::span<const rank_window> windows,
                           std::size_t lo, std::size_t hi) {
  const auto it = std::partition_point(
      windows.begin(), windows.end(),
      [lo](const rank_window& w) { return w.hi <= lo; });
  if (it == windows.end() || it->lo >= hi) return window_fate::outside;
  return it->lo <= lo && hi <= it->hi ? window_fate::inside
                                      : window_fate::straddles;
}

// True when `windows` is the whole array [0, n) — a sort.
inline bool covers_all(std::span<const rank_window> windows, std::size_t n) {
  return windows.size() == 1 && windows[0].lo == 0 && windows[0].hi >= n;
}

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

// The rank-window pruning step on one word: `word(rec)` is the word the
// segment is selected on; `windows` are in absolute positions of `all`.
// Recursion is serial ACROSS buckets (only a handful intersect the windows
// per level) while each distribution pass is internally parallel through
// the shared engine. `step(lo, hi)` sorts a bucket wholly inside a window
// on the word and hands its equal-word runs to the driver; `split(lo, hi)`
// hands on the runs of a bucket already in order on the word.
template <typename Rec, typename WordFn, typename Step, typename Split>
class rank_selector {
 public:
  rank_selector(std::span<Rec> all, WordFn word,
                std::span<const rank_window> windows, std::size_t base_case,
                sort_workspace& ws, sort_stats* st, Step step, Split split)
      : all_(all),
        word_(std::move(word)),
        windows_(windows),
        base_case_(std::max<std::size_t>(1, base_case)),
        ws_(ws),
        st_(st),
        step_(std::move(step)),
        split_(std::move(split)) {}

  // Select within [lo, hi), a segment that straddles a window boundary.
  void run(std::size_t lo, std::size_t hi) {
    select(lo, hi, -1);
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
  [[nodiscard]] bool intersects(std::size_t lo, std::size_t hi) const {
    return fate_of(windows_, lo, hi) != window_fate::outside;
  }

  // Select within the window-intersecting [lo, hi), in which only the low
  // `width` bits of the word vary (-1: not yet measured). Small buckets
  // finish with a stable comparison sort on the word, buckets inside a
  // window go to the driver's step, buckets tied on the word are handed
  // back as they are — a long shared prefix costs one min/max scan per
  // constant word, not one scatter.
  void select(std::size_t lo, std::size_t hi, int width) {
    const std::size_t n = hi - lo;
    if (n < 2) return;
    if (n <= base_case_) {
      stable_segment_sort(all_.subspan(lo, n), [this](const Rec& a,
                                                      const Rec& b) {
        return word_(a) < word_(b);
      });
      base_case_records_ += n;
      split_(lo, hi);
      return;
    }
    if (fate_of(windows_, lo, hi) == window_fate::inside) {
      step_(lo, hi);
      return;
    }
    if (width < 0) {
      const auto [mn, mx] = exact_key_range(
          std::span<const Rec>(all_.data() + lo, n), word_);
      width = 64 - std::countl_zero(mn ^ mx);
    }
    if (width == 0) {
      split_(lo, hi);
      return;
    }
    // Unaligned shift: the top byte of the RANGE (width - 8), not the
    // byte-aligned digit of the word. Selection has no LSD pass to stay
    // compatible with, so every level gets a full 8-bit fanout — a range
    // whose aligned top digit spans 2 values (width = 25) would otherwise
    // waste an entire distribution level on a 2-way split. Large segments
    // try the carve fast path first — with a 16-bit digit when the segment
    // is big enough to amortize the wider counting matrix (one wide fanout
    // instead of two levels, and the active bucket stays tiny even on
    // skewed byte distributions), else the regular 8-bit digit — and fall
    // back to the full stable scatter.
    if (width > static_cast<int>(kSelectRadixBits) && n >= kCarve16Min) {
      if (try_carve(lo, hi, std::max(0, width - 16), std::size_t{1} << 16))
        return;
    }
    const int shift =
        std::max(0, width - static_cast<int>(kSelectRadixBits));
    if (try_carve(lo, hi, shift, kSelectBuckets)) return;
    select_digit(lo, hi, shift);
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
  // caller (select).
  bool try_carve(std::size_t lo, std::size_t hi, int shift, std::size_t nb) {
    const std::size_t n = hi - lo;
    if (n < kCarveMin) return false;
    const auto digit_of = [&](const Rec& r) -> std::size_t {
      return static_cast<std::size_t>((word_(r) >> shift) & (nb - 1));
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
    for (const auto& [blo, bhi] : spans) select(blo, bhi, shift);
    return true;
  }

  // One stable distribution pass on the byte at `shift` of the word, then
  // recurse only into buckets that intersect a window. Buckets wholly
  // outside every window are DONE the moment the scatter places them:
  // their records' final ranks are pinned to the bucket's global range,
  // which no requested window overlaps. Large segments that prune most of
  // their records take the carve fast path above instead of paying the
  // full scatter + copy-back.
  void select_digit(std::size_t lo, std::size_t hi, int shift) {
    const std::size_t n = hi - lo;
    std::array<std::size_t, kSelectBuckets + 1> offs{};
    {
      const std::span<Rec> t = ws_.template record_buffer<Rec>(n, st_);
      sort_workspace::lease ol =
          ws_.acquire((kSelectBuckets + 1) * sizeof(std::size_t), st_);
      const std::span<std::size_t> po =
          ol.template carve<std::size_t>(kSelectBuckets + 1);
      distribute_options dopt;
      dopt.workspace = &ws_;
      dopt.stats = st_;
      distribute(std::span<const Rec>(all_.data() + lo, n), t,
                 kSelectBuckets,
                 [&](const Rec& r) -> std::size_t {
                   return static_cast<std::size_t>(
                       (word_(r) >> shift) & (kSelectBuckets - 1));
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
      select(blo, bhi, shift);
    }
  }

  std::span<Rec> all_;
  WordFn word_;
  std::span<const rank_window> windows_;
  std::size_t base_case_;
  sort_workspace& ws_;
  sort_stats* st_;
  Step step_;
  Split split_;
  std::uint64_t buckets_pruned_ = 0;
  std::uint64_t records_pruned_ = 0;
  std::uint64_t base_case_records_ = 0;
  std::uint64_t distributed_records_ = 0;
  std::uint64_t num_distributions_ = 0;
};

}  // namespace detail

}  // namespace dovetail
