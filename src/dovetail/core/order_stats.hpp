// Order-statistics queries — rank-pruned top-k / nth_element /
// partial_sort / percentiles over the typed front door.
//
// Every query here is a set of RANK WINDOWS (rank_select.hpp) — half-open
// ranges [lo, hi) of positions in the stable sorted order — handed to the
// same router as dovetail::sort (detail::sort_windows, auto_sort.hpp),
// which runs the one MSD segment driver (wide_sort.hpp) with those windows
// instead of [0, n): segments wholly inside a window are sorted, segments
// straddling a window boundary are pruned by the rank_selector, and
// segments outside every window are dropped. Windows near either end (a
// top-k, a short partial_sort, nth_element close to the minimum or the
// maximum) cost one read pass over a sampled pivot plus work
// proportional to the few records on the window's side of it; other
// windows are pruned digit by digit (the bench_suite query-topk and
// query-select families measure both against a full dovetail::sort,
// speedup_vs_fullsort in BENCH_query.json). Pruning decisions land in
// sort_stats (buckets_pruned / records_pruned).
//
// Semantics are defined by ONE reference: every query result is exactly a
// slice of the stable full sort. top_k == stable_sort(data)[0..k) byte
// for byte (ties resolved to the earliest input records), nth_element
// puts the stable-sort resident of position nth there, percentiles reads
// nearest ranks out of the stable order. The selection is stable by
// construction — every distribution pass is stable and confined to one
// bucket, exactly as in the full sort.
//
// Codec coverage and routes match dovetail::sort: unsigned/signed
// integers, float/double (IEEE total order), composites, 128-bit integers,
// std::string/string_view — cheap codecs on trivially copyable records
// fuse (single-word keys select on word 0, wide keys word by word through
// the fused driver); everything else takes the encode-once route. Wide
// keys prune word 0 first and refine only surviving segments on later
// words; string keys past the materialized prefix continue by radix
// exactly as a sort does.
// Workspace/stats contract as dovetail::sort: all O(n) scratch is leased,
// warm repeated queries on one workspace allocate nothing.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/rank_select.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"

namespace dovetail {

// Which end of the sorted order top_k selects.
enum class rank_side : std::uint8_t { smallest, largest };

// The k smallest (or largest) records by key(record), stable: the result
// is byte-identical to the first (last) k entries of a stable full sort —
// ties go to the earliest input records for rank_side::smallest and the
// latest for rank_side::largest, exactly as the stable order dictates.
// `data` is rearranged in place; the returned span views the results
// WITHIN data (the front for smallest, the tail for largest), in
// ascending key order. k is clamped to data.size().
//
// Work: for k <= n/64, one read pass over n plus work proportional to
// the candidates a sampled pivot lets through (a small multiple of k);
// otherwise distribution passes that prune every bucket outside [0, k)
// (sort_stats::buckets_pruned / records_pruned count both). Workspace/
// stats contract as dovetail::sort: warm repeated queries on one
// workspace allocate nothing.
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
  const std::size_t n = data.size();
  k = std::min(k, n);
  if (k > 0) {
    const rank_window w = side == rank_side::smallest
                              ? rank_window{0, k}
                              : rank_window{n - k, n};
    detail::sort_windows(data, key, {&w, 1}, opt);
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
  if (nth >= data.size())
    throw std::out_of_range("dovetail::nth_element: nth out of range");
  const rank_window w{nth, nth + 1};
  detail::sort_windows(data, key, {&w, 1}, opt);
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
  m = std::min(m, data.size());
  if (m == 0) return;
  const rank_window w{0, m};
  detail::sort_windows(data, key, {&w, 1}, opt);
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
  detail::sort_windows(t, self_key{}, windows, call.opt());
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
