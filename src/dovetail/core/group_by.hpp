// First-class group-by — the public face of semisort (Sec 2.5) on the
// typed front door.
//
// semisort.hpp reorders records so equal keys become adjacent, but it
// speaks raw unsigned keys and hands back a bare array; callers still
// re-derive the group structure themselves. group_by packages the whole
// query: stably co-sort a keys/values pair of arrays by ANY codec-covered
// key type (signed, float, 128-bit, strings — everything dovetail::sort
// takes), then return a grouped_view with the group offsets already
// scanned, so `for (g : view) aggregate(view.group(g))` is the entire
// caller-side loop.
//
// Two group orders:
//   * group_order::sorted (default) — groups appear in ascending codec
//     key order. The output arrays are BYTE-IDENTICAL to
//     dovetail::sort_by_key followed by an adjacency scan: the strongest
//     possible equivalence, tested per codec kind in
//     test_order_stats.cpp.
//   * group_order::fingerprint — the semisort promotion: integral keys
//     are sorted by their bijective 64-bit hash fingerprint
//     (par::hash64), which is what the paper's heavy-key machinery was
//     designed around — heavily duplicated inputs finish in O(n) because
//     big groups ride the heavy-bucket path. Group order is arbitrary
//     but deterministic; within-group order is stable. Non-integral keys
//     have no bijective fingerprint and silently take the sorted route
//     (grouping is still correct, just also ordered).
//
// Workspace/stats contract as dovetail::sort: scratch is leased, warm
// repeated calls on one workspace allocate nothing beyond the returned
// offsets vector; the query is recorded in sort_stats::query_kind as
// query_kind::group_by.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"

namespace dovetail {

// Order of the groups in a grouped_view (within-group order is stable
// either way).
enum class group_order : std::uint8_t {
  sorted,       // ascending codec key order — identical to sort+scan
  fingerprint,  // hashed semisort order (integral keys; others -> sorted)
};

// The result of group_by: views over the caller's (now grouped) arrays
// plus the group boundary offsets. Group g occupies
// [offsets[g], offsets[g+1]) in both arrays; offsets always ends with
// the total size (empty input: offsets == {0}, num_groups() == 0).
template <typename K, typename V>
struct grouped_view {
  std::span<K> keys;
  std::span<V> values;
  std::vector<std::size_t> offsets;

  [[nodiscard]] std::size_t num_groups() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::size_t group_size(std::size_t g) const {
    return offsets[g + 1] - offsets[g];
  }
  // The (shared) key of group g.
  [[nodiscard]] const K& key(std::size_t g) const {
    return keys[offsets[g]];
  }
  // The values of group g, in stable (input) order.
  [[nodiscard]] std::span<V> group(std::size_t g) const {
    return values.subspan(offsets[g], group_size(g));
  }
  [[nodiscard]] std::span<K> group_keys(std::size_t g) const {
    return keys.subspan(offsets[g], group_size(g));
  }
};

namespace detail {

// Group boundary offsets of grouped keys: positions i with
// keys[i-1] != keys[i], bracketed by 0 and n ({0} when empty) —
// adjacency only, never a second key decode.
template <typename K>
std::vector<std::size_t> group_offsets(std::span<const K> keys) {
  if (keys.empty()) return {0};
  return par::run_bounds(keys.size(), [&](std::size_t i) {
    return !(keys[i - 1] == keys[i]);
  });
}

// The fingerprint (semisort) route for integral keys under
// group_order::fingerprint: a stable sort of hash64(key) through the
// encode-once route, applied to `keys` and (unless empty) `values`.
// hash64 is a bijective 64-bit mixer, so distinct keys never collide and
// equal keys always do — grouping is exact, and the heavy-key sampling
// inside the engine gives big groups their own buckets. Returns false
// when the sorted route applies instead (non-integral keys have no
// bijective fingerprint).
template <typename K, typename V>
bool group_by_fingerprint(std::span<K> keys, std::span<V> values,
                          const auto_sort_options& opt, group_order order) {
  if constexpr (std::integral<std::remove_cvref_t<K>>) {
    if (order == group_order::fingerprint) {
      const call_scope call(opt);
      sort_arrays(
          keys, values,
          [&](std::size_t i) {
            return par::hash64(static_cast<std::uint64_t>(keys[i]));
          },
          call.opt());
      return true;
    }
  }
  return false;
}

}  // namespace detail

// Group parallel key/value arrays (SoA) in place and return the grouped
// view. Stable within groups; group order per `order` (see above). The
// spans in the returned view alias the caller's arrays.
//
// Throws std::invalid_argument when the spans' sizes differ.
template <typename K, typename V>
grouped_view<K, V> group_by(std::span<K> keys, std::span<V> values,
                            const auto_sort_options& opt = {},
                            group_order order = group_order::sorted) {
  static_assert(any_sortable_key<K>,
                "dovetail::group_by: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  if (keys.size() != values.size())
    throw std::invalid_argument(
        "dovetail::group_by: keys and values differ in size");
  detail::note_query<K>(opt.stats, query_kind::group_by);
  if (!detail::group_by_fingerprint(keys, values, opt, order))
    dovetail::sort_by_key(keys, values, opt);
  return grouped_view<K, V>{
      keys, values,
      detail::group_offsets(std::span<const K>(keys.data(), keys.size()))};
}

// Keys-only overload: groups the keys themselves (the view's `values`
// alias `keys`).
template <typename K>
grouped_view<K, K> group_by(std::span<K> keys,
                            const auto_sort_options& opt = {},
                            group_order order = group_order::sorted) {
  static_assert(any_sortable_key<K>,
                "dovetail::group_by: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  detail::note_query<K>(opt.stats, query_kind::group_by);
  if (!detail::group_by_fingerprint(keys, std::span<K>{}, opt, order))
    dovetail::sort(keys, opt);
  return grouped_view<K, K>{
      keys, keys,
      detail::group_offsets(std::span<const K>(keys.data(), keys.size()))};
}

}  // namespace dovetail
