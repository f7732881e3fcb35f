// Parallel comparison sorts used as primitives: a stable mergesort (used
// for base cases and overflow buckets, and as the stable comparison-sort
// baseline), the comparison finish of the radix sorts' ping-pong buffer
// pairs, and an unstable quicksort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "dovetail/parallel/merge.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace dovetail::par {

namespace detail {

inline constexpr std::size_t kSortBase = 4096;

// Sorts `a`; if `result_in_a` is false the sorted output is left in `b`
// instead. `a` and `b` have equal size and do not alias.
template <typename T, typename Comp>
void merge_sort_rec(std::span<T> a, std::span<T> b, const Comp& comp,
                    bool result_in_a) {
  const std::size_t n = a.size();
  if (n <= kSortBase) {
    std::stable_sort(a.begin(), a.end(), comp);
    if (!result_in_a) std::copy(a.begin(), a.end(), b.begin());
    return;
  }
  const std::size_t mid = n / 2;
  // Ping-pong: sort the halves so they land in the buffer we do NOT want
  // the final result in, then merge into the target buffer.
  pardo(
      [&] {
        merge_sort_rec(a.subspan(0, mid), b.subspan(0, mid), comp,
                       !result_in_a);
      },
      [&] {
        merge_sort_rec(a.subspan(mid), b.subspan(mid), comp, !result_in_a);
      });
  std::span<T> src = result_in_a ? b : a;
  std::span<T> dst = result_in_a ? a : b;
  merge(std::span<const T>(src.subspan(0, mid)),
        std::span<const T>(src.subspan(mid)), dst, comp);
}

}  // namespace detail

// Stable parallel mergesort using caller-provided scratch (same size).
template <typename T, typename Comp>
void merge_sort(std::span<T> a, std::span<T> scratch, const Comp& comp) {
  if (a.size() <= 1) return;
  detail::merge_sort_rec(a, scratch.subspan(0, a.size()), comp, true);
}

// Stable parallel mergesort; allocates its own scratch buffer.
template <typename T, typename Comp = std::less<T>>
void merge_sort(std::span<T> a, const Comp& comp = {}) {
  if (a.size() <= detail::kSortBase) {
    std::stable_sort(a.begin(), a.end(), comp);
    return;
  }
  std::unique_ptr<T[]> buf(new T[a.size()]);
  merge_sort(a, std::span<T>(buf.get(), a.size()), comp);
}

// The ping-pong helpers of the out-of-place radix sorts (DTSort, the MSD
// baseline): `a` and `t` are the matching segments of the result buffer A
// and its twin T, and `in_a` says which of them holds the records now.

// Moves the records into `a` if they live in `t`.
template <typename T>
void copy_back_to_a(std::span<T> a, std::span<T> t, bool in_a) {
  if (!in_a) copy(std::span<const T>(t), a);
}

// Stable comparison sort of the pair's records, landing in `a`: a parallel
// mergesort with the other segment as scratch above 2^15 records,
// std::stable_sort below.
template <typename T, typename Comp>
void stable_sort_to_a(std::span<T> a, std::span<T> t, bool in_a,
                      const Comp& comp) {
  const std::span<T> cur = in_a ? a : t;
  if (cur.size() > (std::size_t{1} << 15))
    merge_sort(cur, in_a ? t : a, comp);
  else
    std::stable_sort(cur.begin(), cur.end(), comp);
  copy_back_to_a(a, t, in_a);
}

// Unstable parallel quicksort (median-of-three, sequential partition,
// parallel recursion).
template <typename T, typename Comp = std::less<T>>
void quick_sort(std::span<T> a, const Comp& comp = {}) {
  const std::size_t n = a.size();
  if (n <= detail::kSortBase) {
    std::sort(a.begin(), a.end(), comp);
    return;
  }
  // Median of three as pivot.
  T& x = a[0];
  T& y = a[n / 2];
  T& z = a[n - 1];
  using std::swap;
  if (comp(y, x)) swap(x, y);
  if (comp(z, y)) {
    swap(y, z);
    if (comp(y, x)) swap(x, y);
  }
  T pivot = y;
  // Three-way partition (Dutch national flag) so duplicate-heavy inputs
  // do not degrade to quadratic behaviour.
  std::size_t lt = 0, i = 0, gt = n;
  while (i < gt) {
    if (comp(a[i], pivot)) {
      swap(a[lt++], a[i++]);
    } else if (comp(pivot, a[i])) {
      swap(a[i], a[--gt]);
    } else {
      ++i;
    }
  }
  pardo([&] { quick_sort(a.subspan(0, lt), comp); },
        [&] { quick_sort(a.subspan(gt), comp); });
}

}  // namespace dovetail::par
