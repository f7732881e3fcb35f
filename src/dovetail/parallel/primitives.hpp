// Parallel sequence primitives: tabulate, reduce, scan, pack/filter,
// histogram, copy, reverse. These mirror the ParlayLib primitives the paper
// builds on; all are deterministic and race-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace dovetail::par {

// ---------------------------------------------------------------------------
// tabulate: build a vector from a function of the index.
template <typename F>
auto tabulate(std::size_t n, F&& f) {
  using T = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

// ---------------------------------------------------------------------------
// reduce over [lo, hi) of map(i), combined with `op` (associative).
template <typename T, typename Map, typename Op>
T reduce_map(std::size_t lo, std::size_t hi, T identity, const Map& map,
             const Op& op, std::size_t gran = 0) {
  if (lo >= hi) return identity;
  std::size_t n = hi - lo;
  if (gran == 0) gran = default_granularity(n);
  if (n <= gran) {
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(std::move(acc), map(i));
    return acc;
  }
  std::size_t mid = lo + n / 2;
  T l{}, r{};
  pardo([&] { l = reduce_map(lo, mid, identity, map, op, gran); },
        [&] { r = reduce_map(mid, hi, identity, map, op, gran); });
  return op(std::move(l), std::move(r));
}

template <typename T, typename Op>
T reduce(std::span<const T> a, T identity, const Op& op) {
  return reduce_map(
      0, a.size(), identity, [&](std::size_t i) { return a[i]; }, op);
}

template <typename T>
T reduce_sum(std::span<const T> a) {
  return reduce(a, T{}, [](T x, T y) { return x + y; });
}

template <typename T>
T reduce_max(std::span<const T> a, T identity) {
  return reduce(a, identity, [](T x, T y) { return x < y ? y : x; });
}

// ---------------------------------------------------------------------------
// Exclusive scan (prefix sum). `in` and `out` may alias. Returns the total.
// Two-pass blocked algorithm: O(n) work, O(blocks + n/blocks) span.
template <typename T, typename Op>
T scan_exclusive(std::span<const T> in, std::span<T> out, T identity,
                 const Op& op) {
  const std::size_t n = in.size();
  if (n == 0) return identity;
  const std::size_t p = static_cast<std::size_t>(num_workers());
  const std::size_t nblocks =
      n <= 2048 ? 1 : std::min<std::size_t>(8 * p, (n + 2047) / 2048);
  const std::size_t bsize = (n + nblocks - 1) / nblocks;

  std::vector<T> sums(nblocks, identity);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i) acc = op(std::move(acc), in[i]);
        sums[b] = std::move(acc);
      },
      1);
  T total = identity;
  for (std::size_t b = 0; b < nblocks; ++b) {
    T next = op(total, sums[b]);
    sums[b] = std::move(total);
    total = std::move(next);
  }
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        T acc = sums[b];
        for (std::size_t i = lo; i < hi; ++i) {
          T v = in[i];  // read before the (possibly aliasing) write
          out[i] = acc;
          acc = op(std::move(acc), std::move(v));
        }
      },
      1);
  return total;
}

template <typename T>
T scan_exclusive_sum(std::span<const T> in, std::span<T> out) {
  return scan_exclusive(in, out, T{}, [](T x, T y) { return x + y; });
}

// ---------------------------------------------------------------------------
// pack/filter: keep elements satisfying `pred`, preserving order.
template <typename T, typename Pred>
std::vector<T> filter(std::span<const T> a, const Pred& pred) {
  const std::size_t n = a.size();
  if (n == 0) return {};
  const std::size_t p = static_cast<std::size_t>(num_workers());
  const std::size_t nblocks =
      n <= 4096 ? 1 : std::min<std::size_t>(8 * p, (n + 4095) / 4096);
  const std::size_t bsize = (n + nblocks - 1) / nblocks;

  std::vector<std::size_t> counts(nblocks, 0);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += pred(a[i]) ? 1 : 0;
        counts[b] = c;
      },
      1);
  std::size_t total = scan_exclusive_sum<std::size_t>(counts, counts);
  std::vector<T> out(total);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t pos = counts[b];
        for (std::size_t i = lo; i < hi; ++i)
          if (pred(a[i])) out[pos++] = a[i];
      },
      1);
  return out;
}

// ---------------------------------------------------------------------------
// run_starts: the positions p in (lo, hi) where `starts_run(p)` holds —
// element p differs from element p-1 — in increasing order. Count-then-
// emit over blocks of >= 8192 positions: one pass counts each block's
// positions, `storage(count)` hands back room for all of them (a leased
// table, a result vector) and a second pass writes them, so the scan
// itself allocates only the O(workers) block-count vector. Returns the
// filled span.
template <typename StartsRun, typename Storage>
std::span<std::size_t> run_starts(std::size_t lo, std::size_t hi,
                                  const StartsRun& starts_run,
                                  const Storage& storage) {
  const std::size_t n = hi - lo;
  const std::size_t nblocks =
      n <= 8192 ? 1
                : std::min<std::size_t>(
                      8 * static_cast<std::size_t>(num_workers()),
                      (n + 8191) / 8192);
  const std::size_t bsize = (n + nblocks - 1) / nblocks;
  const auto block_lo = [&](std::size_t b) {
    return lo + std::max<std::size_t>(1, b * bsize);
  };
  const auto block_hi = [&](std::size_t b) {
    return lo + std::min(n, (b + 1) * bsize);
  };
  std::vector<std::size_t> counts(nblocks + 1, 0);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        std::size_t c = 0;
        for (std::size_t p = block_lo(b); p < block_hi(b); ++p)
          c += starts_run(p) ? 1 : 0;
        counts[b + 1] = c;
      },
      1);
  for (std::size_t b = 0; b < nblocks; ++b) counts[b + 1] += counts[b];
  const std::span<std::size_t> out =
      std::span<std::size_t>(storage(counts[nblocks])).first(counts[nblocks]);
  if (!out.empty()) {
    parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          std::size_t at = counts[b];
          for (std::size_t p = block_lo(b); p < block_hi(b); ++p)
            if (starts_run(p)) out[at++] = p;
        },
        1);
  }
  return out;
}

// {0, every run start in (0, n), n}: the bracketed boundary list of the
// maximal runs of [0, n) under run_starts' predicate ({0, 0} for n = 0).
template <typename StartsRun>
std::vector<std::size_t> run_bounds(std::size_t n,
                                    const StartsRun& starts_run) {
  std::vector<std::size_t> bounds;
  run_starts(0, n, starts_run, [&](std::size_t count) {
    bounds.resize(count + 2);
    return std::span<std::size_t>(bounds).subspan(1, count);
  });
  bounds.front() = 0;
  bounds.back() = n;
  return bounds;
}

// ---------------------------------------------------------------------------
// histogram: counts per bucket for bucket_of(i) in [0, num_buckets).
template <typename BucketFn>
std::vector<std::size_t> histogram(std::size_t n, std::size_t num_buckets,
                                   const BucketFn& bucket_of) {
  const std::size_t p = static_cast<std::size_t>(num_workers());
  const std::size_t nblocks =
      n <= 4096 ? 1 : std::min<std::size_t>(4 * p, (n + 4095) / 4096);
  const std::size_t bsize = (n + nblocks - 1) / nblocks;
  std::vector<std::vector<std::size_t>> local(nblocks);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        local[b].assign(num_buckets, 0);
        std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        for (std::size_t i = lo; i < hi; ++i) ++local[b][bucket_of(i)];
      },
      1);
  std::vector<std::size_t> out(num_buckets, 0);
  parallel_for(0, num_buckets, [&](std::size_t k) {
    std::size_t c = 0;
    for (std::size_t b = 0; b < nblocks; ++b) c += local[b][k];
    out[k] = c;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Parallel copy and in-place reverse (the "flip" of DTMerge, Alg 3).
template <typename T>
void copy(std::span<const T> src, std::span<T> dst) {
  parallel_for(0, src.size(), [&](std::size_t i) { dst[i] = src[i]; });
}

template <typename T>
void reverse_inplace(std::span<T> a) {
  const std::size_t n = a.size();
  parallel_for(0, n / 2, [&](std::size_t i) {
    using std::swap;
    swap(a[i], a[n - 1 - i]);
  });
}

}  // namespace dovetail::par
