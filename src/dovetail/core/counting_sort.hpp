// Stable parallel counting sort (the "distribution" primitive, Sec 2.4 and
// Appendix B of the paper) — now a thin wrapper over the unified
// distribution engine in distribute.hpp, which owns the blocked algorithm:
//   1. bucket ids are evaluated once per record into a leased id array;
//   2. an L x B counting matrix and column-major prefix sums yield, for
//      every (block, bucket) pair, the stable output offset;
//   3. each block scatters its records (direct stores or buffered memcpy
//      bursts, see scatter_strategy in distribute.hpp).
//
// Work O(n + L*B), span O(B + n/L + log n). Scratch memory is leased from a
// sort_workspace — pass one via distribute_options to make repeated calls
// allocation-free; callers on the hot path (dovetail_sort.hpp, the radix
// baselines) use distribute() directly with leased offsets instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dovetail/core/distribute.hpp"

namespace dovetail {

// Distribute `in` into `out` grouped by bucket id, preserving input order
// within each bucket — unless opt.strategy is scatter_strategy::unstable:
// the Thm 4.1 variant (Appendix B), one atomic fetch-and-add per record,
// same offsets, order within a bucket unspecified.
//
// Requirements: Rec is trivially copyable; `bucket_of(rec)` is a pure
// function returning a value in [0, num_buckets); `in` and `out` must not
// alias and must have equal size.
//
// Complexity: O(n + L*B) work, O(B + n/L + log n) span (L = number of
// blocks, B = num_buckets). Space: O(L*B) counting scratch leased from
// opt.workspace — pass the same workspace to repeated calls and warm calls
// allocate nothing (the offsets vector returned here is the one remaining
// per-call allocation; hot paths use distribute() with leased offsets).
//
// Returns bucket offsets: offsets[k] is the first index of bucket k in
// `out`; offsets[num_buckets] == in.size().
template <typename Rec, typename BucketFn>
std::vector<std::size_t> counting_sort(std::span<const Rec> in,
                                       std::span<Rec> out,
                                       std::size_t num_buckets,
                                       const BucketFn& bucket_of,
                                       const distribute_options& opt = {}) {
  std::vector<std::size_t> offsets(num_buckets + 1);
  distribute(in, out, num_buckets, bucket_of,
             std::span<std::size_t>(offsets), opt);
  return offsets;
}

}  // namespace dovetail
