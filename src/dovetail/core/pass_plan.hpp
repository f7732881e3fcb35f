// The pass planner shared by the radix kernels: how many key bits each
// distribution pass resolves. DTSort (Alg 2), the front door's LSD route
// and the in-place MSD kernel each state their digit rule next to their
// code; detail::plan_digits turns a rule and the call's shape (n, key bits,
// θ, record bytes, workers) into the digit that makes the fewest passes
// over memory. DTSort's sequential base case takes its digit from
// detail::finish_digit, per segment.
//
// Every pass is a stable (or, in place, order-free) distribution, so the
// plan changes how much memory traffic a sort costs, never its output.
#pragma once

#include <algorithm>
#include <cstddef>

#include "dovetail/util/bits.hpp"

namespace dovetail::detail {

struct block_geometry {
  std::size_t nblocks;
  std::size_t bsize;
};

// Appendix B: keep the counting matrix around L1/L2 size — blocks of at
// least max(8*B, 16384) records, at most 8 blocks per worker. The pass is
// stable at any block count, so output is unchanged.
inline block_geometry distribution_blocks(std::size_t n,
                                          std::size_t num_buckets,
                                          int workers) {
  const auto p = static_cast<std::size_t>(std::max(1, workers));
  const std::size_t min_block = std::max<std::size_t>(8 * num_buckets, 16384);
  const std::size_t nblocks = std::clamp<std::size_t>(n / min_block, 1, 8 * p);
  return {nblocks, (n + nblocks - 1) / nblocks};
}

// Thm 4.5's sampling condition for one DTSort level over n' records,
// n' >= 2^(2·digit): the digit is at most half of log2 n' (and at least 2).
inline int sampling_digit_cap(std::size_t n) {
  return std::max(2, static_cast<int>(floor_log2(n) / 2));
}

// A digit wider than a kernel's base width must keep its counting matrix
// (blocks × buckets cells, from distribution_blocks) at one cell per this
// many records: the cells are zeroed, counted and walked column-wise for
// the scatter cursors on every pass, so they are bookkeeping the saved pass
// has to pay for.
inline constexpr std::size_t kRecordsPerMatrixCell = 16;

// A kernel's digit rule.
struct digit_rule {
  int base;    // default width: the plan never goes below it, except that
               // Thm 4.5's cap (sampled) still applies
  int widest;  // fan-out cap of the kernel
  // Widths above `base` are considered only once the records
  // (n · record bytes) reach this many bytes.
  std::size_t wide_min_bytes = 0;
  bool sampled = false;  // DTSort: apply sampling_digit_cap(n)
};

struct pass_request {
  std::size_t n = 0;
  // Bits the passes must resolve. MSD kernels pass the exact width; LSD's
  // comes from a sample, so its plan never narrows the digit to it.
  int key_bits = 0;
  // MSD base case: subproblems of at most θ records stop distributing.
  // 0 = no base case (LSD: every pass covers every record and every bit).
  std::size_t theta = 0;
  std::size_t record_bytes = 0;
  int workers = 1;  // workers the passes run under (sizes the matrix)
};

struct digit_plan {
  int digit = 0;   // bits per pass; an LSD pass past the last full digit
                   // takes the remaining bits
  int passes = 0;  // passes over the records: LSD passes, or MSD levels
                   // for keys spread evenly over their range
};

// The digit that makes the fewest passes. The widest allowed digit is the
// largest width up to rule.widest whose counting matrix fits
// kRecordsPerMatrixCell (or rule.base, which the matrix limit never cuts),
// then capped by Thm 4.5 for sampled kernels. The passes needed follow
// from the bits to resolve: all key bits for LSD; for an MSD kernel only
// enough to bring n evenly spread records down to θ. Of the digits that
// make that few passes, the plan takes the narrowest one at or above
// rule.base (narrower digits mean smaller counting matrices and staging),
// so a key width that a wider digit cannot cover in fewer passes keeps the
// base width.
inline digit_plan plan_digits(const digit_rule& rule, const pass_request& r) {
  int cap = rule.base;
  if (r.n * r.record_bytes >= rule.wide_min_bytes) {
    for (int d = rule.widest; d > rule.base; --d) {
      const std::size_t buckets = std::size_t{1} << d;
      const block_geometry g = distribution_blocks(r.n, buckets, r.workers);
      if (g.nblocks * buckets * kRecordsPerMatrixCell <= r.n) {
        cap = d;
        break;
      }
    }
  }
  if (rule.sampled) cap = std::min(cap, sampling_digit_cap(r.n));

  int need = std::max(0, r.key_bits);
  if (r.theta != 0) {
    need = std::min(
        need, static_cast<int>(ceil_log2((r.n + r.theta - 1) / r.theta)));
  }
  const int passes = (need + cap - 1) / cap;
  const int even = passes == 0 ? 0 : (need + passes - 1) / passes;
  int digit = std::min(cap, std::max(rule.base, even));
  if (r.theta != 0) digit = std::min(digit, r.key_bits);
  return {digit, passes};
}

// DTSort's base case (detail::radix_finish, dovetail_sort.hpp) places
// segments of at most kFinishLeaf records by rank, on composites of 60 key
// bits and 4 index bits.
inline constexpr std::size_t kFinishLeaf = 16;
inline constexpr int kFinishLeafKeyBits = 60;

// The base case's digit for a segment of n records whose keys differ in
// their low range_bits bits aims for leaves of about 8 records: the
// ceil(log2(n / 8)) bits that takes (at least 4) split evenly over the
// fewest levels of at most 11 bits, then clamped to the range and to
// [64 - kFinishLeafKeyBits, 11]. A θ-sized segment (2^13 + 1 to 2^14
// records) resolves 11 bits in one level; a smaller one takes a narrower digit
// instead of leaving 1-2-record leaves; a 2^16-record segment takes 7 bits
// and then 6 instead of 11 and then 4 into 26-record buckets. The stack
// histogram never has more cells than a segment above the leaf size has
// records, and what a level leaves to its leaves fits kFinishLeafKeyBits.
inline constexpr int kFinishWidest = 11;

inline int finish_digit(std::size_t n, int range_bits) {
  const int need = std::max(4, static_cast<int>(ceil_log2((n + 7) / 8)));
  const int levels = (need + kFinishWidest - 1) / kFinishWidest;
  return std::min(range_bits,
                  std::clamp((need + levels - 1) / levels,
                             64 - kFinishLeafKeyBits, kFinishWidest));
}

}  // namespace dovetail::detail
