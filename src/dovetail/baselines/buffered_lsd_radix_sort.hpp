// Buffered LSD radix sort — the stand-in for RADULS / RADULS2 (RD in the
// paper's Tab 2/3). RADULS's defining trick is software write-buffering:
// instead of scattering records one by one to 256 destinations (a TLB/cache
// nightmare), each block appends records to small per-bucket staging
// buffers and flushes a whole buffer at once when it fills, so writes to
// the output hit memory in contiguous bursts.
//
// That trick now lives in the unified distribution engine as the `buffered`
// scatter strategy (distribute.hpp), available to every radix layer; this
// baseline is simply the classic LSD sort pinned to it. The paper
// benchmarks RD on 64-bit records only (its kernels require records padded
// to 64-bit multiples); we keep the same spirit but accept any trivially
// copyable record. Stable, like RADULS.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/workspace.hpp"

namespace dovetail::baseline {

struct buffered_lsd_options {
  int gamma = 8;                        // digit width; 256 buckets per pass
  sort_workspace* workspace = nullptr;  // reuse across sorts; may be null
  sort_stats* stats = nullptr;          // engine counters; may be null
};

template <typename Rec, typename KeyFn>
void buffered_lsd_radix_sort(std::span<Rec> data, const KeyFn& key,
                             const buffered_lsd_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<Rec>);
  lsd_options lopt;
  lopt.gamma = std::clamp(opt.gamma, 1, 12);
  lopt.scatter = scatter_strategy::buffered;
  lopt.workspace = opt.workspace;
  lopt.stats = opt.stats;
  lsd_radix_sort(data, key, lopt);
}

template <typename K>
  requires std::is_unsigned_v<K>
void buffered_lsd_radix_sort(std::span<K> data,
                             const buffered_lsd_options& opt = {}) {
  buffered_lsd_radix_sort(data, [](const K& k) { return k; }, opt);
}

}  // namespace dovetail::baseline
