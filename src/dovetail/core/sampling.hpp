// Heavy-key detection by sampling (Sec 2.5 and Alg 2 lines 3-4).
//
// The scheme of Rajasekaran-Reif [47], as used by samplesort/semisort
// [6, 10, 23, 32]: draw Θ(2^γ log n) uniform samples, sort them, subsample
// every (log n)-th key; any key appearing at least twice among the
// subsamples is declared heavy. By Chernoff bounds such keys have
// Ω(n / 2^γ) occurrences in the input whp.
//
// The same samples also provide the key-range estimate for the
// overflow-bucket optimization (Sec 5): the largest sample bounds the
// effective key range; the rare keys above it land in an overflow bucket.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail {

// The subsample stride of the heavy-key rule for an n-record input: the
// paper's "every (log n)-th sample", clamped to [4, 24]. dovetail_sort
// subsamples with it, and input_sketch.hpp defaults to it, so the sketch
// predicts the heavy keys the sort will detect itself.
inline std::size_t subsample_stride(std::size_t n) {
  return std::clamp<std::size_t>(ceil_log2(std::max<std::size_t>(2, n)), 4,
                                 24);
}

struct sample_result {
  std::vector<std::uint64_t> heavy_keys;  // sorted ascending, deduplicated
  std::uint64_t max_sample = 0;           // largest sampled (masked) key
  std::size_t num_samples = 0;
};

// Fills `samples` with keys of the nonempty `data` (masked by `mask`) at
// deterministic pseudo-random positions, sorted ascending. The caller
// sizes the span, so a draw into stack or workspace memory allocates
// nothing (input_sketch.hpp).
//
// The gather is a parallel loop (each position is an independent function
// of (seed, i), so the draw is identical to the sequential one): the
// random reads it scatters across `data` are the latency-bound part of
// sampling, and at high worker counts a sequential gather here would be
// Amdahl overhead on every sort. The sort of the samples stays
// sequential.
template <typename Rec, typename KeyFn>
void sample_keys(std::span<const Rec> data, const KeyFn& key,
                 std::uint64_t mask, std::span<std::uint64_t> samples,
                 std::uint64_t seed) {
  const std::size_t n = data.size();
  par::parallel_for(0, samples.size(), [&](std::size_t i) {
    const auto idx = static_cast<std::size_t>(par::rand_range(seed, i, n));
    samples[i] = static_cast<std::uint64_t>(key(data[idx])) & mask;
  });
  std::sort(samples.begin(), samples.end());
}

// Calls f(k) once per heavy key of the sorted samples, ascending: the
// rule subsamples s[0], s[stride], s[2*stride], ...; a key with two or
// more subsamples is heavy.
template <typename F>
void for_each_heavy(std::span<const std::uint64_t> sorted, std::size_t stride,
                    const F& f) {
  stride = std::max<std::size_t>(stride, 1);
  for (std::size_t j = stride; j < sorted.size(); j += stride) {
    if (sorted[j] == sorted[j - stride] &&
        (j < 2 * stride || sorted[j - 2 * stride] != sorted[j]))
      f(sorted[j]);
  }
}

// Samples `num_samples` keys of `data` (masked by `mask`, capped at n) and
// summarises them: the range estimate always, the heavy keys when
// `detect_heavy` is set.
template <typename Rec, typename KeyFn>
sample_result sample_keys(std::span<const Rec> data, const KeyFn& key,
                          std::uint64_t mask, std::size_t num_samples,
                          std::size_t subsample_stride, bool detect_heavy,
                          std::uint64_t seed) {
  sample_result res;
  if (data.empty() || num_samples == 0) return res;
  std::vector<std::uint64_t> s(std::min(num_samples, data.size()));
  sample_keys(data, key, mask, std::span<std::uint64_t>(s), seed);
  res.num_samples = s.size();
  res.max_sample = s.back();
  if (detect_heavy) {
    for_each_heavy(std::span<const std::uint64_t>(s), subsample_stride,
                   [&](std::uint64_t k) { res.heavy_keys.push_back(k); });
  }
  return res;
}

}  // namespace dovetail
