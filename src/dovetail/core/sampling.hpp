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

// Samples `num_samples` keys of `data` (masked by `mask`) at deterministic
// pseudo-random positions. `detect_heavy` toggles the heavy-key extraction
// (the range estimate is always produced). If `keep_samples` is non-null it
// receives the sorted sample vector, so callers that need more statistics
// from the same draw (input_sketch.hpp) do not sample twice.
template <typename Rec, typename KeyFn>
sample_result sample_keys(std::span<const Rec> data, const KeyFn& key,
                          std::uint64_t mask, std::size_t num_samples,
                          std::size_t subsample_stride, bool detect_heavy,
                          std::uint64_t seed,
                          std::vector<std::uint64_t>* keep_samples = nullptr) {
  sample_result res;
  const std::size_t n = data.size();
  if (n == 0 || num_samples == 0) return res;
  num_samples = std::min(num_samples, n);
  res.num_samples = num_samples;

  // The gather is a parallel loop (each position is an independent function
  // of (seed, i), so the draw is identical to the sequential one): the
  // random reads it scatters across `data` are the latency-bound part of
  // sampling, and at high worker counts a sequential gather here would be
  // Amdahl overhead on every sort. The sort of the samples stays
  // sequential — ~1k elements.
  std::vector<std::uint64_t> s(num_samples);
  par::parallel_for(0, num_samples, [&](std::size_t i) {
    const auto idx = static_cast<std::size_t>(par::rand_range(seed, i, n));
    s[i] = static_cast<std::uint64_t>(key(data[idx])) & mask;
  });
  std::sort(s.begin(), s.end());
  res.max_sample = s.back();

  if (!detect_heavy) {
    if (keep_samples != nullptr) *keep_samples = std::move(s);
    return res;
  }
  if (subsample_stride == 0) subsample_stride = 1;
  // Subsample s[0], s[stride], s[2*stride], ...; a key with two or more
  // subsamples is heavy.
  std::uint64_t prev = 0;
  bool have_prev = false;
  for (std::size_t j = 0; j < num_samples; j += subsample_stride) {
    std::uint64_t k = s[j];
    if (have_prev && k == prev) {
      if (res.heavy_keys.empty() || res.heavy_keys.back() != k)
        res.heavy_keys.push_back(k);
    }
    prev = k;
    have_prev = true;
  }
  if (keep_samples != nullptr) *keep_samples = std::move(s);
  return res;
}

}  // namespace dovetail
