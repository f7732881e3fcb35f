// Cheap input sketching for the adaptive front door (auto_sort.hpp).
//
// The paper's conclusion (Sec 6, Tab 3) — and Gerbessiotis's across the
// multicore radix family — is that no single integer sort wins everywhere:
// the best kernel depends on the input's size, key range, duplicate
// structure and bitwise skew. A dispatcher therefore needs an o(n) summary
// of exactly those properties. This header computes it:
//
//   * key sample       — Θ(2^γ log n)-style uniform sample of keys (the same
//                        deterministic sampling machinery as sampling.hpp,
//                        which also supplies the heavy-key count and range
//                        estimate used by dovetail_sort itself), sorted once
//                        to yield min/max, distinct count, the most frequent
//                        key's share, and the skew of the low radix digit;
//   * order probes     — uniformly sampled *adjacent* pairs (i, i+1),
//                        classified ascending / equal / descending. Zero
//                        descending probes is strong evidence of a (near-)
//                        sorted input; zero ascending probes of a reversed
//                        one. Probes must be adjacent pairs: strided pairs
//                        would also look sorted on noisy-but-globally-
//                        increasing data that the run-merge kernel cannot
//                        exploit.
//
// Everything is a deterministic function of (seed, position), so a sketch —
// and hence every dispatch decision built on it — is reproducible. Cost is
// O(samples log samples + probes) with ~1.5k random reads:
// microseconds, against milliseconds for the cheapest sort of a
// dispatch-sized input.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sampling.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail {

// The sketch's budget: keys sampled for the range/duplicate statistics
// (capped at n) and adjacent pairs probed for the order statistics (capped
// at n - 1). The heavy-key rule subsamples at subsample_stride(n), the
// stride dovetail_sort uses.
inline constexpr std::size_t kSketchSamples = 1024;
inline constexpr std::size_t kSketchProbes = 512;

struct sketch_options {
  // Seed for the deterministic sample/probe positions.
  std::uint64_t seed = 42;
};

struct input_sketch {
  std::size_t n = 0;

  // --- record/key-functor facts (filled by the dispatcher, not by
  // sketch_input: they come from the types, not the data) ---
  std::size_t record_bytes = 0;  // sizeof(record); 0 = not filled
  // Equal encoded keys imply byte-identical records (the key functor is a
  // pure-key functor per is_pure_key_fn_v in key_codec.hpp — e.g. a plain
  // unsigned/signed/float span sorted by itself). When true the unstable
  // in-place kernel is indistinguishable from a stable one, so the
  // dispatcher may select it without stability::relaxed.
  bool pure_key_records = false;

  // --- key-sample statistics ---
  std::size_t num_samples = 0;
  std::uint64_t min_sample = 0;
  std::uint64_t max_sample = 0;
  int key_bits = 0;                 // bit_width(max_sample)
  std::size_t distinct_samples = 0; // distinct keys among the samples
  std::size_t top_count = 0;        // multiplicity of the most frequent sample
  // Most frequent low byte among the *distinct* sampled keys. Deduplicating
  // first separates bitwise skew (the BExp family: every key's bits lean
  // the same way) from plain duplication (a heavy key repeating its byte),
  // which the top_count/distinct fields already capture.
  std::size_t digit_top_count = 0;
  std::size_t heavy_keys = 0;       // heavy keys per the Sec 2.5 sample rule

  // --- adjacent-pair order probes ---
  std::size_t probes = 0;
  std::size_t asc_probes = 0;   // key(a[i]) <  key(a[i+1])
  std::size_t eq_probes = 0;    // key(a[i]) == key(a[i+1])
  std::size_t desc_probes = 0;  // key(a[i]) >  key(a[i+1])

  // Sampled key range (inclusive width estimate; the true range can only be
  // wider, which is why the counting-sort branch re-checks exactly).
  [[nodiscard]] std::uint64_t sample_range() const {
    return max_sample - min_sample;
  }
  // Fraction of samples that were distinct — low means heavy duplication.
  [[nodiscard]] double distinct_ratio() const {
    return num_samples == 0
               ? 1.0
               : static_cast<double>(distinct_samples) /
                     static_cast<double>(num_samples);
  }
  // Share of the single most frequent sampled key.
  [[nodiscard]] double top_freq() const {
    return num_samples == 0 ? 0.0
                            : static_cast<double>(top_count) /
                                  static_cast<double>(num_samples);
  }
  // Share of the most frequent low radix digit (byte) among distinct
  // sampled keys. ~1/256 for keys with uniform low bits; large for
  // bitwise-skewed inputs (the BExp family), where direct stores beat
  // buffered staging because few scatter cursors are hot.
  [[nodiscard]] double digit_top_share() const {
    return distinct_samples == 0 ? 0.0
                                 : static_cast<double>(digit_top_count) /
                                       static_cast<double>(distinct_samples);
  }
  // No probed adjacent pair descended: likely sorted (or trivially short).
  [[nodiscard]] bool maybe_sorted() const { return desc_probes == 0; }
  // Every probed pair descended or tied, with at least one real descent:
  // likely reverse-sorted.
  [[nodiscard]] bool maybe_reverse_sorted() const {
    return asc_probes == 0 && desc_probes > 0;
  }
};

// Sketch `data` under `key`. Pure read-only; deterministic for a fixed
// opt.seed. Requirements match the sorters': `key` is a pure function of
// the record returning an unsigned integer — or any other codec-covered
// type (key_codec.hpp), in which case the sketch runs over the ENCODED
// keys: exactly what the dispatcher and the radix kernels will see, so
// range/digit/order statistics stay meaningful (e.g. a descending float
// array still probes as descending, because the total-order transform is
// monotone).
template <typename Rec, typename KeyFn>
input_sketch sketch_input(std::span<const Rec> data, const KeyFn& key,
                          const sketch_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  if constexpr (!std::is_unsigned_v<K>) {
    static_assert(any_sortable_key<K>,
                  "sketch_input: the key type has no key_codec "
                  "(see core/key_codec.hpp)");
    if constexpr (!sortable_key<K>) {
      // Wide (multi-word) key: sketch the most significant word — exactly
      // what the refine driver's word-0 dispatch will see (wide_sort.hpp).
      return sketch_input(
          data,
          [&key](const Rec& r) {
            return wide_key_traits<K>::word(key(r), 0);
          },
          opt);
    } else {
      return sketch_input(
          data,
          [&key](const Rec& r) { return key_codec<K>::encode(key(r)); },
          opt);
    }
  } else {
  input_sketch s;
  s.n = data.size();
  if (s.n == 0) return s;
  const auto keyof = [&](const Rec& r) {
    return static_cast<std::uint64_t>(key(r));
  };

  // Heavy-key detection and the max-sample range estimate reuse the exact
  // sampling scheme dovetail_sort runs internally (sampling.hpp): same
  // positions for the same seed, so the sketch predicts what the sort
  // would itself detect.
  const std::size_t ns = std::min(s.n, kSketchSamples);
  std::vector<std::uint64_t> sample;
  const sample_result sr =
      sample_keys(data, keyof, ~std::uint64_t{0}, ns, subsample_stride(s.n),
                  /*detect_heavy=*/true, opt.seed, &sample);
  s.heavy_keys = sr.heavy_keys.size();
  s.num_samples = sr.num_samples;
  s.max_sample = sr.max_sample;
  s.key_bits = bit_width_u64(sr.max_sample);

  // Duplicate / digit statistics from the same (already sorted) draw.
  s.min_sample = sample.front();
  std::size_t digit_hist[256] = {};
  std::size_t run = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (i == 0 || sample[i] != sample[i - 1]) {
      ++s.distinct_samples;
      ++digit_hist[sample[i] & 0xFF];  // each distinct key counted once
      run = 0;
    }
    s.top_count = std::max(s.top_count, ++run);
  }
  for (const std::size_t c : digit_hist)
    s.digit_top_count = std::max(s.digit_top_count, c);

  // Order probes over adjacent pairs at independent positions. Each probe
  // is a pure function of (seed, j), so the parallel tally classifies
  // exactly the pairs the sequential loop would — the counts (and hence
  // every dispatch decision) are reproducible at any worker count. Like
  // the sample gather, the probes are latency-bound random reads: the part
  // of the o(n) pre-work worth spreading across workers.
  if (s.n >= 2) {
    s.probes = std::min(s.n - 1, kSketchProbes);
    struct tally {
      std::size_t asc = 0, eq = 0, desc = 0;
    };
    const tally t = par::reduce_map(
        0, s.probes, tally{},
        [&](std::size_t j) {
          const auto p = static_cast<std::size_t>(
              par::rand_range(opt.seed ^ 0x0DDE55AAull, j, s.n - 1));
          const std::uint64_t a = keyof(data[p]), b = keyof(data[p + 1]);
          tally one;
          if (a < b)
            one.asc = 1;
          else if (a == b)
            one.eq = 1;
          else
            one.desc = 1;
          return one;
        },
        [](tally x, tally y) {
          return tally{x.asc + y.asc, x.eq + y.eq, x.desc + y.desc};
        });
    s.asc_probes = t.asc;
    s.eq_probes = t.eq;
    s.desc_probes = t.desc;
  }
  return s;
  }  // constexpr-else: unsigned keys
}

}  // namespace dovetail
