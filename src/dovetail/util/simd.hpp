// Runtime-dispatched SIMD inner loops (AVX2) with scalar fallbacks that are
// always compiled — one binary runs everywhere (ISSUE 10 tentpole b).
//
// Everything here is keyed off a single `simd::level()` switch:
//   * the base translation unit is compiled for the baseline ISA; the AVX2
//     bodies carry __attribute__((target("avx2"))) so the compiler may emit
//     them without raising the binary's ISA floor, and they are only ever
//     *called* after a runtime __builtin_cpu_supports("avx2") check;
//   * -DDOVETAIL_DISABLE_SIMD removes the AVX2 bodies entirely (the CI job
//     that keeps the scalar fallbacks honest);
//   * force_scalar(true) is the test hook: it flips level() to scalar at
//     runtime so the byte-identity pins (scalar vs SIMD output) can compare
//     both paths inside one process.
//
// Two families of helpers: the distribution engine's counting loops and the
// in-place kernel's raw-key base case:
//   * histogram_u16 / histogram_digit — bucket counting. The vector paths
//     widen 8/16 lanes per load and split the `++count[bucket]` increments
//     across four interleaved sub-histograms (the serial dependency on a
//     repeated bucket is the scalar loop's bottleneck, not the address
//     arithmetic). Counts are exact integer sums, so the result is
//     byte-identical to the scalar loop by construction.
//   * network_sort(u32/u64 span) — in-register Batcher/bitonic sorting
//     networks for tiny pure-key base cases (<= 32 x u32, <= 16 x u64).
//     Pure keys have a unique sorted byte sequence, so any correct network
//     is byte-identical to any correct sort.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if !defined(DOVETAIL_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DOVETAIL_SIMD_AVX2 1
#include <immintrin.h>
#else
#define DOVETAIL_SIMD_AVX2 0
#endif

namespace dovetail::simd {

enum class isa : std::uint8_t { scalar, avx2 };

inline const char* isa_name(isa l) {
  return l == isa::avx2 ? "avx2" : "scalar";
}

namespace detail {
inline std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> f{false};
  return f;
}
inline bool cpu_has_avx2() {
#if DOVETAIL_SIMD_AVX2
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}
}  // namespace detail

// Test hook: pretend the CPU has no vector units. Affects level() only —
// cheap enough to flip per test case.
inline void force_scalar(bool on) {
  detail::force_scalar_flag().store(on, std::memory_order_relaxed);
}
inline bool scalar_forced() {
  return detail::force_scalar_flag().load(std::memory_order_relaxed);
}

// The one switch every vector path keys off.
inline isa level() {
  if (scalar_forced()) return isa::scalar;
  return detail::cpu_has_avx2() ? isa::avx2 : isa::scalar;
}

// ---------------------------------------------------------------------------
// Histograms. Contract: ADD into `counts` (callers zero their row first);
// every id / extracted digit must be < num_buckets. Byte-identical to the
// scalar loop on any level().

namespace detail {

// Sub-histogram splitting pays for its zero+merge only when the block is
// long relative to the bucket count, and the stack footprint (4 rows) is
// only acceptable for engine-sized radixes.
inline constexpr std::size_t kSubHistMaxBuckets = 2048;

inline bool want_subhist(std::size_t n, std::size_t num_buckets) {
  return num_buckets <= kSubHistMaxBuckets && n >= 4 * num_buckets;
}

#if DOVETAIL_SIMD_AVX2

__attribute__((target("avx2"))) inline void histogram_u16_avx2(
    const std::uint16_t* ids, std::size_t n, std::size_t* counts,
    std::size_t num_buckets) {
  if (!want_subhist(n, num_buckets)) {
    for (std::size_t i = 0; i < n; ++i) ++counts[ids[i]];
    return;
  }
  std::size_t sub[4][kSubHistMaxBuckets];
  for (auto& row : sub) std::memset(row, 0, num_buckets * sizeof(std::size_t));
  alignas(32) std::uint32_t lane[16];
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Widen 2 x 8 u16 lanes to u32, then bump four interleaved rows so a
    // run of equal ids does not serialize on one memory location.
    const __m128i h0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m128i h1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i + 8));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane),
                       _mm256_cvtepu16_epi32(h0));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane + 8),
                       _mm256_cvtepu16_epi32(h1));
    for (int j = 0; j < 16; j += 4) {
      ++sub[0][lane[j + 0]];
      ++sub[1][lane[j + 1]];
      ++sub[2][lane[j + 2]];
      ++sub[3][lane[j + 3]];
    }
  }
  for (; i < n; ++i) ++sub[0][ids[i]];
  for (std::size_t k = 0; k < num_buckets; ++k)
    counts[k] += sub[0][k] + sub[1][k] + sub[2][k] + sub[3][k];
}

__attribute__((target("avx2"))) inline void histogram_digit_u32_avx2(
    const std::uint32_t* keys, std::size_t n, int shift, std::uint32_t mask,
    std::size_t* counts) {
  const std::size_t num_buckets = static_cast<std::size_t>(mask) + 1;
  if (!want_subhist(n, num_buckets)) {
    for (std::size_t i = 0; i < n; ++i) ++counts[(keys[i] >> shift) & mask];
    return;
  }
  std::size_t sub[4][kSubHistMaxBuckets];
  for (auto& row : sub) std::memset(row, 0, num_buckets * sizeof(std::size_t));
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const __m256i msk = _mm256_set1_epi32(static_cast<int>(mask));
  alignas(32) std::uint32_t lane[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane),
                       _mm256_and_si256(_mm256_srl_epi32(v, sh), msk));
    ++sub[0][lane[0]];
    ++sub[1][lane[1]];
    ++sub[2][lane[2]];
    ++sub[3][lane[3]];
    ++sub[0][lane[4]];
    ++sub[1][lane[5]];
    ++sub[2][lane[6]];
    ++sub[3][lane[7]];
  }
  for (; i < n; ++i) ++sub[0][(keys[i] >> shift) & mask];
  for (std::size_t k = 0; k < num_buckets; ++k)
    counts[k] += sub[0][k] + sub[1][k] + sub[2][k] + sub[3][k];
}

__attribute__((target("avx2"))) inline void histogram_digit_u64_avx2(
    const std::uint64_t* keys, std::size_t n, int shift, std::uint64_t mask,
    std::size_t* counts) {
  const std::size_t num_buckets = static_cast<std::size_t>(mask) + 1;
  if (!want_subhist(n, num_buckets)) {
    for (std::size_t i = 0; i < n; ++i) ++counts[(keys[i] >> shift) & mask];
    return;
  }
  std::size_t sub[4][kSubHistMaxBuckets];
  for (auto& row : sub) std::memset(row, 0, num_buckets * sizeof(std::size_t));
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const __m256i msk = _mm256_set1_epi64x(static_cast<long long>(mask));
  alignas(32) std::uint64_t lane[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane),
                       _mm256_and_si256(_mm256_srl_epi64(v0, sh), msk));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane + 4),
                       _mm256_and_si256(_mm256_srl_epi64(v1, sh), msk));
    ++sub[0][lane[0]];
    ++sub[1][lane[1]];
    ++sub[2][lane[2]];
    ++sub[3][lane[3]];
    ++sub[0][lane[4]];
    ++sub[1][lane[5]];
    ++sub[2][lane[6]];
    ++sub[3][lane[7]];
  }
  for (; i < n; ++i) ++sub[0][(keys[i] >> shift) & mask];
  for (std::size_t k = 0; k < num_buckets; ++k)
    counts[k] += sub[0][k] + sub[1][k] + sub[2][k] + sub[3][k];
}

#endif  // DOVETAIL_SIMD_AVX2

}  // namespace detail

// Add one count per id: counts[ids[i]] += 1. The engine's phase-1 loop over
// the materialized bucket-id array (distribute.hpp).
inline void histogram_u16(const std::uint16_t* ids, std::size_t n,
                          std::size_t* counts, std::size_t num_buckets) {
#if DOVETAIL_SIMD_AVX2
  if (level() == isa::avx2) {
    detail::histogram_u16_avx2(ids, n, counts, num_buckets);
    return;
  }
#endif
  (void)num_buckets;
  for (std::size_t i = 0; i < n; ++i) ++counts[ids[i]];
}

// Add one count per extracted digit: counts[(keys[i] >> shift) & mask] += 1.
// The in-place kernel's histogram pass over raw unsigned keys.
inline void histogram_digit(const std::uint32_t* keys, std::size_t n,
                            int shift, std::uint32_t mask,
                            std::size_t* counts) {
#if DOVETAIL_SIMD_AVX2
  if (level() == isa::avx2) {
    detail::histogram_digit_u32_avx2(keys, n, shift, mask, counts);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) ++counts[(keys[i] >> shift) & mask];
}

inline void histogram_digit(const std::uint64_t* keys, std::size_t n,
                            int shift, std::uint64_t mask,
                            std::size_t* counts) {
#if DOVETAIL_SIMD_AVX2
  if (level() == isa::avx2) {
    detail::histogram_digit_u64_avx2(keys, n, shift, mask, counts);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) ++counts[(keys[i] >> shift) & mask];
}

// ---------------------------------------------------------------------------
// In-register sorting networks for tiny pure-key spans. Return true iff the
// span was sorted here; false means "fall back to the comparison sort"
// (span too long, or level() == scalar). Padding lanes carry the max key
// value: pads sort to the tail, past any real copies of the max, so the
// first n outputs are exactly the sorted input.

#if DOVETAIL_SIMD_AVX2

namespace detail {

template <int Blend>
__attribute__((target("avx2"))) inline __m256i coex_u32(__m256i v,
                                                        __m256i perm) {
  const __m256i ex = _mm256_permutevar8x32_epi32(v, perm);
  const __m256i mn = _mm256_min_epu32(v, ex);
  const __m256i mx = _mm256_max_epu32(v, ex);
  return _mm256_blend_epi32(mn, mx, Blend);
}

// Batcher network for 8 lanes: (0,1)(2,3)(4,5)(6,7) / (0,2)(1,3)(4,6)(5,7)
// / (1,2)(5,6) / (0,4)(1,5)(2,6)(3,7) / (2,4)(3,5) / (1,2)(3,4)(5,6).
__attribute__((target("avx2"))) inline __m256i sort8_u32(__m256i v) {
  v = coex_u32<0xAA>(v, _mm256_setr_epi32(1, 0, 3, 2, 5, 4, 7, 6));
  v = coex_u32<0xCC>(v, _mm256_setr_epi32(2, 3, 0, 1, 6, 7, 4, 5));
  v = coex_u32<0x44>(v, _mm256_setr_epi32(0, 2, 1, 3, 4, 6, 5, 7));
  v = coex_u32<0xF0>(v, _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3));
  v = coex_u32<0x30>(v, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
  v = coex_u32<0x54>(v, _mm256_setr_epi32(0, 2, 1, 4, 3, 6, 5, 7));
  return v;
}

// Clean-up of a bitonic 8-sequence: compare-exchange at distances 4, 2, 1.
__attribute__((target("avx2"))) inline __m256i clean8_u32(__m256i v) {
  v = coex_u32<0xF0>(v, _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3));
  v = coex_u32<0xCC>(v, _mm256_setr_epi32(2, 3, 0, 1, 6, 7, 4, 5));
  v = coex_u32<0xAA>(v, _mm256_setr_epi32(1, 0, 3, 2, 5, 4, 7, 6));
  return v;
}

__attribute__((target("avx2"))) inline __m256i reverse8_u32(__m256i v) {
  return _mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
}

// Bitonic merge of two sorted vectors: a ++ reverse(b) is bitonic.
__attribute__((target("avx2"))) inline void merge16_u32(__m256i& a,
                                                        __m256i& b) {
  const __m256i rb = reverse8_u32(b);
  const __m256i mn = _mm256_min_epu32(a, rb);
  const __m256i mx = _mm256_max_epu32(a, rb);
  a = clean8_u32(mn);
  b = clean8_u32(mx);
}

__attribute__((target("avx2"))) inline void network_sort_u32_avx2(
    std::uint32_t* buf, std::size_t words) {
  __m256i v0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  if (words == 1) {
    v0 = sort8_u32(v0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), v0);
    return;
  }
  __m256i v1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 8));
  v0 = sort8_u32(v0);
  v1 = sort8_u32(v1);
  merge16_u32(v0, v1);
  if (words > 2) {
    __m256i v2 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 16));
    __m256i v3 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 24));
    v2 = sort8_u32(v2);
    v3 = sort8_u32(v3);
    merge16_u32(v2, v3);
    // Merge the two sorted 16s: [v0 v1 rev(v3) rev(v2)] is bitonic; the
    // distance-16 compare is vertical, then each bitonic half merges with
    // a vertical distance-8 compare plus an in-vector clean-up.
    const __m256i r3 = reverse8_u32(v3);
    const __m256i r2 = reverse8_u32(v2);
    const __m256i x0 = _mm256_min_epu32(v0, r3);
    const __m256i ux0 = _mm256_max_epu32(v0, r3);
    const __m256i x1 = _mm256_min_epu32(v1, r2);
    const __m256i ux1 = _mm256_max_epu32(v1, r2);
    v0 = clean8_u32(_mm256_min_epu32(x0, x1));
    v1 = clean8_u32(_mm256_max_epu32(x0, x1));
    v2 = clean8_u32(_mm256_min_epu32(ux0, ux1));
    v3 = clean8_u32(_mm256_max_epu32(ux0, ux1));
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 16), v2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 24), v3);
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), v0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), v1);
}

// u64: 4 lanes per vector. AVX2 has no unsigned 64-bit min/max, so the
// compare goes through a sign-bit flip + cmpgt_epi64 + blend.
__attribute__((target("avx2"))) inline void minmax_u64(__m256i a, __m256i b,
                                                       __m256i& mn,
                                                       __m256i& mx) {
  const __m256i sgn = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sgn),
                                        _mm256_xor_si256(b, sgn));
  mn = _mm256_blendv_epi8(a, b, gt);
  mx = _mm256_blendv_epi8(b, a, gt);
}

template <int Perm, int Blend>
__attribute__((target("avx2"))) inline __m256i coex_u64(__m256i v) {
  const __m256i ex = _mm256_permute4x64_epi64(v, Perm);
  __m256i mn;
  __m256i mx;
  minmax_u64(v, ex, mn, mx);
  return _mm256_blend_epi32(mn, mx, Blend);
}

// Network for 4 lanes: (0,1)(2,3) / (0,2)(1,3) / (1,2).
__attribute__((target("avx2"))) inline __m256i sort4_u64(__m256i v) {
  v = coex_u64<0xB1, 0xCC>(v);  // perm [1,0,3,2]
  v = coex_u64<0x4E, 0xF0>(v);  // perm [2,3,0,1]
  v = coex_u64<0xD8, 0x30>(v);  // perm [0,2,1,3]
  return v;
}

__attribute__((target("avx2"))) inline __m256i clean4_u64(__m256i v) {
  v = coex_u64<0x4E, 0xF0>(v);  // distance 2
  v = coex_u64<0xB1, 0xCC>(v);  // distance 1
  return v;
}

__attribute__((target("avx2"))) inline __m256i reverse4_u64(__m256i v) {
  return _mm256_permute4x64_epi64(v, 0x1B);  // [3,2,1,0]
}

__attribute__((target("avx2"))) inline void merge8_u64(__m256i& a,
                                                       __m256i& b) {
  const __m256i rb = reverse4_u64(b);
  __m256i mn;
  __m256i mx;
  minmax_u64(a, rb, mn, mx);
  a = clean4_u64(mn);
  b = clean4_u64(mx);
}

__attribute__((target("avx2"))) inline void network_sort_u64_avx2(
    std::uint64_t* buf, std::size_t words) {
  __m256i v0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  if (words == 1) {
    v0 = sort4_u64(v0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), v0);
    return;
  }
  __m256i v1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 4));
  v0 = sort4_u64(v0);
  v1 = sort4_u64(v1);
  merge8_u64(v0, v1);
  if (words > 2) {
    __m256i v2 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 8));
    __m256i v3 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 12));
    v2 = sort4_u64(v2);
    v3 = sort4_u64(v3);
    merge8_u64(v2, v3);
    const __m256i r3 = reverse4_u64(v3);
    const __m256i r2 = reverse4_u64(v2);
    __m256i x0;
    __m256i ux0;
    __m256i x1;
    __m256i ux1;
    minmax_u64(v0, r3, x0, ux0);
    minmax_u64(v1, r2, x1, ux1);
    __m256i mn;
    __m256i mx;
    minmax_u64(x0, x1, mn, mx);
    v0 = clean4_u64(mn);
    v1 = clean4_u64(mx);
    minmax_u64(ux0, ux1, mn, mx);
    v2 = clean4_u64(mn);
    v3 = clean4_u64(mx);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), v2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 12), v3);
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), v0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 4), v1);
}

}  // namespace detail

#endif  // DOVETAIL_SIMD_AVX2

inline bool network_sort(std::span<std::uint32_t> a) {
  const std::size_t n = a.size();
  if (n > 32 || level() != isa::avx2) return false;
  if (n < 2) return true;
#if DOVETAIL_SIMD_AVX2
  alignas(32) std::uint32_t buf[32];
  const std::size_t words = (n + 7) / 8;
  // Pad the whole buffer: the kernel's words > 2 branch runs all four
  // vectors, so words == 3 still reads buf[24..31].
  std::memset(buf, 0xFF, sizeof(buf));
  std::memcpy(buf, a.data(), n * sizeof(std::uint32_t));
  detail::network_sort_u32_avx2(buf, words);
  std::memcpy(a.data(), buf, n * sizeof(std::uint32_t));
  return true;
#else
  return false;
#endif
}

inline bool network_sort(std::span<std::uint64_t> a) {
  const std::size_t n = a.size();
  if (n > 16 || level() != isa::avx2) return false;
  if (n < 2) return true;
#if DOVETAIL_SIMD_AVX2
  alignas(32) std::uint64_t buf[16];
  const std::size_t words = (n + 3) / 4;
  // Pad the whole buffer (see the u32 overload: words == 3 reads all four).
  std::memset(buf, 0xFF, sizeof(buf));
  std::memcpy(buf, a.data(), n * sizeof(std::uint64_t));
  detail::network_sort_u64_avx2(buf, words);
  std::memcpy(a.data(), buf, n * sizeof(std::uint64_t));
  return true;
#else
  return false;
#endif
}

}  // namespace dovetail::simd
