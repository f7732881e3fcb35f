// Property tests for every built-in key codec (core/key_codec.hpp):
//   * order preservation — a < b  ⇔  encode(a) < encode(b), checked
//     exhaustively on small domains (all of int8/int16, the full 2^16
//     pair<uint8, int8> composite domain) and by randomized sweeps on the
//     wide ones, with the documented edge cases pinned explicitly:
//     INT_MIN/INT_MAX, ±0.0 (distinct encodings, -0.0 first), subnormals,
//     ±infinity, and the NaN policy (sign-split totalOrder ends);
//   * exact round trip — decode(encode(k)) == k bit-for-bit (NaN payloads
//     included) and encode(decode(e)) == e on random encodings;
//   * composite packing — lexicographic order, smallest-fitting encoded_t,
//     nesting. (Composites beyond 64 bits become multi-word codecs; their
//     contracts live in tests/test_wide_sort.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "dovetail/core/key_codec.hpp"
#include "dovetail/parallel/random.hpp"

using namespace dovetail;

namespace {

// Deterministic pseudo-random 64-bit stream for the sweeps.
std::uint64_t rnd(std::uint64_t i) { return par::hash64(i * 0x9E3779B9ull + 7); }

template <typename K>
void expect_order_iff(const K& a, const K& b) {
  const auto ea = key_codec<K>::encode(a);
  const auto eb = key_codec<K>::encode(b);
  EXPECT_EQ(a < b, ea < eb);
  EXPECT_EQ(b < a, eb < ea);
  EXPECT_EQ(a == b, ea == eb);
}

template <typename K>
void expect_round_trip(const K& k) {
  EXPECT_EQ(key_codec<K>::decode(key_codec<K>::encode(k)), k);
}

}  // namespace

// ---------------------------------------------------------------------------
// Static contract: encoded types, kinds, cheapness.

static_assert(std::is_same_v<key_codec<std::uint32_t>::encoded_t,
                             std::uint32_t>);
static_assert(std::is_same_v<key_codec<std::int32_t>::encoded_t,
                             std::uint32_t>);
static_assert(std::is_same_v<key_codec<std::int8_t>::encoded_t,
                             std::uint8_t>);
static_assert(std::is_same_v<key_codec<float>::encoded_t, std::uint32_t>);
static_assert(std::is_same_v<key_codec<double>::encoded_t, std::uint64_t>);
static_assert(std::is_same_v<
              key_codec<std::pair<std::uint32_t, std::uint32_t>>::encoded_t,
              std::uint64_t>);
// Composites pack into the smallest fitting unsigned type.
static_assert(std::is_same_v<
              key_codec<std::pair<std::uint8_t, std::int8_t>>::encoded_t,
              std::uint16_t>);
static_assert(
    std::is_same_v<key_codec<std::tuple<std::uint16_t, std::int16_t,
                                        std::uint8_t>>::encoded_t,
                   std::uint64_t>);  // 40 bits -> u64
// Nested composites compose as long as the bits fit.
static_assert(std::is_same_v<
              key_codec<std::pair<std::pair<std::uint8_t, std::uint8_t>,
                                  std::uint16_t>>::encoded_t,
              std::uint32_t>);
// Nesting is budgeted by LOGICAL width, not container width: a 40-bit
// tuple (in a u64 container) nested next to a u16 is 56 bits — it fits.
using nested56 = std::pair<
    std::tuple<std::uint16_t, std::uint16_t, std::uint8_t>, std::uint16_t>;
static_assert(codec_traits<nested56>::encoded_bits == 56);
static_assert(std::is_same_v<key_codec<nested56>::encoded_t, std::uint64_t>);
static_assert(
    codec_traits<std::tuple<std::uint16_t, std::int16_t,
                            std::uint8_t>>::encoded_bits == 40);
static_assert(codec_traits<std::uint64_t>::identity);
static_assert(codec_traits<float>::cheap);
static_assert(codec_traits<std::pair<float, std::int32_t>>::cheap);
static_assert(codec_traits<std::int64_t>::kind == codec_kind::sign_flip);
// Detection: a type with no key_codec specialization is rejected by the
// concept (not a hard error). A composite that HAS a specialization but
// does not fit 64 bits drops out of sortable_key and becomes a multi-word
// codec instead — see the static_asserts at the bottom of this file.
static_assert(!sortable_key<std::vector<int>>);

// ---------------------------------------------------------------------------
// Signed integers.

TEST(KeyCodecSigned, ExhaustiveInt8) {
  // Monotone over the whole ordered domain ⇒ order preservation for every
  // pair (transitivity), plus exact round trip for every value.
  for (int v = -128; v <= 127; ++v) {
    const auto k = static_cast<std::int8_t>(v);
    expect_round_trip(k);
    if (v > -128) {
      EXPECT_LT(key_codec<std::int8_t>::encode(static_cast<std::int8_t>(v - 1)),
                key_codec<std::int8_t>::encode(k));
    }
  }
}

TEST(KeyCodecSigned, ExhaustiveInt16) {
  for (int v = -32768; v <= 32767; ++v) {
    const auto k = static_cast<std::int16_t>(v);
    ASSERT_EQ(key_codec<std::int16_t>::decode(
                  key_codec<std::int16_t>::encode(k)),
              k);
    if (v > -32768) {
      ASSERT_LT(
          key_codec<std::int16_t>::encode(static_cast<std::int16_t>(v - 1)),
          key_codec<std::int16_t>::encode(k));
    }
  }
}

TEST(KeyCodecSigned, EdgesAndRandomSweep3264) {
  const std::int32_t edges32[] = {std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::min() + 1,
                                  -1, 0, 1,
                                  std::numeric_limits<std::int32_t>::max()};
  for (const auto a : edges32)
    for (const auto b : edges32) {
      expect_order_iff(a, b);
      expect_round_trip(a);
    }
  EXPECT_EQ(key_codec<std::int32_t>::encode(
                std::numeric_limits<std::int32_t>::min()),
            0u);  // INT_MIN is the smallest encoding
  const std::int64_t edges64[] = {std::numeric_limits<std::int64_t>::min(),
                                  -1, 0, 1,
                                  std::numeric_limits<std::int64_t>::max()};
  for (const auto a : edges64)
    for (const auto b : edges64) expect_order_iff(a, b);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto a32 = static_cast<std::int32_t>(rnd(2 * i));
    const auto b32 = static_cast<std::int32_t>(rnd(2 * i + 1));
    expect_order_iff(a32, b32);
    expect_round_trip(a32);
    const auto a64 = static_cast<std::int64_t>(rnd(i) * rnd(i + 1));
    const auto b64 = static_cast<std::int64_t>(rnd(i + 2) >> (i % 63));
    expect_order_iff(a64, b64);
    expect_round_trip(a64);
  }
}

// ---------------------------------------------------------------------------
// Floats: total order, ±0.0, subnormals, infinities, NaN policy, bit-exact
// round trip.

template <typename F>
void float_edge_order() {
  using lim = std::numeric_limits<F>;
  // Strictly increasing under the encoding (not all comparable via
  // operator<): the documented total order.
  const F ordered[] = {
      -lim::infinity(), -lim::max(), F(-1.5), F(-1.0), -lim::min(),
      -lim::denorm_min(),  // negative subnormal closest to zero
      F(-0.0), F(0.0), lim::denorm_min(), lim::min(), F(1.0), F(1.5),
      lim::max(), lim::infinity()};
  for (std::size_t i = 1; i < std::size(ordered); ++i)
    EXPECT_LT(key_codec<F>::encode(ordered[i - 1]),
              key_codec<F>::encode(ordered[i]))
        << "at " << i;
  // operator< agreement for values that are not the two zeros.
  for (std::size_t i = 0; i < std::size(ordered); ++i)
    for (std::size_t j = 0; j < std::size(ordered); ++j) {
      if (ordered[i] == ordered[j]) continue;  // skips -0.0 vs +0.0
      EXPECT_EQ(ordered[i] < ordered[j],
                key_codec<F>::encode(ordered[i]) <
                    key_codec<F>::encode(ordered[j]));
    }
  // NaN policy: +NaN above +inf, -NaN below -inf; never via operator<.
  const F qnan = lim::quiet_NaN();
  const F nnan = -lim::quiet_NaN();
  EXPECT_GT(key_codec<F>::encode(qnan),
            key_codec<F>::encode(lim::infinity()));
  EXPECT_LT(key_codec<F>::encode(nnan),
            key_codec<F>::encode(-lim::infinity()));
  // Round trips are bit-exact, NaN payloads and -0.0 included.
  using bits_t = typename key_codec<F>::encoded_t;
  for (const F v : {qnan, nnan, F(-0.0), F(0.0), lim::denorm_min()})
    EXPECT_EQ(std::bit_cast<bits_t>(key_codec<F>::decode(
                  key_codec<F>::encode(v))),
              std::bit_cast<bits_t>(v));
}

TEST(KeyCodecFloat, EdgeOrderAndNanPolicyFloat) { float_edge_order<float>(); }
TEST(KeyCodecFloat, EdgeOrderAndNanPolicyDouble) {
  float_edge_order<double>();
}

TEST(KeyCodecFloat, RandomBitPatternBijection) {
  // encode/decode are mutually inverse bijections on raw bit patterns —
  // including patterns that happen to be NaNs or infinities.
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const auto e32 = static_cast<std::uint32_t>(rnd(i));
    EXPECT_EQ(key_codec<float>::encode(key_codec<float>::decode(e32)), e32);
    const std::uint64_t e64 = rnd(i ^ 0xF00Dull);
    EXPECT_EQ(key_codec<double>::encode(key_codec<double>::decode(e64)),
              e64);
    const float f = key_codec<float>::decode(e32);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(
                  key_codec<float>::decode(key_codec<float>::encode(f))),
              std::bit_cast<std::uint32_t>(f));
  }
}

TEST(KeyCodecFloat, RandomFiniteOrderSweep) {
  for (std::uint64_t i = 0; i < 30000; ++i) {
    // Finite floats across the exponent range, subnormals included.
    auto b1 = static_cast<std::uint32_t>(rnd(3 * i));
    auto b2 = static_cast<std::uint32_t>(rnd(3 * i + 1));
    if (((b1 >> 23) & 0xFFu) == 0xFFu) b1 &= ~(std::uint32_t{1} << 30);
    if (((b2 >> 23) & 0xFFu) == 0xFFu) b2 &= ~(std::uint32_t{1} << 30);
    const auto f1 = std::bit_cast<float>(b1);
    const auto f2 = std::bit_cast<float>(b2);
    expect_order_iff(f1, f2);
  }
}

// ---------------------------------------------------------------------------
// Composites.

TEST(KeyCodecComposite, ExhaustivePairU8I8) {
  // The full 2^16 domain: encoded order must equal lexicographic order
  // (std::pair's operator<), and the encoding must be injective.
  using P = std::pair<std::uint8_t, std::int8_t>;
  std::vector<P> all;
  all.reserve(1 << 16);
  for (int a = 0; a < 256; ++a)
    for (int b = -128; b <= 127; ++b)
      all.push_back({static_cast<std::uint8_t>(a),
                     static_cast<std::int8_t>(b)});
  std::sort(all.begin(), all.end());  // lexicographic reference order
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(key_codec<P>::decode(key_codec<P>::encode(all[i])), all[i]);
    if (i > 0) {
      ASSERT_LT(key_codec<P>::encode(all[i - 1]),
                key_codec<P>::encode(all[i]));
    }
  }
}

TEST(KeyCodecComposite, PairU32Lexicographic) {
  using P = std::pair<std::uint32_t, std::uint32_t>;
  const std::uint32_t edges[] = {0u, 1u, 0x7FFFFFFFu, 0x80000000u,
                                 0xFFFFFFFFu};
  std::vector<P> keys;
  for (const auto a : edges)
    for (const auto b : edges) keys.push_back({a, b});
  for (std::uint64_t i = 0; i < 20000; ++i)
    keys.push_back({static_cast<std::uint32_t>(rnd(2 * i)),
                    static_cast<std::uint32_t>(rnd(2 * i + 1))});
  for (std::size_t i = 0; i + 1 < keys.size(); i += 2) {
    expect_order_iff(keys[i], keys[i + 1]);
    expect_round_trip(keys[i]);
  }
  // High word dominates; ties break on the low word.
  EXPECT_LT(key_codec<P>::encode({1, 0xFFFFFFFFu}),
            key_codec<P>::encode({2, 0}));
  EXPECT_LT(key_codec<P>::encode({2, 3}), key_codec<P>::encode({2, 4}));
}

TEST(KeyCodecComposite, MixedTupleAndNesting) {
  using T = std::tuple<std::uint16_t, std::int16_t, std::uint8_t>;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const T a{static_cast<std::uint16_t>(rnd(5 * i)),
              static_cast<std::int16_t>(rnd(5 * i + 1)),
              static_cast<std::uint8_t>(rnd(5 * i + 2))};
    const T b{static_cast<std::uint16_t>(rnd(5 * i + 3) & 0x3),
              static_cast<std::int16_t>(rnd(5 * i + 4)),
              static_cast<std::uint8_t>(i)};
    expect_order_iff(a, b);
    expect_round_trip(a);
  }
  // float components participate lexicographically (finite values).
  using FP = std::pair<float, std::int32_t>;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    auto fb = static_cast<std::uint32_t>(rnd(7 * i));
    if (((fb >> 23) & 0xFFu) == 0xFFu) fb &= ~(std::uint32_t{1} << 30);
    const FP a{std::bit_cast<float>(fb), static_cast<std::int32_t>(rnd(i))};
    const FP b{std::bit_cast<float>(fb) * 0.5f,
               static_cast<std::int32_t>(rnd(i + 1))};
    expect_order_iff(a, b);
    expect_round_trip(a);
  }
  // Nesting: pair<pair<u8,u8>,u16> behaves like the flat 32-bit triple.
  using N = std::pair<std::pair<std::uint8_t, std::uint8_t>, std::uint16_t>;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const N a{{static_cast<std::uint8_t>(rnd(9 * i)),
               static_cast<std::uint8_t>(rnd(9 * i + 1))},
              static_cast<std::uint16_t>(rnd(9 * i + 2))};
    const N b{{static_cast<std::uint8_t>(rnd(9 * i + 3)),
               static_cast<std::uint8_t>(rnd(9 * i + 4))},
              static_cast<std::uint16_t>(rnd(9 * i + 5))};
    expect_order_iff(a, b);
    expect_round_trip(a);
  }
  // Logical-width nesting: the 56-bit nested56 shape (40-bit tuple in a
  // u64 container + u16) orders and round-trips like its flat lexicographic
  // reading.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const nested56 a{{static_cast<std::uint16_t>(rnd(11 * i)),
                      static_cast<std::uint16_t>(rnd(11 * i + 1)),
                      static_cast<std::uint8_t>(rnd(11 * i + 2))},
                     static_cast<std::uint16_t>(rnd(11 * i + 3))};
    const nested56 b{{static_cast<std::uint16_t>(rnd(11 * i + 4)),
                      static_cast<std::uint16_t>(rnd(11 * i)),
                      static_cast<std::uint8_t>(rnd(11 * i + 5))},
                     static_cast<std::uint16_t>(rnd(11 * i + 6))};
    expect_order_iff(a, b);
    expect_round_trip(a);
  }
}

// Composites needing more than 64 encoded bits — pair<u64, u64>,
// tuple<u8, float, double> (104 bits), ... — are no longer a compile-time
// dead-end: they become MULTI-WORD codecs (encoded_words / encode_word)
// and sort through the wide refine driver. Their word contracts and the
// remaining genuinely-unencodable static_assert (variable-length
// components inside a composite) are covered by tests/test_wide_sort.cpp.
static_assert(!sortable_key<std::pair<std::uint64_t, std::uint64_t>>);
static_assert(wide_sortable_key<std::pair<std::uint64_t, std::uint64_t>>);
static_assert(
    key_codec<std::pair<std::uint64_t, std::uint64_t>>::encoded_words == 2);
