// key_codec<K> — the typed-key customization point in front of the radix
// kernels.
//
// Every kernel in this library (DTSort, the LSD/MSD baselines, the engine)
// sorts by an *unsigned integer* key, because that is what a radix pass can
// chew on. Real workloads arrive with signed offsets, IEEE floats and
// (hi, lo) composite keys — the PPoPP'24 evaluation itself motivates integer
// sort through Morton codes, graph reordering and group-bys, all of which
// carry such keys. The classic fix (PBBS's `integer_sort(In, f)`, RADULS,
// the Gerbessiotis multicore studies) is an order-preserving bit encoding:
// map the key to an unsigned integer such that
//
//     a < b  (key order)   ⇔   encode(a) < encode(b)  (unsigned order)
//
// and every radix method works unchanged. This header defines that mapping
// as a customization point:
//
//   template <typename K> struct key_codec {
//     using encoded_t = /* unsigned integer type */;
//     static encoded_t encode(K);   // order-preserving
//     static K decode(encoded_t);   // exact inverse of encode
//   };
//
// Built-in codecs:
//   * unsigned integers — identity (the kernels' native currency; zero cost).
//   * signed integers   — sign-bit flip: adding 2^(w-1) maps
//     [INT_MIN, INT_MAX] monotonically onto [0, 2^w); exact round trip.
//   * float / double    — the IEEE-754 total-order transform: positive
//     values get the sign bit set, negative values are bitwise complemented.
//     Encoded order is IEEE totalOrder: -NaN < -inf < ... < -0.0 < +0.0 <
//     ... < +inf < +NaN, with NaNs ordered by payload. NaN POLICY: NaNs are
//     never compared via operator< (which would be UB-adjacent nonsense);
//     they sort deterministically to the two ends by their sign bit.
//     Note -0.0 and +0.0 are DISTINCT encodings ordered -0.0 < +0.0, so for
//     non-NaN values a < b ⇒ encode(a) < encode(b), and
//     encode(a) < encode(b) ⇒ a ≤ b (equality only for the two zeros).
//     Round trip is bit-exact, NaN payloads included.
//   * std::pair / std::tuple of codec-covered components — lexicographic
//     bit concatenation: the first component occupies the high bits. The
//     encoded width is the sum of the component widths, packed into the
//     smallest unsigned type that fits (u8/u16/u32/u64, e.g.
//     pair<u32, u32> → u64, tuple<u16, i16, u8> → u64 using 40 bits).
//     Composites wider than 64 bits (e.g. pair<u64, u64>) become
//     multi-word codecs over the same bit string — see below.
//     Nested composites work as long as the total fits, budgeted by each
//     component's LOGICAL width (codec_traits<K>::encoded_bits), not its
//     container type — a 40-bit tuple nested in a pair costs 40 bits,
//     not the 64 of the u64 it travels in.
//
// A codec must be a bijection between the key's value set and a subset of
// encoded_t values (round-trip-exact both ways), and encode must be
// order-preserving in the sense above. The `cheap` flag tells the front
// door (auto_sort.hpp) the encode is a few ALU ops, safe to recompute per
// radix pass (fused encoding); codecs without it get the encode-once path.
//
// MULTI-WORD (wide) codecs — keys wider than 64 encoded bits. Instead of
// the single-word form, a codec may describe its key as a sequence of
// 64-bit words compared lexicographically, most significant word first:
//
//   static constexpr std::size_t encoded_words;             // >= 1
//   static std::uint64_t encode_word(const K& k, std::size_t w);
//
// Contract: a < b (key order) implies words(a) <= words(b) in
// lexicographic u64 order. When the codec is EXHAUSTIVE (`exhaustive`
// member absent or true), equal word sequences imply equal keys, so the
// word order is equivalent to the key order. A NON-exhaustive codec
// (exhaustive == false — the prefix string codecs) is an order-preserving
// coarsening; the refine driver (core/wide_sort.hpp) owes the order
// beyond the words, paid one of two ways. If the codec also has the
// OFFSET form
//
//   static constexpr std::size_t continuation_words;   // words per round
//   static constexpr std::size_t continuation_stride;  // bytes per round
//   static std::uint64_t encode_word(const K& k, std::size_t w,
//                                    std::size_t byte_offset);
//   static constexpr bool word_continues(std::uint64_t word);
//
// the driver keeps refining by radix: still-tied segments re-encode
// their first continuation_words words from the next
// continuation_stride-byte slice of the true keys and re-enter the same
// refinement, recursing until word_continues reports the keys end inside
// the compared window (MSD continuation — the variable-length string
// engine). Continuation rounds may use FEWER words than the materialized
// prefix: the string codecs materialize 2 words (14 bytes) for the
// front-door prefix but continue 1 word (7 bytes) per round, because the
// driver probes still-tied segments first and skips any number of
// verified-tied words in one scan — a narrow round only ever sorts a
// word the probe saw differ, never a word the shared prefix makes
// constant. Segments at or below the comparison
// base case, and every residual segment of a non-offset codec, finish
// with a stable comparison sort on the true keys, which must then be
// comparable with operator<. Either way the sorted result is the TRUE key
// order. Wide codecs are encode-only (the sorters never decode); `cheap`
// means encode_word is a few ALU ops / at most one cache line of the key.
// Built-in wide codecs:
//   * pair / tuple composites whose packed width exceeds 64 bits
//     (pair<u64, u64>, tuple<u64, u64, u32>, nested mixes — any
//     fixed-width exhaustive components, wide components included);
//   * unsigned/signed __int128 (two words; sign flip on the high word);
//   * std::string / std::string_view — offset-capable prefix words: word
//     w at byte offset off packs content bytes [off+7w, off+7w+7)
//     big-endian over a low count byte min(7, remaining) that makes a
//     strict prefix sort first and marks where keys end. 2 words = a
//     14-byte materialized prefix; continuation advances one 7-byte word
//     per round (tied words are skipped by the probe, differing words
//     are radix-sorted), so the sorted result is the TRUE lexicographic
//     order of unsigned bytes at any length.
//
// Specialize key_codec in namespace dovetail to cover your own key type;
// codec_traits<K> (single-word) and wide_key_traits<K> (uniform word view)
// below are what the entry points consult.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

namespace dovetail {

// How a codec transforms keys — recorded in sort_stats::codec_kind_id
// (1 + the enum value) by the front-door entry points.
enum class codec_kind : std::uint8_t {
  identity,           // unsigned keys, encode is a no-op
  sign_flip,          // signed integers
  float_total_order,  // float/double IEEE total-order transform
  composite,          // pair/tuple bit concatenation
  string_prefix,      // fixed-prefix byte-string words (non-exhaustive)
  custom,             // user specialization without a `kind` member
};

inline const char* codec_kind_name(codec_kind k) {
  switch (k) {
    case codec_kind::identity: return "identity";
    case codec_kind::sign_flip: return "sign-flip";
    case codec_kind::float_total_order: return "float-total-order";
    case codec_kind::composite: return "composite";
    case codec_kind::string_prefix: return "string-prefix";
    case codec_kind::custom: return "custom";
  }
  return "?";
}

// Primary template: intentionally undefined. A key type is codec-covered
// iff a specialization below (or a user one) exists; sortable_key<K> is
// the detection concept the entry points constrain on.
template <typename K>
struct key_codec;

// ---------------------------------------------------------------------------
// Built-in codecs.

// Unsigned integers: identity. bool is excluded — it is not a sort key.
template <typename K>
  requires(std::unsigned_integral<K> && !std::same_as<K, bool>)
struct key_codec<K> {
  using encoded_t = K;
  static constexpr codec_kind kind = codec_kind::identity;
  static constexpr bool cheap = true;
  static constexpr encoded_t encode(K k) noexcept { return k; }
  static constexpr K decode(encoded_t e) noexcept { return e; }
};

// Signed integers: flip the sign bit. In two's complement this adds
// 2^(w-1) modulo 2^w, mapping INT_MIN → 0 and INT_MAX → 2^w - 1, a strictly
// monotone bijection.
template <typename K>
  requires std::signed_integral<K>
struct key_codec<K> {
  using encoded_t = std::make_unsigned_t<K>;
  static constexpr codec_kind kind = codec_kind::sign_flip;
  static constexpr bool cheap = true;
  static constexpr encoded_t sign_bit = encoded_t{1}
                                        << (8 * sizeof(K) - 1);
  static constexpr encoded_t encode(K k) noexcept {
    return static_cast<encoded_t>(k) ^ sign_bit;
  }
  static constexpr K decode(encoded_t e) noexcept {
    return static_cast<K>(e ^ sign_bit);
  }
};

// float/double: IEEE-754 total-order transform. For a non-negative float
// the raw bit pattern already orders correctly, so setting the sign bit
// lifts it above every negative; for a negative float larger magnitude
// means smaller value, so complementing all bits reverses the magnitude
// order and clears the (encoded) sign bit. See the header comment for the
// resulting NaN/-0.0 policy.
template <typename F>
  requires(std::same_as<F, float> || std::same_as<F, double>)
struct key_codec<F> {
  using encoded_t =
      std::conditional_t<sizeof(F) == 4, std::uint32_t, std::uint64_t>;
  static constexpr codec_kind kind = codec_kind::float_total_order;
  static constexpr bool cheap = true;
  static constexpr encoded_t sign_bit = encoded_t{1}
                                        << (8 * sizeof(F) - 1);
  static constexpr encoded_t encode(F f) noexcept {
    const auto b = std::bit_cast<encoded_t>(f);
    return (b & sign_bit) != 0 ? static_cast<encoded_t>(~b)
                               : static_cast<encoded_t>(b | sign_bit);
  }
  static constexpr F decode(encoded_t e) noexcept {
    return std::bit_cast<F>((e & sign_bit) != 0
                                ? static_cast<encoded_t>(e ^ sign_bit)
                                : static_cast<encoded_t>(~e));
  }
};

// ---------------------------------------------------------------------------
// Detection + traits.

// A key type the typed entry points accept. Checking the requires-clause
// instantiates key_codec<K>, so a composite that exists but does not fit
// 64 bits fails loudly at its static_assert rather than silently dropping
// out of overload resolution — exactly the diagnostic we want.
template <typename K>
concept sortable_key = requires(const std::remove_cvref_t<K>& k) {
  typename key_codec<std::remove_cvref_t<K>>::encoded_t;
  {
    key_codec<std::remove_cvref_t<K>>::encode(k)
  } -> std::same_as<typename key_codec<std::remove_cvref_t<K>>::encoded_t>;
};

namespace detail {

template <typename C>
concept codec_has_kind =
    requires { { C::kind } -> std::convertible_to<codec_kind>; };

template <typename C>
concept codec_has_cheap =
    requires { { C::cheap } -> std::convertible_to<bool>; };

template <typename C>
concept codec_has_bits =
    requires { { C::encoded_bits } -> std::convertible_to<int>; };

// Smallest unsigned type holding `Bits` bits (Bits in [1, 64]).
template <int Bits>
using uint_for_bits_t = std::conditional_t<
    (Bits <= 8), std::uint8_t,
    std::conditional_t<(Bits <= 16), std::uint16_t,
                       std::conditional_t<(Bits <= 32), std::uint32_t,
                                          std::uint64_t>>>;

}  // namespace detail

// What the entry points consult: the codec plus uniform defaults for the
// optional members (`kind` defaults to custom, `cheap` to false — an
// unknown user codec gets the conservative encode-once path).
template <sortable_key K>
struct codec_traits {
  using key_t = std::remove_cvref_t<K>;
  using codec = key_codec<key_t>;
  using encoded_t = typename codec::encoded_t;
  static_assert(std::unsigned_integral<encoded_t> &&
                    !std::same_as<encoded_t, bool>,
                "key_codec<K>::encoded_t must be an unsigned integer type");
  // LOGICAL encoded width: every encode(k) < 2^encoded_bits. Composites
  // occupy fewer bits than their encoded_t container (e.g. a
  // tuple<u16, i16, u8> uses 40 of a u64), and nested composites are
  // budgeted by this value, not the container size. Codecs without the
  // member use their container width.
  static constexpr int encoded_bits = [] {
    if constexpr (detail::codec_has_bits<codec>) return codec::encoded_bits;
    else return static_cast<int>(8 * sizeof(encoded_t));
  }();
  static_assert(encoded_bits >= 1 &&
                    encoded_bits <= static_cast<int>(8 * sizeof(encoded_t)),
                "key_codec<K>::encoded_bits must fit encoded_t");
  static constexpr codec_kind kind = [] {
    if constexpr (detail::codec_has_kind<codec>) return codec::kind;
    else return codec_kind::custom;
  }();
  static constexpr bool cheap = [] {
    if constexpr (detail::codec_has_cheap<codec>) return codec::cheap;
    else return false;
  }();
  static constexpr bool identity = kind == codec_kind::identity;
};

// ---------------------------------------------------------------------------
// Pure-key record detection (the record-triviality bit the dispatcher feeds
// input_sketch). A record set is "pure-key" when equal sort keys imply
// byte-identical records, which makes instability unobservable and the
// unstable in-place kernel (inplace_sort.hpp) safe to auto-select. That
// cannot be introspected out of an arbitrary key lambda, so the convenience
// entry points name their key functors:
//   * self_key        — the record IS the key (sort(span<K>) overloads);
//   * encoded_key_fn  — the fused path's encode wrapper; pure iff its inner
//     functor is. Built-in single-word codecs are bijections on the key's
//     value representation (sign flip, IEEE total-order flip, identity), so
//     equal encodings imply bit-identical keys — and with self_key inside,
//     bit-identical records.
// Everything else (records with payload fields, user lambdas, the
// encode-once (key, rank) pairs) stays non-pure and keeps the strict-
// stability kernels unless the caller opts into stability::relaxed.
struct self_key {
  template <typename K>
  const K& operator()(const K& k) const noexcept {
    return k;
  }
};

template <typename Codec, typename Inner>
struct encoded_key_fn {
  const Inner& inner;
  template <typename Rec>
  auto operator()(const Rec& r) const {
    return Codec::encode(inner(r));
  }
};

template <typename F>
struct is_pure_key_fn : std::false_type {};
template <>
struct is_pure_key_fn<self_key> : std::true_type {};
template <typename Codec, typename Inner>
struct is_pure_key_fn<encoded_key_fn<Codec, Inner>>
    : is_pure_key_fn<std::remove_cvref_t<Inner>> {};

template <typename F>
inline constexpr bool is_pure_key_fn_v =
    is_pure_key_fn<std::remove_cvref_t<F>>::value;

// ---------------------------------------------------------------------------
// Wide (multi-word) detection + the uniform word view.

// A key whose codec has the multi-word form (see the header comment).
template <typename K>
concept wide_sortable_key = requires(const std::remove_cvref_t<K>& k) {
  {
    key_codec<std::remove_cvref_t<K>>::encoded_words
  } -> std::convertible_to<std::size_t>;
  {
    key_codec<std::remove_cvref_t<K>>::encode_word(k, std::size_t{0})
  } -> std::same_as<std::uint64_t>;
};

// Any key the front door accepts: single-word (the classic fused /
// encode-once paths) or multi-word (the wide refine driver).
template <typename K>
concept any_sortable_key = sortable_key<K> || wide_sortable_key<K>;

namespace detail {

template <typename C>
concept codec_has_exhaustive =
    requires { { C::exhaustive } -> std::convertible_to<bool>; };

// The offset-codec form: a non-exhaustive wide codec that can ALSO encode
// its words starting at an arbitrary byte offset into the key, plus a
// per-word test for "every key tying on this word extends beyond its
// window". This is what lets the refine driver continue MSD radix
// refinement past the materialized prefix (wide_sort.hpp) instead of
// finishing large equal-prefix segments with a comparison sort.
// Contract: encode_word(k, w, 0) == encode_word(k, w); each offset word
// is an order-preserving coarsening of the true key order RESTRICTED to
// keys that tie on all words of all earlier offsets; and if two keys tie
// on a full window whose last word has word_continues == false, they are
// equal.
template <typename C, typename K>
concept codec_has_continuation = requires(const K& k) {
  { C::continuation_words } -> std::convertible_to<std::size_t>;
  { C::continuation_stride } -> std::convertible_to<std::size_t>;
  {
    C::encode_word(k, std::size_t{0}, std::size_t{0})
  } -> std::same_as<std::uint64_t>;
  { C::word_continues(std::uint64_t{0}) } -> std::convertible_to<bool>;
};

}  // namespace detail

// Uniform word-sequence view over EVERY codec-covered key: a single-word
// codec appears as one word (its zero-extended encoding), a wide codec as
// its declared word sequence. This is what the refine driver and the
// composite bit-gather below consume; single-word keys keep using
// codec_traits through the classic entry points.
template <any_sortable_key K>
struct wide_key_traits {
  using key_t = std::remove_cvref_t<K>;
  using codec = key_codec<key_t>;
  // Single-word codecs win when both forms exist (there is no reason to
  // take the multi-round driver for a key that fits one radix word).
  static constexpr bool single_word = sortable_key<key_t>;
  static constexpr std::size_t word_count = [] {
    if constexpr (sortable_key<key_t>) return std::size_t{1};
    else return static_cast<std::size_t>(codec::encoded_words);
  }();
  static_assert(word_count >= 1);
  // Total LOGICAL encoded width. The most significant word carries
  // encoded_bits - 64*(word_count-1) bits, low-aligned and zero-extended;
  // every other word is full.
  static constexpr int encoded_bits = [] {
    if constexpr (sortable_key<key_t>)
      return codec_traits<key_t>::encoded_bits;
    else if constexpr (detail::codec_has_bits<codec>)
      return codec::encoded_bits;
    else
      return static_cast<int>(64 * word_count);
  }();
  static_assert(encoded_bits > static_cast<int>(64 * (word_count - 1)) &&
                    encoded_bits <= static_cast<int>(64 * word_count),
                "key_codec<K>::encoded_bits must fit encoded_words words "
                "with a non-empty most significant word");
  // Equal word sequences imply equal keys. Single-word codecs are
  // bijections by contract, hence always exhaustive.
  static constexpr bool exhaustive = [] {
    if constexpr (sortable_key<key_t>) return true;
    else if constexpr (detail::codec_has_exhaustive<codec>)
      return codec::exhaustive;
    else
      return true;
  }();
  static constexpr codec_kind kind = [] {
    if constexpr (sortable_key<key_t>) return codec_traits<key_t>::kind;
    else if constexpr (detail::codec_has_kind<codec>) return codec::kind;
    else return codec_kind::custom;
  }();
  static constexpr bool cheap = [] {
    if constexpr (sortable_key<key_t>) return codec_traits<key_t>::cheap;
    else if constexpr (detail::codec_has_cheap<codec>) return codec::cheap;
    else return false;
  }();
  // Word w, 0 = most significant.
  static constexpr std::uint64_t word(const key_t& k, std::size_t w) {
    if constexpr (sortable_key<key_t>)
      return static_cast<std::uint64_t>(codec::encode(k));
    else
      return codec::encode_word(k, w);
  }
  // Offset-continuation form (detail::codec_has_continuation): only
  // meaningful for non-exhaustive codecs; the refine driver consults
  // offset_encodable before taking the continuation path, and the
  // fallbacks below keep non-offset codecs compiling through the same
  // call sites.
  static constexpr bool offset_encodable = [] {
    if constexpr (sortable_key<key_t>) return false;
    else return !exhaustive && detail::codec_has_continuation<codec, key_t>;
  }();
  // Words re-encoded and bytes of key consumed per continuation round
  // (0 when not offset-encodable). May be narrower than the materialized
  // prefix: continuation rounds only ever sort a word the probe saw
  // differ, so one word per round skips the sort passes a wider window
  // would waste on words a shared prefix keeps constant.
  static constexpr std::size_t continuation_words = [] {
    if constexpr (offset_encodable)
      return static_cast<std::size_t>(codec::continuation_words);
    else
      return std::size_t{0};
  }();
  static constexpr std::size_t continuation_stride = [] {
    if constexpr (offset_encodable)
      return static_cast<std::size_t>(codec::continuation_stride);
    else
      return std::size_t{0};
  }();
  // Word w of the window starting at byte_offset; word_at(k, w, 0) ==
  // word(k, w).
  static constexpr std::uint64_t word_at(const key_t& k, std::size_t w,
                                         std::size_t byte_offset) {
    if constexpr (offset_encodable)
      return codec::encode_word(k, w, byte_offset);
    else
      return word(k, w);
  }
  static constexpr bool word_continues(std::uint64_t wd) {
    if constexpr (offset_encodable) return codec::word_continues(wd);
    else return (void)wd, false;
  }
};

namespace detail {

// Bits [lo, lo+len) of a key's logical encoding (counted from the LSB,
// len <= 64), low-aligned in a u64 — the gather primitive behind the wide
// composite codec. Positions at or above encoded_bits read as zero.
template <any_sortable_key K>
constexpr std::uint64_t key_bits_slice(const std::remove_cvref_t<K>& k,
                                       int lo, int len) noexcept {
  using WT = wide_key_traits<K>;
  constexpr auto wc = static_cast<int>(WT::word_count);
  const int wlsb = lo / 64;
  const int sh = lo % 64;
  std::uint64_t out = 0;
  if (wlsb < wc)
    out = WT::word(k, static_cast<std::size_t>(wc - 1 - wlsb)) >> sh;
  if (sh != 0 && wlsb + 1 < wc)
    out |= WT::word(k, static_cast<std::size_t>(wc - 2 - wlsb)) << (64 - sh);
  return len >= 64 ? out : (out & ((std::uint64_t{1} << len) - 1));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Composite codecs: lexicographic bit concatenation. Composites at most 64
// bits wide pack into one unsigned integer (the narrow form below, exactly
// the PR-4 behaviour); wider composites become multi-word codecs over the
// same conceptual bit string, so pair<u64, u64> and friends sort through
// the wide refine driver instead of failing a static_assert.

namespace detail {

template <sortable_key K>
inline constexpr int codec_bits_v = codec_traits<K>::encoded_bits;

template <int Bits, typename E>
constexpr E codec_low_mask() noexcept {
  return Bits >= 8 * static_cast<int>(sizeof(E))
             ? static_cast<E>(~E{0})
             : static_cast<E>((E{1} << Bits) - 1);
}

// Narrow iff the packed width fits one word AND every component is a
// single-word codec (a wide or prefix component forces the wide form,
// where the fixed-width check below produces the real diagnostic).
template <typename... Ts>
inline constexpr bool composite_is_narrow_v =
    ((wide_key_traits<Ts>::encoded_bits + ...) <= 64) &&
    (sortable_key<Ts> && ...);

}  // namespace detail

namespace detail {

// Narrow form: the whole composite fits one unsigned word (<= 64 bits).
// First component most significant; round-trip exact.
template <typename... Ts>
struct tuple_codec_narrow {
 private:
  static constexpr std::size_t N = sizeof...(Ts);
  static constexpr std::array<int, N> elem_bits{
      detail::codec_bits_v<Ts>...};
  static constexpr int total_bits = (detail::codec_bits_v<Ts> + ...);
  // shifts[i] = number of encoded bits to the right of component i.
  static constexpr std::array<int, N> shifts = [] {
    std::array<int, N> s{};
    int acc = 0;
    for (std::size_t i = N; i-- > 0;) {
      s[i] = acc;
      acc += elem_bits[i];
    }
    return s;
  }();

 public:
  using encoded_t = detail::uint_for_bits_t<total_bits>;
  static constexpr int encoded_bits = total_bits;  // logical, not container
  static constexpr codec_kind kind = codec_kind::composite;
  static constexpr bool cheap = (codec_traits<Ts>::cheap && ...);

  static constexpr encoded_t encode(const std::tuple<Ts...>& t) noexcept {
    return encode_impl(t, std::index_sequence_for<Ts...>{});
  }
  static constexpr std::tuple<Ts...> decode(encoded_t e) noexcept {
    return decode_impl(e, std::index_sequence_for<Ts...>{});
  }

 private:
  template <std::size_t... I>
  static constexpr encoded_t encode_impl(const std::tuple<Ts...>& t,
                                         std::index_sequence<I...>) noexcept {
    return static_cast<encoded_t>(
        (... | (static_cast<std::uint64_t>(
                    key_codec<std::remove_cvref_t<Ts>>::encode(
                        std::get<I>(t)))
                << shifts[I])));
  }
  template <std::size_t... I>
  static constexpr std::tuple<Ts...> decode_impl(
      encoded_t e, std::index_sequence<I...>) noexcept {
    return std::tuple<Ts...>(key_codec<std::remove_cvref_t<Ts>>::decode(
        static_cast<typename codec_traits<Ts>::encoded_t>(
            (static_cast<std::uint64_t>(e) >> shifts[I]) &
            detail::codec_low_mask<detail::codec_bits_v<Ts>,
                                   std::uint64_t>()))...);
  }
};

// Wide form: the same conceptual bit concatenation, delivered as 64-bit
// words (word 0 most significant) gathered across component boundaries by
// key_bits_slice. Encode-only, like every wide codec.
template <typename... Ts>
struct tuple_codec_wide {
 private:
  static constexpr std::size_t N = sizeof...(Ts);
  // The only genuinely unencodable composites: ones with a component whose
  // own encoding does not pin down the component value (a fixed-prefix
  // string codec, or a user codec marked exhaustive = false). Everything
  // fixed-width concatenates, however wide.
  static_assert((wide_key_traits<Ts>::exhaustive && ...),
                "key_codec: composite components must be fixed-width, "
                "exhaustively encoded keys — a prefix codec (std::string "
                "and friends) cannot be bit-concatenated; sort by the "
                "other components and refine, or provide a custom "
                "key_codec specialization");
  static constexpr std::array<int, N> elem_bits{
      wide_key_traits<Ts>::encoded_bits...};
  static constexpr int total_bits = (wide_key_traits<Ts>::encoded_bits + ...);
  static constexpr std::array<int, N> shifts = [] {
    std::array<int, N> s{};
    int acc = 0;
    for (std::size_t i = N; i-- > 0;) {
      s[i] = acc;
      acc += elem_bits[i];
    }
    return s;
  }();

  // Fast path: every component is a full 64-bit single-word codec
  // (pair<u64, u64>, tuple of u64/i64/double, ...) — word w IS component
  // w's encoding, no cross-word bit gathering. This is the hot shape
  // (the kernels re-derive the radix key per pass on the fused path), so
  // the distinction is measurable, not cosmetic.
  static constexpr bool word_aligned =
      ((sortable_key<Ts> && wide_key_traits<Ts>::encoded_bits == 64) &&
       ...);

 public:
  static constexpr std::size_t encoded_words =
      (static_cast<std::size_t>(total_bits) + 63) / 64;
  static constexpr int encoded_bits = total_bits;
  static constexpr codec_kind kind = codec_kind::composite;
  static constexpr bool cheap = (wide_key_traits<Ts>::cheap && ...);
  static constexpr bool exhaustive = true;

  static constexpr std::uint64_t encode_word(const std::tuple<Ts...>& t,
                                             std::size_t w) noexcept {
    if constexpr (word_aligned) {
      return encode_aligned(t, w, std::index_sequence_for<Ts...>{});
    } else {
      // Bits [blo, blo+64) of the concatenation, blo counted from the
      // LSB.
      const int blo = 64 * static_cast<int>(encoded_words - 1 - w);
      return encode_word_impl(t, blo, std::index_sequence_for<Ts...>{});
    }
  }

 private:
  template <std::size_t... I>
  static constexpr std::uint64_t encode_aligned(
      const std::tuple<Ts...>& t, std::size_t w,
      std::index_sequence<I...>) noexcept {
    std::uint64_t out = 0;
    ((I == w
          ? (out = static_cast<std::uint64_t>(
                 key_codec<std::remove_cvref_t<Ts>>::encode(std::get<I>(t))),
             0)
          : 0),
     ...);
    return out;
  }
  template <std::size_t... I>
  static constexpr std::uint64_t encode_word_impl(
      const std::tuple<Ts...>& t, int blo,
      std::index_sequence<I...>) noexcept {
    std::uint64_t out = 0;
    (..., (out |= component_chunk<I>(t, blo)));
    return out;
  }
  template <std::size_t I>
  static constexpr std::uint64_t component_chunk(const std::tuple<Ts...>& t,
                                                 int blo) noexcept {
    constexpr int s = shifts[I];
    constexpr int b = elem_bits[I];
    // Overlap of the component's bit range [s, s+b) with [blo, blo+64),
    // in component-local coordinates.
    const int lo = blo > s ? blo - s : 0;
    const int hi = b < blo + 64 - s ? b : blo + 64 - s;
    if (hi <= lo) return 0;
    using C = std::remove_cvref_t<std::tuple_element_t<I, std::tuple<Ts...>>>;
    const std::uint64_t chunk =
        detail::key_bits_slice<C>(std::get<I>(t), lo, hi - lo);
    return chunk << (s + lo - blo);
  }
};

template <typename A, typename B>
struct pair_codec_narrow {
 private:
  using tup = key_codec<std::tuple<A, B>>;

 public:
  using encoded_t = typename tup::encoded_t;
  static constexpr int encoded_bits = tup::encoded_bits;
  static constexpr codec_kind kind = codec_kind::composite;
  static constexpr bool cheap = tup::cheap;
  static constexpr encoded_t encode(const std::pair<A, B>& p) noexcept {
    return tup::encode(std::tuple<A, B>(p.first, p.second));
  }
  static constexpr std::pair<A, B> decode(encoded_t e) noexcept {
    auto t = tup::decode(e);
    return {std::get<0>(t), std::get<1>(t)};
  }
};

template <typename A, typename B>
struct pair_codec_wide {
 private:
  using tup = key_codec<std::tuple<A, B>>;

 public:
  static constexpr std::size_t encoded_words = tup::encoded_words;
  static constexpr int encoded_bits = tup::encoded_bits;
  static constexpr codec_kind kind = codec_kind::composite;
  static constexpr bool cheap = tup::cheap;
  static constexpr bool exhaustive = true;
  static constexpr std::uint64_t encode_word(const std::pair<A, B>& p,
                                             std::size_t w) noexcept {
    return tup::encode_word(std::tuple<A, B>(p.first, p.second), w);
  }
};

}  // namespace detail

// std::tuple of codec-covered components, first component most
// significant; narrow (one packed word) when the total fits 64 bits,
// multi-word otherwise. Also the engine behind the std::pair codec below.
template <typename... Ts>
  requires(sizeof...(Ts) > 0 && (any_sortable_key<Ts> && ...))
struct key_codec<std::tuple<Ts...>>
    : std::conditional_t<detail::composite_is_narrow_v<Ts...>,
                         detail::tuple_codec_narrow<Ts...>,
                         detail::tuple_codec_wide<Ts...>> {};

// std::pair — forwarded through the tuple codec.
template <typename A, typename B>
  requires(any_sortable_key<A> && any_sortable_key<B>)
struct key_codec<std::pair<A, B>>
    : std::conditional_t<detail::composite_is_narrow_v<A, B>,
                         detail::pair_codec_narrow<A, B>,
                         detail::pair_codec_wide<A, B>> {};

// ---------------------------------------------------------------------------
// 128-bit integers: two-word identity / sign-flip codecs. (Under
// -std=c++20 strict mode __int128 is not std::integral, so these do not
// collide with the integer partial specializations above.)

#if defined(__SIZEOF_INT128__)

template <>
struct key_codec<unsigned __int128> {
  static constexpr std::size_t encoded_words = 2;
  static constexpr int encoded_bits = 128;
  static constexpr codec_kind kind = codec_kind::identity;
  static constexpr bool cheap = true;
  static constexpr bool exhaustive = true;
  static constexpr std::uint64_t encode_word(unsigned __int128 k,
                                             std::size_t w) noexcept {
    return w == 0 ? static_cast<std::uint64_t>(k >> 64)
                  : static_cast<std::uint64_t>(k);
  }
};

template <>
struct key_codec<__int128> {
  static constexpr std::size_t encoded_words = 2;
  static constexpr int encoded_bits = 128;
  static constexpr codec_kind kind = codec_kind::sign_flip;
  static constexpr bool cheap = true;
  static constexpr bool exhaustive = true;
  static constexpr std::uint64_t sign_bit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t encode_word(__int128 k,
                                             std::size_t w) noexcept {
    const auto u = static_cast<unsigned __int128>(k);
    return w == 0 ? (static_cast<std::uint64_t>(u >> 64) ^ sign_bit)
                  : static_cast<std::uint64_t>(u);
  }
};

#endif  // __SIZEOF_INT128__

// ---------------------------------------------------------------------------
// Byte strings: prefix wide codec WITH the offset-continuation form. Word
// w at byte offset `off` packs the 7 content bytes [off + 7w, off + 7w + 7)
// of the string big-endian into the high 56 bits (zero-padded past the
// end) and stores min(7, bytes remaining from the word's base) in the low
// byte. The count byte does two jobs:
//   * ORDER — when two strings agree on a window's padded content, the one
//     that ends inside the window is a NUL-extension prefix of the other
//     and must sort first; it has the strictly smaller count. So every
//     word is an order-preserving coarsening of lexicographic order over
//     UNSIGNED bytes (s < t implies words(s) <= words(t)) with no
//     NUL-byte-vs-end-of-string ambiguity inside its window.
//   * TERMINATION — equal words whose count is below 7 mean both strings
//     end at the same place in the window with the same content, so keys
//     that tie on a whole window with a final count < 7 are EQUAL. The
//     refine driver's continuation (wide_sort.hpp) stops exactly there;
//     only segments whose last word's count is 7 (every key extends past
//     the window) continue to later byte offsets.
// The materialized prefix is encode_word(s, w) == encode_word(s, w, 0):
// 7 * Words content bytes of radix discrimination. The codec stays
// NON-exhaustive as a fixed word set (equal prefix words do not pin down
// the key), so the driver still owes the order beyond the prefix — paid
// either by the offset continuation above or, for segments at or below
// the comparison base case, by a stable comparison sort on the true keys.
// Both routes produce the same full lexicographic order.
template <std::size_t Words>
struct string_prefix_codec {
  static_assert(Words >= 1);
  static constexpr std::size_t encoded_words = Words;
  static constexpr int encoded_bits = static_cast<int>(64 * Words);
  static constexpr codec_kind kind = codec_kind::string_prefix;
  static constexpr bool cheap = true;
  static constexpr bool exhaustive = false;
  // Content bytes per word; the low byte carries the continuation count.
  static constexpr std::size_t word_bytes = 7;
  // Continuation rounds advance ONE word at a time (narrower than the
  // Words-wide materialized prefix): the driver's probe skips any run of
  // verified-tied words in a single scan, so a continuation round only
  // ever radix-sorts a word known to differ — a full-window round would
  // pay extra distribute passes on words a long shared prefix keeps
  // constant (e.g. at a 64-byte prefix, bytes [56, 63) are shared and
  // only the word covering byte 64 splits anything).
  static constexpr std::size_t continuation_words = 1;
  static constexpr std::size_t continuation_stride =
      word_bytes * continuation_words;
  static constexpr std::uint64_t encode_word(
      std::string_view s, std::size_t w,
      std::size_t byte_offset = 0) noexcept {
    const std::size_t base = byte_offset + word_bytes * w;
    std::uint64_t out = 0;
    for (std::size_t j = 0; j < word_bytes; ++j) {
      const std::size_t i = base + j;
      out = (out << 8) |
            (i < s.size() ? static_cast<unsigned char>(s[i]) : 0u);
    }
    const std::size_t rem = s.size() > base ? s.size() - base : 0;
    return (out << 8) |
           static_cast<std::uint64_t>(rem < word_bytes ? rem : word_bytes);
  }
  // True when every key tying on this word extends beyond its window and
  // the refine driver must re-encode at the next byte offset.
  static constexpr bool word_continues(std::uint64_t word) noexcept {
    return (word & 0xFF) == word_bytes;
  }
};

// How many prefix words the std::string / std::string_view codecs use: 2
// words = a 14-byte materialized radix prefix (7 content bytes + 1
// continuation-count byte per word). Wider prefixes are available by
// sorting through a string_prefix_codec<N> specialization of your own key
// type.
inline constexpr std::size_t kStringPrefixWords = 2;

template <>
struct key_codec<std::string> : string_prefix_codec<kStringPrefixWords> {};
template <>
struct key_codec<std::string_view>
    : string_prefix_codec<kStringPrefixWords> {};

}  // namespace dovetail
