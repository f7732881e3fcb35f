// Synthetic input distributions from Sec 6 of the paper:
//   Unif-μ : uniform over μ distinct keys, spread over the full key range
//   Exp-λ  : key frequencies follow an exponential distribution with rate
//            1e-5·λ (larger λ => heavier duplicates)
//   Zipf-s : Zipfian with exponent s (larger s => heavier duplicates)
//   BExp-t : "bit-exponential" adversarial input — every bit of the key is
//            0 with probability 1/t, else 1 (controls the *bitwise*
//            encoding, producing wildly uneven MSD zones; Sec 6.1)
//
// All generators are deterministic functions of (seed, index), so data can
// be generated in parallel with no races. Unif/Exp/Zipf keys are passed
// through a 64-bit bijective hash and masked to the target width, which
// spreads them over the full range [r] while preserving the duplicate
// structure (the paper: "we map the keys to larger ranges, up to 2^32 or
// 2^64"). BExp keys are used raw since their bit pattern is the point.
//
// Zipf uses the bounded-Pareto inverse-CDF approximation of the discrete
// Zipf distribution (O(1) per sample): rank = x rounded down where x has
// density ∝ x^-s on [1, U]. This preserves the rank-frequency skew the
// experiments depend on.
#pragma once

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/key_codec.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/bits.hpp"
#include "dovetail/util/record.hpp"

namespace dovetail::gen {

enum class dist_kind { uniform, exponential, zipfian, bexp };

struct distribution {
  dist_kind kind;
  double param;      // μ for uniform, λ-multiplier for exp, s for zipf, t for bexp
  std::string name;  // e.g. "Unif-1e5"
};

// The 20 instances of Tab 3 (5 per family, light -> heavy duplicates).
inline std::vector<distribution> paper_distributions() {
  return {
      {dist_kind::uniform, 1e9, "Unif-1e9"},
      {dist_kind::uniform, 1e7, "Unif-1e7"},
      {dist_kind::uniform, 1e5, "Unif-1e5"},
      {dist_kind::uniform, 1e3, "Unif-1e3"},
      {dist_kind::uniform, 10, "Unif-10"},
      {dist_kind::exponential, 1, "Exp-1"},
      {dist_kind::exponential, 2, "Exp-2"},
      {dist_kind::exponential, 5, "Exp-5"},
      {dist_kind::exponential, 7, "Exp-7"},
      {dist_kind::exponential, 10, "Exp-10"},
      {dist_kind::zipfian, 0.6, "Zipf-0.6"},
      {dist_kind::zipfian, 0.8, "Zipf-0.8"},
      {dist_kind::zipfian, 1.0, "Zipf-1"},
      {dist_kind::zipfian, 1.2, "Zipf-1.2"},
      {dist_kind::zipfian, 1.5, "Zipf-1.5"},
      {dist_kind::bexp, 10, "BExp-10"},
      {dist_kind::bexp, 30, "BExp-30"},
      {dist_kind::bexp, 50, "BExp-50"},
      {dist_kind::bexp, 100, "BExp-100"},
      {dist_kind::bexp, 300, "BExp-300"},
  };
}

inline std::vector<distribution> standard_distributions() {
  auto all = paper_distributions();
  return {all.begin(), all.begin() + 15};
}

// One-line family descriptions, shared by error messages and catalogs
// (bench_suite --list, dtsort_cli).
struct family_info {
  dist_kind kind;
  std::string_view prefix;     // the canonical "Family-param" prefix
  std::string_view param;      // what the parameter means
  std::string_view description;
};

inline std::span<const family_info> distribution_families() {
  static const family_info families[] = {
      {dist_kind::uniform, "Unif", "mu",
       "uniform over mu distinct keys, hashed over the full key range"},
      {dist_kind::exponential, "Exp", "lambda",
       "exponential key frequencies with rate 1e-5*lambda (larger = "
       "heavier duplicates)"},
      {dist_kind::zipfian, "Zipf", "s",
       "Zipfian with exponent s (larger = heavier duplicates)"},
      {dist_kind::bexp, "BExp", "t",
       "bit-exponential: each key bit is 0 with probability 1/t "
       "(adversarially uneven MSD zones)"},
  };
  return families;
}

// Named-distribution lookup: parse a "Family-param" name — "Unif-1e7",
// "Exp-5", "Zipf-1.2", "BExp-30" — into a distribution, so benchmarks and
// CLI tools can take instances by the names the paper (and our tables) use.
// Any parameter value is accepted, not just the 20 instances of Tab 3.
//
// Returns nullopt when the name does not parse; if `error` is non-null it
// then receives a message naming the exact failure (missing dash, unknown
// family, bad parameter) — callers surface it so a --dist typo fails loudly
// instead of silently matching nothing.
inline std::optional<distribution> find_distribution(
    std::string_view name, std::string* error = nullptr) {
  const auto fail = [&](std::string why) -> std::optional<distribution> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  const std::size_t dash = name.find('-');
  if (dash == std::string_view::npos || dash + 1 >= name.size())
    return fail(std::string("'").append(name).append(
        "' is not of the form Family-param (e.g. Unif-1e7, Exp-5, "
        "Zipf-1.2, BExp-30)"));
  const std::string_view family = name.substr(0, dash);
  const family_info* match = nullptr;
  for (const family_info& f : distribution_families()) {
    // Case-insensitive prefix match ("unif" and "Unif" both work).
    if (family.size() == f.prefix.size() &&
        std::equal(family.begin(), family.end(), f.prefix.begin(),
                   [](char a, char b) {
                     return std::tolower(static_cast<unsigned char>(a)) ==
                            std::tolower(static_cast<unsigned char>(b));
                   })) {
      match = &f;
      break;
    }
  }
  if (match == nullptr) {
    std::string known;
    for (const family_info& f : distribution_families())
      known += (known.empty() ? "" : ", ") + std::string(f.prefix);
    return fail("unknown distribution family '" + std::string(family) +
                "' (known: " + known + ")");
  }
  const std::string param_str(name.substr(dash + 1));
  char* end = nullptr;
  const double param = std::strtod(param_str.c_str(), &end);
  if (end == param_str.c_str() || *end != '\0' || !(param > 0))
    return fail("bad parameter '" + param_str + "' for family '" +
                std::string(match->prefix) +
                "' (need a positive number, e.g. " +
                std::string(match->prefix) + "-10)");
  return distribution{match->kind, param, std::string(name)};
}

// ---------------------------------------------------------------------------
// Per-index key generators. `key_bits` is 32 or 64.

inline std::uint64_t uniform_key(std::uint64_t seed, std::uint64_t i,
                                 std::uint64_t mu, int key_bits) {
  const std::uint64_t v = par::rand_range(seed, i, mu == 0 ? 1 : mu);
  return par::hash64(v + 1) & low_mask(key_bits);
}

inline std::uint64_t exponential_key(std::uint64_t seed, std::uint64_t i,
                                     double lambda_mult, int key_bits) {
  const double lambda = 1e-5 * lambda_mult;
  const double u = par::rand_double(seed, i);
  const double x = -std::log1p(-u) / lambda;
  const auto v = static_cast<std::uint64_t>(x);
  return par::hash64(v + 1) & low_mask(key_bits);
}

inline std::uint64_t zipf_key(std::uint64_t seed, std::uint64_t i, double s,
                              std::uint64_t universe, int key_bits) {
  const double u = par::rand_double(seed, i);
  const auto umax = static_cast<double>(universe);
  double x;
  if (s > 0.999 && s < 1.001) {
    x = std::pow(umax, u);  // s == 1: inverse CDF of 1/x on [1, U]
  } else {
    const double one_minus_s = 1.0 - s;
    const double t = std::pow(umax, one_minus_s);
    x = std::pow((t - 1.0) * u + 1.0, 1.0 / one_minus_s);
  }
  auto rank = static_cast<std::uint64_t>(x);
  if (rank < 1) rank = 1;
  if (rank > universe) rank = universe;
  return par::hash64(rank) & low_mask(key_bits);
}

inline std::uint64_t bexp_key(std::uint64_t seed, std::uint64_t i, double t,
                              int key_bits) {
  // Bit is 0 with probability 1/t. 16-bit thresholds give < 0.01% error for
  // the paper's t in [10, 300]; 4 bits are drawn per hash call.
  const auto threshold =
      static_cast<std::uint32_t>(65536.0 / t + 0.5);
  std::uint64_t key = 0;
  int produced = 0;
  std::uint64_t chunk_idx = 0;
  while (produced < key_bits) {
    std::uint64_t r = par::rand_at(seed ^ 0xBE9Full, i * 16 + chunk_idx++);
    for (int c = 0; c < 4 && produced < key_bits; ++c) {
      const auto v = static_cast<std::uint32_t>((r >> (16 * c)) & 0xFFFF);
      const std::uint64_t bit = v < threshold ? 0 : 1;
      key |= bit << produced;
      ++produced;
    }
  }
  return key;
}

inline std::uint64_t make_key(const distribution& d, std::uint64_t seed,
                              std::uint64_t i, std::uint64_t n,
                              int key_bits) {
  switch (d.kind) {
    case dist_kind::uniform:
      return uniform_key(seed, i, static_cast<std::uint64_t>(d.param),
                         key_bits);
    case dist_kind::exponential:
      return exponential_key(seed, i, d.param, key_bits);
    case dist_kind::zipfian:
      return zipf_key(seed, i, d.param, n == 0 ? 1 : n, key_bits);
    case dist_kind::bexp:
      return bexp_key(seed, i, d.param, key_bits);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Bulk generation into records (keys only, or key+value pairs where the
// value records the input index — handy for stability checks).

template <typename K>
std::vector<K> generate_keys(const distribution& d, std::size_t n,
                             std::uint64_t seed = 1) {
  static_assert(std::is_unsigned_v<K>);
  constexpr int kb = static_cast<int>(sizeof(K) * 8);
  std::vector<K> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i] = static_cast<K>(make_key(d, seed, i, n, kb));
  });
  return out;
}

template <typename Rec>
std::vector<Rec> generate_records(const distribution& d, std::size_t n,
                                  std::uint64_t seed = 1) {
  using K = decltype(Rec{}.key);
  constexpr int kb = static_cast<int>(sizeof(K) * 8);
  std::vector<Rec> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i].key = static_cast<K>(make_key(d, seed, i, n, kb));
    out[i].value = static_cast<decltype(Rec{}.value)>(i);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Typed-key generation (the codec families of key_codec.hpp): every
// frequency family above, pushed into signed, floating-point or composite
// key domains. The unsigned key stream is mapped through an injective
// transform (the codec's decode where possible), so the family's duplicate
// structure carries over unchanged — a Zipf-1.2 stream of floats has the
// same rank-frequency skew as the Zipf-1.2 stream of uint32s.
//
// Floats: a hashed key's raw bit pattern can be an Inf or NaN; the map
// clamps the exponent below all-ones so every generated float is FINITE
// (benchmark comparators stay a strict weak order under operator<; the
// merged patterns cost a negligible sliver of the distribution). Property
// tests build their own NaN inputs to exercise the documented NaN policy.

template <typename T>
T typed_key_from(std::uint64_t u) {
  if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    using enc = typename key_codec<T>::encoded_t;
    return key_codec<T>::decode(static_cast<enc>(u));
  } else if constexpr (std::is_same_v<T, float>) {
    auto b = static_cast<std::uint32_t>(u);
    if (((b >> 23) & 0xFFu) == 0xFFu) b &= ~(std::uint32_t{1} << 30);
    return std::bit_cast<float>(b);
  } else if constexpr (std::is_same_v<T, double>) {
    std::uint64_t b = u;
    if (((b >> 52) & 0x7FFull) == 0x7FFull) b &= ~(std::uint64_t{1} << 62);
    return std::bit_cast<double>(b);
  } else if constexpr (std::is_same_v<
                           T, std::pair<std::uint32_t, std::uint32_t>>) {
    return {static_cast<std::uint32_t>(u >> 32),
            static_cast<std::uint32_t>(u)};
  } else {
    static_assert(std::is_unsigned_v<T>,
                  "typed_key_from: unsupported key domain");
    return static_cast<T>(u);
  }
}

// sizeof(T) in bits doubles as the width of the underlying unsigned stream
// for every supported domain (pair<u32,u32> = 8 bytes = the 64-bit stream).
template <typename T>
std::vector<T> generate_typed_keys(const distribution& d, std::size_t n,
                                   std::uint64_t seed = 1) {
  constexpr int kb = static_cast<int>(sizeof(T) * 8);
  std::vector<T> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i] = typed_key_from<T>(make_key(d, seed, i, n, kb));
  });
  return out;
}

// (typed key, value = input index) records — the stability witness shape
// of generate_records for any codec-covered key domain.
template <typename T>
std::vector<tkv<T>> generate_typed_records(const distribution& d,
                                           std::size_t n,
                                           std::uint64_t seed = 1) {
  constexpr int kb = static_cast<int>(sizeof(T) * 8);
  std::vector<tkv<T>> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i].key = typed_key_from<T>(make_key(d, seed, i, n, kb));
    out[i].value = static_cast<std::uint32_t>(i);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Wide-key generation (the wide families of core/wide_sort.hpp): the u64
// frequency stream mapped INJECTIVELY into >64-bit domains, so the
// family's duplicate structure carries over unchanged. `hi_bits` controls
// how much of the stream's entropy reaches the most significant encoded
// word: word 0 is a hash of the value's top hi_bits bits, so ~2^(64 -
// hi_bits) distinct stream values share each word-0 value and the refine
// driver must actually recurse into equal-prefix segments (hi_bits = 0
// makes word 0 constant — one all-equal top-level segment; 64 separates
// every key at word 0 — singleton segments, no refinement). The low word
// is a bijective hash of the full value, which keeps the map injective.

template <typename K>
K wide_key_from(std::uint64_t u, int hi_bits = 16) {
  const std::uint64_t top =
      hi_bits >= 64 ? u : hi_bits <= 0 ? 0 : (u >> (64 - hi_bits));
  const std::uint64_t hi = par::hash64(top + 1);
  const std::uint64_t lo = par::hash64(u + 0x9E37u);
  if constexpr (std::is_same_v<K,
                               std::pair<std::uint64_t, std::uint64_t>>) {
    return {hi, lo};
  } else {
#if defined(__SIZEOF_INT128__)
    static_assert(std::is_same_v<K, unsigned __int128>,
                  "wide_key_from: unsupported wide key domain");
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
#else
    static_assert(sizeof(K) == 0, "wide_key_from: no 128-bit integer type");
#endif
  }
}

// (wide key, value = input index) records — the stability witness shape
// for the wide entry points. K is pair<u64, u64> or unsigned __int128.
template <typename K>
std::vector<tkv<K>> generate_wide_records(const distribution& d,
                                          std::size_t n,
                                          std::uint64_t seed = 1,
                                          int hi_bits = 16) {
  std::vector<tkv<K>> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i].key = wide_key_from<K>(make_key(d, seed, i, n, 64), hi_bits);
    out[i].value = static_cast<std::uint32_t>(i);
  });
  return out;
}

// String keys with the same injective-map discipline, shaped to exercise
// every stage of the prefix codec (key_codec.hpp):
//   bytes 0-7   "key-XXX-" — a tag from the value's top `tag_bits` bits,
//               so word 0 discriminates only coarsely (default 2^12
//               distinct word-0 values);
//   bytes 8-23  16 hex digits of the full value — injective; the later
//               digits lie BEYOND the materialized prefix window, so
//               values sharing their top bits tie on the whole prefix and
//               exercise the driver's beyond-the-prefix machinery
//               (continuation or tie-break);
//   tail        0-4 extra characters (value-dependent), so equal-prefix
//               groups mix lengths.
inline std::string string_key_from(std::uint64_t u, int tag_bits = 12) {
  constexpr char hexd[] = "0123456789abcdef";
  std::string s;
  s.reserve(28);
  s += "key-";
  const std::uint64_t tag = tag_bits <= 0 ? 0 : u >> (64 - tag_bits);
  for (int sh = 8; sh >= 0; sh -= 4)
    s += hexd[(tag >> sh) & 0xF];
  s += '-';
  for (int sh = 60; sh >= 0; sh -= 4)
    s += hexd[(u >> sh) & 0xF];
  const std::size_t tail = u % 5;
  for (std::size_t t = 0; t < tail; ++t)
    s += static_cast<char>('a' + ((u >> (4 * t)) & 0xF));
  return s;
}

inline std::vector<std::string> generate_string_keys(const distribution& d,
                                                     std::size_t n,
                                                     std::uint64_t seed = 1,
                                                     int tag_bits = 12) {
  std::vector<std::string> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    out[i] = string_key_from(make_key(d, seed, i, n, 64), tag_bits);
  });
  return out;
}

// Long-common-prefix string keys — the URL/file-path/log-key shape that
// degenerates a prefix-only engine to per-key comparisons, and the input
// of the wide-str-lcp bench family and the string engine's continuation
// tests. Every key starts with the SAME `common_prefix`-byte printable
// prefix (deterministic in `seed`), followed by 16 hex digits of the u64
// frequency stream (injective, so the distribution's duplicate structure
// carries over) and a 0-4 character value-dependent tail that mixes
// lengths. A ~1-in-64 slice of keys instead STOPS at a value-dependent
// point inside the FIRST 16 bytes of the shared prefix — each a strict
// prefix of every full key (the adversarial NUL-extension shape), with
// lengths straddling the 7-byte word and 14-byte window boundaries, so
// equal-prefix segments mix ended and continuing keys right where the
// codec arithmetic is trickiest. Truncation stays shallow on purpose:
// real long-prefix corpora (a shared directory path, a URL host) almost
// never contain the prefix cut at arbitrary depths, so beyond the first
// window the corpus exercises the continuation's tied-window walk rather
// than forcing a splitting radix round per window (arbitrary-depth
// truncation is covered by the string test battery and the LCP fuzz
// arm). common_prefix = 0 degenerates to untagged generate_string_keys.
inline std::vector<std::string> generate_lcp_string_keys(
    const distribution& d, std::size_t n, std::uint64_t seed = 1,
    std::size_t common_prefix = 64) {
  std::string prefix(common_prefix, 'x');
  for (std::size_t i = 0; i < common_prefix; ++i)
    prefix[i] =
        static_cast<char>('a' + par::hash64(seed ^ (0xC0FFEEull + i)) % 26);
  std::vector<std::string> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    constexpr char hexd[] = "0123456789abcdef";
    const std::uint64_t u = make_key(d, seed, i, n, 64);
    std::string& s = out[i];
    if (common_prefix > 0 && (par::hash64(u + 0x51ull) & 63) == 0) {
      const std::size_t cut = std::min<std::size_t>(common_prefix, 16);
      s.assign(prefix, 0, par::hash64(u + 0x1157ull) % cut);
      return;
    }
    s.reserve(common_prefix + 21);
    s = prefix;
    for (int sh = 60; sh >= 0; sh -= 4) s += hexd[(u >> sh) & 0xF];
    const std::size_t tail = u % 5;
    for (std::size_t t = 0; t < tail; ++t)
      s += static_cast<char>('a' + ((u >> (4 * t)) & 0xF));
  });
  return out;
}

// Realistic URL corpus — scheme://host/path keys whose shared-prefix
// structure comes from the DATA rather than a synthetic constant prefix
// (generate_lcp_string_keys): every key starts with one of two schemes
// (word 0 of the prefix codec is nearly constant across the corpus), the
// host is drawn from `num_hosts` names with the distribution's frequency
// skew (a hot host under Zipf puts thousands of keys behind one ~30-byte
// shared prefix — the natural LCP-group shape of real web logs), the
// path opens with vocabulary segments (/v1/users/...) and ends in 16 hex
// digits of the u64 frequency stream plus a resource suffix. Equal
// stream values yield equal URLs and distinct values distinct URLs, so
// the distribution's duplicate structure carries over exactly, like
// every generator above. Lengths mix via the suffix. This is the input
// of the wide-str-url bench row (scenarios_wide.hpp).
inline std::vector<std::string> generate_url_keys(const distribution& d,
                                                  std::size_t n,
                                                  std::uint64_t seed = 1,
                                                  std::size_t num_hosts = 512) {
  static constexpr std::string_view kSubs[] = {"www", "api", "cdn", "img"};
  static constexpr std::string_view kSegs[] = {"users",  "items", "orders",
                                               "assets", "feed",  "search",
                                               "docs",   "static"};
  static constexpr std::string_view kSuffix[] = {"", ".json", ".html", "/"};
  if (num_hosts == 0) num_hosts = 1;
  std::vector<std::string> out(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    constexpr char hexd[] = "0123456789abcdef";
    const std::uint64_t u = make_key(d, seed, i, n, 64);
    // Every field below is a pure function of u (and the fixed seed), so
    // the whole URL is too — duplicates collapse, distinct keys stay
    // distinct via the hex id.
    const std::uint64_t h = par::hash64(u ^ (seed + 0x02bull));
    const std::uint64_t host = h % num_hosts;
    std::string& s = out[i];
    s.reserve(80);
    s += ((h >> 61) & 7) == 0 ? "http://" : "https://";
    s += kSubs[(host >> 7) & 3];
    s += '-';
    for (int sh = 12; sh >= 0; sh -= 4)
      s += hexd[(host >> sh) & 0xF];
    s += ".example.com/v";
    s += static_cast<char>('1' + ((h >> 9) & 1));
    s += '/';
    s += kSegs[(h >> 32) & 7];
    s += '/';
    for (int sh = 60; sh >= 0; sh -= 4) s += hexd[(u >> sh) & 0xF];
    s += kSuffix[(h >> 34) & 3];
  });
  return out;
}

}  // namespace dovetail::gen
