// Output checks for every benchmark op.
//
// Inputs carry value = input index, so a stable sort has exactly one
// correct output: the std::stable_sort reference. Each check returns null
// on success or a short reason naming the first property that failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

inline std::uint64_t record_hash(std::uint64_t key, std::uint64_t value) {
  return mix64(key * 0x9E3779B97F4A7C15ull ^ mix64(value + 1));
}

// Order-independent (key, value) fingerprint: equal for any permutation.
template <typename Rec>
std::uint64_t fingerprint(std::span<const Rec> a) {
  std::uint64_t s = 0;
  for (const Rec& r : a) s += record_hash(r.key, r.value);
  return s;
}

// A stable sort of `input`: a permutation of it (fingerprint `input_fp`),
// non-decreasing keys, equal keys in increasing input index, and
// byte-identical to the std::stable_sort reference.
template <typename Rec>
const char* check_sorted(std::span<const Rec> out, std::span<const Rec> ref,
                         std::uint64_t input_fp) {
  if (out.size() != ref.size()) return "wrong size";
  std::uint64_t fp = 0;
  const char* order_error = nullptr;
  for (std::size_t i = 0; i < out.size(); ++i) {
    fp += record_hash(out[i].key, out[i].value);
    if (i > 0 && order_error == nullptr) {
      if (out[i - 1].key > out[i].key)
        order_error = "keys out of order";
      else if (out[i - 1].key == out[i].key &&
               out[i - 1].value >= out[i].value)
        order_error = "unstable: equal keys out of input order";
    }
  }
  if (fp != input_fp) return "not a permutation of the input";
  if (order_error != nullptr) return order_error;
  if (!out.empty() &&
      std::memcmp(out.data(), ref.data(), out.size() * sizeof(Rec)) != 0)
    return "differs from the std::stable_sort reference";
  return nullptr;
}

// top_k: the first k records byte-identical to the stable-sort slice, and
// the whole array still a permutation of the input.
template <typename Rec>
const char* check_top_k(std::span<const Rec> out,
                        std::span<const Rec> ref_prefix,
                        std::uint64_t input_fp) {
  if (fingerprint(out) != input_fp) return "not a permutation of the input";
  if (out.size() < ref_prefix.size()) return "wrong size";
  if (std::memcmp(out.data(), ref_prefix.data(),
                  ref_prefix.size() * sizeof(Rec)) != 0)
    return "top-k slice differs from the stable-sort slice";
  return nullptr;
}

inline const char* check_strings(const std::vector<std::string>& out,
                                 const std::vector<std::string>& ref) {
  return out == ref ? nullptr : "differs from the std::stable_sort reference";
}

}  // namespace perfbench
