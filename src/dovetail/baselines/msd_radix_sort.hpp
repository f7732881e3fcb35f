// Plain parallel MSD radix sort — the framework of Alg 1 in the paper and
// the stand-in for PLIS (ParlayLib integer sort [10]).
//
// Stable, out-of-place (ping-pong A/T), counting-sort distribution on the
// top digit, parallel recursion per bucket, comparison-sort base case.
// Distribution runs through the unified engine (distribute.hpp) with the
// classic `direct` scatter, as PLIS has no buffered staging, and with a
// workspace shared across all recursion levels, so repeated sorts on one
// workspace reuse all O(n) scratch.
// The key range is found with a parallel max-reduce (PLIS behaviour; DTSort
// instead estimates it from samples, Sec 5).
//
// With γ = Θ(sqrt(log r)) and θ = 2^{cγ} this realizes the
// O(n sqrt(log r))-work bound of Thm 4.4. It has no heavy-key handling, so
// it doubles as the "Plain" arm of the Fig 4(a,b) ablation when configured
// identically to DTSort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "dovetail/core/distribute.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/sort.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail::baseline {

struct radix_options {
  // 0 = auto: clamp(log2(n)/3, 8, 12), the paper baseline's own rule,
  // deliberately left out of the pass planner (core/pass_plan.hpp).
  int gamma = 0;
  std::size_t base_case = std::size_t{1} << 14;
  sort_workspace* workspace = nullptr;  // reuse across sorts; may be null
  sort_stats* stats = nullptr;          // engine counters; may be null
};

namespace detail {

template <typename Rec, typename KeyFn>
class msd_sorter {
 public:
  msd_sorter(std::span<Rec> data, const KeyFn& key, const radix_options& opt)
      : a_(data), key_(key), opt_(opt),
        theta_(std::max<std::size_t>(opt.base_case, 2)) {
    const std::size_t n = std::max<std::size_t>(2, data.size());
    const auto lg = static_cast<int>(ceil_log2(n));
    gamma_ = opt.gamma > 0 ? opt.gamma : std::clamp(lg / 3, 8, 12);
  }

  void run() {
    const std::size_t n = a_.size();
    if (n <= 1) return;
    // Range detection by max-reduce (skips leading zero bits).
    const std::uint64_t maxk = par::reduce_map(
        0, n, std::uint64_t{0},
        [&](std::size_t i) { return keyof(a_[i]); },
        [](std::uint64_t x, std::uint64_t y) { return x < y ? y : x; });
    const int bits = bit_width_u64(maxk);
    if (bits == 0) return;  // all keys are zero
    sort_workspace local_ws;
    ws_ = opt_.workspace != nullptr ? opt_.workspace : &local_ws;
    t_ = ws_->template record_buffer<Rec>(n, opt_.stats);
    sort_rec(0, n, bits, /*in_a=*/true);
    ws_ = nullptr;
  }

 private:
  [[nodiscard]] std::uint64_t keyof(const Rec& r) const {
    return static_cast<std::uint64_t>(key_(r));
  }

  void sort_rec(std::size_t lo, std::size_t hi, int bits, bool in_a) {
    const std::size_t n = hi - lo;
    if (n == 0) return;
    if (bits == 0 || n == 1) {
      par::copy_back_to_a(a_.subspan(lo, n), t_.subspan(lo, n), in_a);
      return;
    }
    if (n <= theta_) {
      par::stable_sort_to_a(a_.subspan(lo, n), t_.subspan(lo, n), in_a,
                            [this](const Rec& x, const Rec& y) {
                              return key_(x) < key_(y);
                            });
      return;
    }
    const int digit = std::min(
        {gamma_, bits, std::max(2, static_cast<int>(floor_log2(n) / 2))});
    const int shift = bits - digit;
    const std::size_t zones = std::size_t{1} << digit;
    const std::uint64_t zmask = zones - 1;

    std::span<Rec> cur = in_a ? a_ : t_;
    std::span<Rec> oth = in_a ? t_ : a_;
    auto bucket_of = [&](const Rec& r) -> std::size_t {
      return (keyof(r) >> shift) & zmask;
    };
    sort_workspace::lease off_lease =
        ws_->acquire((zones + 1) * sizeof(std::size_t), opt_.stats);
    const std::span<std::size_t> offs =
        off_lease.carve<std::size_t>(zones + 1);
    distribute_options dopt;
    dopt.strategy = scatter_strategy::direct;  // PLIS's classic scatter
    dopt.workspace = ws_;
    dopt.stats = opt_.stats;
    distribute(std::span<const Rec>(cur.data() + lo, n), oth.subspan(lo, n),
               zones, bucket_of, offs, dopt);
    par::parallel_for(
        0, zones,
        [&](std::size_t z) {
          sort_rec(lo + offs[z], lo + offs[z + 1], shift, !in_a);
        },
        1);
  }

  std::span<Rec> a_;
  std::span<Rec> t_;
  const KeyFn key_;
  const radix_options opt_;
  sort_workspace* ws_ = nullptr;
  std::size_t theta_;
  int gamma_ = 8;
};

}  // namespace detail

// Stable parallel MSD radix sort (PLIS-like baseline).
template <typename Rec, typename KeyFn>
void msd_radix_sort(std::span<Rec> data, const KeyFn& key,
                    const radix_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<Rec>);
  detail::msd_sorter<Rec, KeyFn> s(data, key, opt);
  s.run();
}

template <typename K>
  requires std::is_unsigned_v<K>
void msd_radix_sort(std::span<K> data, const radix_options& opt = {}) {
  msd_radix_sort(data, [](const K& k) { return k; }, opt);
}

}  // namespace dovetail::baseline
