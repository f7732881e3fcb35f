// dovetail::sort / sort_by_key / rank — the adaptive front door of the
// library, generalized over typed keys by the key-codec layer
// (key_codec.hpp).
//
// The kernels, the input sketch and the routing policy live in the
// single-word dispatcher (dispatch.hpp); word-by-word work — wide keys and
// every rank-window query — goes through the MSD segment driver
// (wide_sort.hpp). This header decides how a typed key reaches them, in
// ONE router (detail::sort_windows) shared by dovetail::sort and the
// queries of order_stats.hpp, which pass their rank windows where a sort
// passes [0, n) (a fused single-word sort calls the router's fused step,
// detail::sort_fused_word, directly):
//   * cheap single-word codecs (all built-ins) on trivially copyable
//     records FUSE the encode into the key function, so every kernel, the
//     sketch and the dispatch operate on encoded keys with no extra pass
//     and no extra memory — records are scattered as-is and never decoded;
//     cheap WIDE codecs other than the string codec fuse the same way into
//     the segment driver;
//   * everything else — expensive codecs, string keys (std::string_view
//     records too: the string continuation works on encoded words),
//     records that are not trivially copyable (e.g. a
//     std::span<std::pair<...>> under libstdc++, or std::string), and the
//     SoA / argsort entry points — takes the ONE
//     encode-once route (detail::encode_once): materialize each key once
//     as a workspace-leased (encoded words, index) record, run the segment
//     driver on those records as the one record kernel, and gather the
//     resulting stable permutation back into the caller's arrays.
// Every route but the fused single-word sort opens with the same per-call
// preamble (detail::call_scope): the caller's width for the whole
// call, encode and gather passes included, and the workspace every
// scratch lease comes from. The encode-once route is also what powers the
// SoA entry points:
//   * sort_by_key(keys, values) sorts parallel key/value arrays without
//     ever dragging the value bytes through a radix pass (4-byte keys stop
//     hauling 32-byte rows through every scatter);
//   * rank(data, key) returns the stable sorted permutation (argsort)
//     without moving — or even being able to write — the records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace dovetail {

// Stable argsort / permutation index type returned by dovetail::rank.
using index_t = std::size_t;

namespace detail {

// The per-call preamble of every typed entry point except the fused
// single-word sort (whose dispatcher installs the same width itself): the
// caller's width for the WHOLE call — encode, kernel and gather
// passes alike, not just the nested sort_unsigned calls — and the
// workspace every scratch lease comes from (the caller's, else one local
// to the call). opt() is the caller's options with that workspace filled
// in; everything below the entry points reads its workspace from there.
class call_scope {
 public:
  explicit call_scope(const auto_sort_options& opt)
      : cap_(opt.num_threads), opt_(opt) {
    if (opt_.workspace == nullptr) opt_.workspace = &local_ws_;
  }
  call_scope(const call_scope&) = delete;
  call_scope& operator=(const call_scope&) = delete;

  [[nodiscard]] const auto_sort_options& opt() const noexcept {
    return opt_;
  }
  [[nodiscard]] sort_workspace& ws() const noexcept {
    return *opt_.workspace;
  }

 private:
  par::scoped_worker_limit cap_;
  sort_workspace local_ws_;
  auto_sort_options opt_;
};

// The encode-once route, the only place a typed key is materialized:
// encode key_at(0..n) ONCE into workspace-leased (encoded words, index)
// records — enc_idx32 / enc_idx64 for single-word keys of type K,
// enc_words<W> for W-word keys (wide_sort.hpp) — run `kernel(records)`,
// which reorders them (a sort, or a selection that settles the requested
// rank windows), then emit(pos, src) the resulting permutation, in
// parallel. The records arrive at the kernel in input order, so a stable
// kernel keeps equal keys in increasing index order — the stable
// permutation, with no tie-break on the index. Warm calls lease without
// allocating.
template <typename K, typename KeyAt, typename Kernel, typename Emit>
void encode_once(std::size_t n, const KeyAt& key_at, sort_workspace& ws,
                 sort_stats* st, const Kernel& kernel, const Emit& emit) {
  using WT = wide_key_traits<K>;
  const auto run = [&]<typename R>(std::type_identity<R>) {
    std::span<R> recs;
    sort_workspace::lease l = ws.acquire_array<R>(n, recs, st);
    par::parallel_for(0, n, [&](std::size_t i) {
      auto&& k = key_at(i);
      if constexpr (WT::single_word) {
        recs[i] = R{static_cast<decltype(R::key)>(WT::word(k, 0)),
                    static_cast<decltype(R::idx)>(i)};
      } else {
        for (std::size_t w = 0; w < WT::word_count; ++w)
          recs[i].word[w] = WT::word(k, w);
        recs[i].idx = static_cast<std::uint64_t>(i);
      }
    });
    kernel(recs);
    par::parallel_for(0, n, [&](std::size_t i) {
      emit(i, static_cast<std::size_t>(recs[i].idx));
    });
  };
  if constexpr (!WT::single_word)
    run(std::type_identity<enc_words<WT::word_count>>{});
  else if (WT::encoded_bits <= 32 && n <= 0xFFFFFFFFull)
    run(std::type_identity<enc_idx32>{});
  else
    run(std::type_identity<enc_idx64>{});
}

// The record kernel of the encode-once route, for encode_once's `kernel`:
// the segment driver over the encoded records and `windows` — the
// dispatcher alone for a single-word sort (presorted / tiny-range / tiny-n
// inputs keep their cheap kernels), the rank selector for a single-word
// query, and for W-word records the word rounds, which read the true keys
// back through key_at for a prefix codec's tie-break and continuation.
// `opt` comes from a call_scope; the root kernel that ran lands in `k`.
template <typename K, typename KeyAt>
auto record_kernel(const KeyAt& key_at, std::span<const rank_window> windows,
                   const auto_sort_options& opt, sort_kernel& k) {
  return [&key_at, windows, &opt, &k]<typename R>(std::span<R> recs) {
    k = refine_encoded<K>(recs, key_at, windows, opt);
  };
}

// n elements of T, backed by a workspace lease when T is trivially
// copyable (warm calls: zero allocations) and by a plain vector otherwise
// (T must then be default-constructible and move-assignable).
template <typename T>
class scratch_array {
 public:
  scratch_array(std::size_t n, sort_workspace& ws, sort_stats* stats) {
    if constexpr (std::is_trivially_copyable_v<T> &&
                  alignof(T) <= detail::kSlabAlign) {
      lease_ = ws.acquire(n * sizeof(T), stats);
      span_ = lease_.template carve<T>(n);
    } else {
      vec_.resize(n);
      span_ = std::span<T>(vec_);
    }
  }
  [[nodiscard]] std::span<T> get() noexcept { return span_; }

 private:
  sort_workspace::lease lease_;
  std::vector<T> vec_;
  std::span<T> span_;
};

// The gather target of reorder_arrays: n slots of T, each filled once by
// put(pos, v), which moves v in, then emptied into the caller's array by
// drain_to. Types whose moves and destructor cannot throw (std::string)
// are MOVE-CONSTRUCTED into raw workspace-leased storage and destroyed
// after the write-back — no per-call vector, no n default constructions,
// and warm calls allocate nothing. Other types use scratch_array
// (trivially copyable types lease too; the rest need a default
// constructor).
template <typename T>
class gather_scratch {
  static constexpr bool kRaw = !std::is_trivially_copyable_v<T> &&
                               std::is_nothrow_move_constructible_v<T> &&
                               std::is_nothrow_move_assignable_v<T> &&
                               alignof(T) <= detail::kSlabAlign;

 public:
  gather_scratch(std::size_t n, sort_workspace& ws, sort_stats* stats)
      : n_(n) {
    if constexpr (kRaw) {
      if (n == 0) return;
      lease_ = ws.acquire(n * sizeof(T), stats);
      slots_ = reinterpret_cast<T*>(
          lease_.template carve<std::byte>(n * sizeof(T)).data());
    } else {
      arr_.emplace(n, ws, stats);
      slots_ = arr_->get().data();
    }
  }
  void put(std::size_t pos, T& v) noexcept(kRaw) {
    if constexpr (kRaw)
      std::construct_at(slots_ + pos, std::move(v));
    else
      slots_[pos] = std::move(v);
  }
  // Every slot must have been put.
  void drain_to(std::span<T> to) {
    write_back(std::span<T>(slots_, n_), to);
    if constexpr (kRaw)
      par::parallel_for(0, n_,
                        [&](std::size_t i) { std::destroy_at(slots_ + i); });
  }

 private:
  std::size_t n_;
  T* slots_ = nullptr;
  sort_workspace::lease lease_;
  std::optional<scratch_array<T>> arr_;
};

// The gather half of the encode-once route: reorder `a` — and the
// parallel array `b` with it, unless `b` is empty — by the permutation
// `kernel` leaves on the encoded records of the keys key_at(i). Each
// array is MOVED once into scratch and written back (the permutation
// consumes every source exactly once, so a std::string never pays a heap
// copy for being sorted). `opt` comes from a call_scope.
template <typename K, typename A, typename B, typename KeyAt,
          typename Kernel>
void reorder_arrays(std::span<A> a, std::span<B> b, const KeyAt& key_at,
                    const auto_sort_options& opt, const Kernel& kernel) {
  gather_scratch<A> ta(a.size(), *opt.workspace, opt.stats);
  gather_scratch<B> tb(b.size(), *opt.workspace, opt.stats);
  encode_once<K>(a.size(), key_at, *opt.workspace, opt.stats, kernel,
                 [&](std::size_t pos, std::size_t src) {
                   ta.put(pos, a[src]);
                   if (!b.empty()) tb.put(pos, b[src]);
                 });
  ta.drain_to(a);
  tb.drain_to(b);
}

// Stably order the rank `windows` of `a` (and `b`) by the keys
// key_at(i): the encode-once route of the router below, sort_by_key and
// group_by's fingerprint route.
template <typename A, typename B, typename KeyAt>
sort_kernel sort_arrays(std::span<A> a, std::span<B> b, const KeyAt& key_at,
                        std::span<const rank_window> windows,
                        const auto_sort_options& opt) {
  using K = std::remove_cvref_t<decltype(key_at(std::size_t{0}))>;
  sort_kernel k = sort_kernel::std_sort;
  reorder_arrays<K>(a, b, key_at, opt,
                    record_kernel<K>(key_at, windows, opt, k));
  return k;
}

// Cheap codecs on trivially copyable records fuse the encode into every
// key access, with no added pass, lease or allocation — except the string
// codec, whose continuation refills words into encode-once records.
template <typename Rec, typename K>
inline constexpr bool kFused = std::is_trivially_copyable_v<Rec> &&
                               wide_key_traits<K>::cheap &&
                               !wide_key_traits<K>::offset_encodable;

// The fused single-word sort: the caller's functor (or its encoded_key_fn
// wrapper) goes straight to the dispatcher, so kernels, sketch and
// dispatch all see encoded keys; records are scattered as-is and never
// decoded. Identity codecs (unsigned keys) skip even the encode wrapper.
// The named wrapper (not a lambda) keeps the purity of the inner functor
// visible to the dispatcher: encoded_key_fn over a pure-key functor is
// itself pure-key (is_pure_key_fn_v), which is what lets plain
// signed/float spans use the in-place kernel.
template <typename Rec, typename KeyFn>
sort_kernel sort_fused_word(std::span<Rec> data, const KeyFn& key,
                            const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  if constexpr (codec_traits<K>::identity)
    return sort_unsigned(data, key, opt);
  else
    return sort_unsigned(
        data, encoded_key_fn<typename codec_traits<K>::codec, KeyFn>{key},
        opt);
}

// The one router behind every order-statistics query (order_stats.hpp)
// and every dovetail::sort that is not a fused single-word sort:
// rearrange `data` so each of the `windows` (sorted, disjoint, clipped to
// [0, n); the single window [0, n) for a sort) holds its slice of the
// stable order by key(record). Returns the root kernel.
//   * Fused single-word: a sort is sort_fused_word (the functor type is
//     what marks pure-key spans for the in-place kernel); a query runs the
//     driver's one-word case, the rank selector on word 0.
//   * Fused wide — cheap wide codecs on trivially copyable records: the
//     segment driver re-derives each word from the records.
//   * Everything else takes the encode-once route with one record kernel.
template <typename Rec, typename KeyFn>
sort_kernel sort_windows(std::span<Rec> data, const KeyFn& key,
                         std::span<const rank_window> windows,
                         const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  if constexpr (kFused<Rec, K> && wide_key_traits<K>::single_word) {
    if (covers_all(windows, data.size()))
      return sort_fused_word(data, key, opt);
  }
  const call_scope call(opt);
  if constexpr (kFused<Rec, K>) {
    return refine_fused(data, key, windows, call.opt());
  } else {
    // Also the route for string keys and for non-trivially-copyable
    // records regardless of key type (the radix kernels cannot scatter
    // them).
    return sort_arrays(
        data, std::span<Rec>{},
        [&](std::size_t i) -> decltype(auto) { return key(data[i]); },
        windows, call.opt());
  }
}

}  // namespace detail

// Sort `data` in place by `key(record)` in non-decreasing key order,
// choosing the kernel adaptively (or as pinned by opt.policy). Returns the
// kernel that ran (for a wide key, the kernel of the word-0 pass); the
// work counters land in opt.stats when provided.
//
// `key` may return ANY codec-covered type (key_codec.hpp): unsigned — the
// native path — or signed integers, float/double (IEEE total order; see
// the NaN policy in key_codec.hpp), pair/tuple composites of any packed
// width, 128-bit integers, std::string/string_view (full lexicographic
// order via the wide refine driver), or a user key_codec specialization
// (single- or multi-word). Cheap codecs on trivially
// copyable records fuse the encoding into every key access (no extra pass,
// no extra memory); expensive codecs, string keys and non-trivially-
// copyable records (e.g. std::pair elements under libstdc++) take the
// encode-once path: sort (encoded key, index) pairs, then gather the
// records once.
//
// Guarantees:
//   * Stable, whatever kernel runs (every kernel is stable; the dispatcher
//     never selects the unstable scatter).
//   * Deterministic: the sketch, the dispatch and every kernel draw from
//     fixed seeds, so the same input always takes the same route.
//   * Within a few percent of the best hand-picked kernel across the
//     BENCH_suite.json scenario matrix — measured, not promised: the
//     bench_suite "auto" family re-checks it on every run (see
//     docs/TUNING.md and the committed BENCH_auto.json).
//
// Space: O(n) extra from the workspace (the record ping-pong buffer plus
// per-pass scratch; the encode-once path adds the pair array and one
// gather buffer), except std_sort (std::stable_sort's own allocation) and
// a confirmed-sorted input on the fused path (no scratch touched at all).
//
// Throws std::invalid_argument if opt.policy forces the counting kernel on
// an input whose exact key range reaches 2^20 (see policy::always).
template <typename Rec, typename KeyFn>
sort_kernel sort(std::span<Rec> data, const KeyFn& key,
                 const auto_sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(
      any_sortable_key<K>,
      "dovetail::sort: the key type has no key_codec — sort by an "
      "unsigned/signed integer, float/double, a pair/tuple of those (any "
      "packed width), a 128-bit integer, std::string/string_view, or "
      "specialize dovetail::key_codec<K> (see core/key_codec.hpp)");
  // Compiled apart from the router, so a fused sort does not instantiate
  // the query and wide-key machinery it can never reach.
  if constexpr (detail::kFused<Rec, K> && wide_key_traits<K>::single_word) {
    return detail::sort_fused_word(data, key, opt);
  } else {
    const rank_window all{0, data.size()};
    return detail::sort_windows(data, key, {&all, 1}, opt);
  }
}

// Convenience overload for spans of plain keys — unsigned (as before) or
// any other codec-covered type, wide keys included: sorts the values
// themselves. The key functor returns a reference so non-trivially-
// copyable keys (std::string) are never copied per key access.
template <typename K>
  requires any_sortable_key<K>
sort_kernel sort(std::span<K> data, const auto_sort_options& opt = {}) {
  // self_key (key_codec.hpp) rather than an identity lambda: the named
  // functor is recognizable as pure-key, marking these spans safe for the
  // unstable in-place kernel (equal keys are byte-identical records).
  return sort(data, self_key{}, opt);
}

// Sort parallel key/value arrays (SoA): stably sort `keys` in place by
// their codec order and apply the same permutation to `values`. The value
// bytes never ride through a radix pass — the dispatcher sorts (encoded
// key, index) pairs, then each array is gathered exactly once — so 4-byte
// keys stop dragging 32-byte rows through every scatter (the bench_suite
// codec-soa family measures the win against the equivalent AoS sort).
//
// Returns the kernel that sorted the pairs. Stable: equal keys keep their
// input order in both arrays. Workspace/stats contract as dovetail::sort;
// trivially copyable K/V lease all scratch (warm calls allocate nothing),
// so do types whose moves cannot throw (std::string); other types must be
// default-constructible + move-assignable and use per-call vectors.
//
// Throws std::invalid_argument when the spans' sizes differ.
template <typename K, typename V>
sort_kernel sort_by_key(std::span<K> keys, std::span<V> values,
                        const auto_sort_options& opt = {}) {
  static_assert(any_sortable_key<K>,
                "dovetail::sort_by_key: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  if (keys.size() != values.size())
    throw std::invalid_argument(
        "dovetail::sort_by_key: keys and values differ in size");
  const detail::call_scope call(opt);
  const rank_window all{0, keys.size()};
  return detail::sort_arrays(
      keys, values, [&](std::size_t i) -> const K& { return keys[i]; },
      {&all, 1}, call.opt());
}

// Stable argsort: the permutation p with data[p[0]], data[p[1]], ... in
// non-decreasing (stable) key order — computed without moving, or even
// being able to write, the records. p[i] is the input index of the record
// ranking i-th; records with equal keys keep increasing input indices.
// Accepts const and non-const spans; `key` may return any codec-covered
// type. The pair sort runs through the same adaptive dispatcher and
// workspace as dovetail::sort (the returned vector is the only per-call
// allocation on warm workspaces).
template <typename Rec, typename KeyFn>
std::vector<index_t> rank(std::span<Rec> data, const KeyFn& key,
                          const auto_sort_options& opt = {}) {
  using R = std::remove_const_t<Rec>;
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const R&>>;
  static_assert(any_sortable_key<K>,
                "dovetail::rank: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  const detail::call_scope call(opt);
  std::vector<index_t> out(data.size());
  const auto key_at = [&](std::size_t i) -> decltype(auto) {
    return key(data[i]);
  };
  sort_kernel k = sort_kernel::std_sort;
  const rank_window all{0, data.size()};
  detail::encode_once<K>(
      data.size(), key_at, call.ws(), opt.stats,
      detail::record_kernel<K>(key_at, {&all, 1}, call.opt(), k),
      [&](std::size_t pos, std::size_t src) { out[pos] = src; });
  return out;
}

// rank over a span of plain keys, wide keys included.
template <typename K>
  requires any_sortable_key<K>
std::vector<index_t> rank(std::span<K> data,
                          const auto_sort_options& opt = {}) {
  using P = std::remove_const_t<K>;
  return rank(data, [](const P& k) -> const P& { return k; }, opt);
}

}  // namespace dovetail
