// stream_sorter — chunked streaming ingestion for the serving layer.
//
// A sort-heavy pipeline that receives its input in chunks should not
// materialize the whole stream and then sort it once: by the time the last
// chunk arrives, all the earlier ones could already have been sorted. This
// header provides that overlap:
//
//   * push(chunk) copies the chunk and sorts it immediately through the
//     adaptive front door (auto_sort.hpp), with a workspace leased from a
//     workspace_pool so repeated pushes hit warm arenas (zero steady-state
//     allocation inside the engine);
//   * finish() merges the k sorted runs with a pairwise TREE merge built
//     on par::merge — the run_merge kernel's bottom-up merger
//     (detail::merge_runs, dispatch.hpp) under the codec order: runs
//     merge in arrival order, level by level, so the
//     total merge work is n * ceil(log2 k) with every level a stable
//     parallel two-way merge. (A losers tree does the same work serially
//     per element; the pairwise tree keeps each level a bulk par::merge.)
//
// Byte-identical contract: finish() returns exactly the record sequence
// dovetail::sort would produce on the concatenation of the chunks. Three
// properties make that hold (test_stream_sort.cpp exercises each edge):
//   1. each chunk is sorted by the same front door (same policy);
//   2. the merge comparator reproduces the front door's total preorder —
//      the codec word sequence (wide_key_traits) compared most-significant
//      word first, with the true-key `<` tie-break that the wide refine
//      driver applies for non-exhaustive codecs (e.g. std::string);
//   3. par::merge is stable with ties favoring its left input, and runs
//      merge in arrival order, so records with equal keys keep stream
//      order at every level — the unique stable order of the whole input.
//
// Memory: O(n) for the pending runs plus one n-record merge scratch leased
// from the pool during finish(). max_pending_runs bounds k (adjacent-run
// compaction), trading push-time merges for a flatter finish.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/merge.hpp"
#include "dovetail/parallel/scheduler.hpp"

namespace dovetail {

namespace detail {

// The front door's total preorder on records, reconstructed for merging:
// codec words most-significant first (single-word codecs are one word —
// their zero-extended encoding), then the true-key comparison that the
// segment driver (wide_sort.hpp) applies when a non-exhaustive codec
// (string prefix) leaves equal word sequences unresolved — the driver's
// own words_then_tie finish. Records that compare equivalent here are
// tie-broken by merge stability, matching the front door's stable order.
template <typename KeyFn>
struct codec_order_less {
  KeyFn key{};

  template <typename Rec>
  bool operator()(const Rec& a, const Rec& b) const {
    using WT = wide_key_traits<std::remove_cvref_t<
        std::invoke_result_t<const KeyFn&, const Rec&>>>;
    const auto word_of = [this](const Rec& r, std::size_t w) {
      return WT::word(key(r), w);
    };
    const auto tie = true_key_less<WT>(key);
    return words_then_tie(word_of, 0, WT::word_count, WT::exhaustive,
                          tie)(a, b);
  }
};

}  // namespace detail

// Options for stream_sorter; the front-door knobs match auto_sort_options.
struct stream_options {
  dispatch_policy policy{};
  // Width of chunk sorts and merges, as auto_sort_options::num_threads.
  int num_threads = 0;
  // Bound on pending sorted runs: when a push would leave more than this
  // many runs, the adjacent pair with the smallest combined size is merged
  // first (stability-preserving — only neighbors in arrival order ever
  // merge). 0 = unbounded, all merging deferred to finish().
  std::size_t max_pending_runs = 0;
  // Workspace pool for chunk sorts and the finish() scratch. nullptr =
  // workspace_pool::shared().
  workspace_pool* pool = nullptr;
  // stream_chunks / stream_merge_records accounting plus the front door's
  // counters aggregated across chunk sorts.
  sort_stats* stats = nullptr;
};

// Accepts a stream of record chunks and produces the globally sorted
// sequence, overlapping per-chunk sorting with ingestion. One in-flight
// stream per instance (not thread-safe); after finish() the instance is
// empty and reusable.
template <typename Rec, typename KeyFn = self_key>
class stream_sorter {
  static_assert(std::is_copy_constructible_v<Rec>,
                "stream_sorter copies each pushed chunk");

 public:
  explicit stream_sorter(stream_options opt = {}, KeyFn key = KeyFn{})
      : opt_(opt), key_(std::move(key)) {}

  // Copy `chunk` in and sort it through the front door. Empty chunks are
  // accepted (and counted) but store no run.
  void push(std::span<const Rec> chunk) {
    const par::scoped_worker_limit width(opt_.num_threads);
    if (opt_.stats != nullptr)
      opt_.stats->stream_chunks.fetch_add(1, std::memory_order_relaxed);
    if (chunk.empty()) return;
    // Sorted before it joins runs_, so a key that throws leaves the
    // sorter as it was.
    std::vector<Rec> run(chunk.begin(), chunk.end());
    sort_run(run);
    runs_.push_back(std::move(run));
    total_ += chunk.size();
    if (opt_.max_pending_runs >= 2) {
      while (runs_.size() > opt_.max_pending_runs) compact_smallest_pair();
    }
  }

  void push(const std::vector<Rec>& chunk) {
    push(std::span<const Rec>(chunk.data(), chunk.size()));
  }

  // Records ingested so far / sorted runs currently pending.
  [[nodiscard]] std::size_t size() const noexcept { return total_; }
  [[nodiscard]] std::size_t pending_runs() const noexcept {
    return runs_.size();
  }

  // Merge all pending runs into the final sorted sequence and reset the
  // sorter to empty. Byte-identical to dovetail::sort over the
  // concatenation of every pushed chunk (see the header comment).
  std::vector<Rec> finish() {
    const par::scoped_worker_limit width(opt_.num_threads);
    const std::size_t n = total_;
    std::vector<Rec> out(n);
    std::vector<std::size_t> bounds;
    bounds.reserve(runs_.size() + 1);
    bounds.push_back(0);
    std::size_t off = 0;
    for (std::vector<Rec>& run : runs_) {
      std::move(run.begin(), run.end(), out.begin() + off);
      off += run.size();
      bounds.push_back(off);
    }
    runs_.clear();
    total_ = 0;
    if (bounds.size() <= 2) return out;  // 0 or 1 run: already sorted

    workspace_pool::handle ws = pool().checkout();
    // Merge scratch: an n-record slab from the leased workspace when Rec
    // is trivially copyable (warm after the first stream), else a plain
    // vector (e.g. std::string records).
    detail::scratch_array<Rec> scratch(n, *ws, opt_.stats);
    const std::uint64_t merged =
        detail::merge_runs(std::span<Rec>(out), scratch.get(),
                           std::move(bounds),
                           detail::codec_order_less<KeyFn>{key_});
    if (opt_.stats != nullptr)
      opt_.stats->stream_merge_records.fetch_add(merged,
                                                 std::memory_order_relaxed);
    return out;
  }

 private:
  workspace_pool& pool() const {
    return opt_.pool != nullptr ? *opt_.pool : workspace_pool::shared();
  }

  // Runs under push()'s width.
  void sort_run(std::vector<Rec>& run) {
    if (run.size() <= 1) return;
    workspace_pool& p = pool();
    workspace_pool::handle ws = p.checkout();
    auto_sort_options aopt;
    aopt.policy = opt_.policy;
    aopt.workspace = ws.get();
    aopt.pool = &p;
    aopt.stats = opt_.stats;
    dovetail::sort(std::span<Rec>(run), key_, aopt);
  }

  // Merge the adjacent pair of runs with the smallest combined size into
  // one run. Only arrival-order neighbors merge, so stability (and the
  // byte-identical contract) is preserved.
  void compact_smallest_pair() {
    assert(runs_.size() >= 2);
    std::size_t best = 0;
    std::size_t best_size = runs_[0].size() + runs_[1].size();
    for (std::size_t i = 1; i + 1 < runs_.size(); ++i) {
      const std::size_t s = runs_[i].size() + runs_[i + 1].size();
      if (s < best_size) {
        best = i;
        best_size = s;
      }
    }
    std::vector<Rec>& a = runs_[best];
    std::vector<Rec>& b = runs_[best + 1];
    std::vector<Rec> merged(a.size() + b.size());
    par::merge(std::span<const Rec>(a.data(), a.size()),
               std::span<const Rec>(b.data(), b.size()),
               std::span<Rec>(merged), detail::codec_order_less<KeyFn>{key_});
    if (opt_.stats != nullptr)
      opt_.stats->stream_merge_records.fetch_add(
          merged.size(), std::memory_order_relaxed);
    a = std::move(merged);
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }

  stream_options opt_{};
  KeyFn key_{};
  std::vector<std::vector<Rec>> runs_;
  std::size_t total_ = 0;
};

}  // namespace dovetail
