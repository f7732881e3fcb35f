// Quickstart: sort plain integers, (key, value) records, typed keys
// (floats, via the key-codec layer) and SoA key/value arrays, and verify
// the results. Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [n]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "dovetail/dovetail.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : 5'000'000;
  std::printf("DovetailSort quickstart: n=%zu, threads=%d\n", n,
              dovetail::par::num_workers());
  // Every check below reports here; any failure makes the exit status 1.
  bool all_ok = true;
  const auto check = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok;
  };

  // 1) Plain unsigned keys (Zipfian: lots of duplicates, DTSort's specialty).
  auto keys = dovetail::gen::generate_keys<std::uint32_t>(
      {dovetail::gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, n);
  {
    dovetail::timer t;
    dovetail::dovetail_sort(std::span<std::uint32_t>(keys));
    std::printf("  sorted %zu uint32 keys in %.3fs -> %s\n", n, t.seconds(),
                check(std::is_sorted(keys.begin(), keys.end()))
                    ? "sorted"
                    : "NOT SORTED!");
  }

  // 2) Records with payloads: sort stably by an unsigned key function.
  auto recs = dovetail::gen::generate_records<dovetail::kv64>(
      {dovetail::gen::dist_kind::exponential, 5, "Exp-5"}, n);
  {
    dovetail::timer t;
    dovetail::dovetail_sort(std::span<dovetail::kv64>(recs),
                            dovetail::key_of_kv64);
    bool ok = true;
    for (std::size_t i = 1; i < recs.size() && ok; ++i) {
      if (recs[i - 1].key > recs[i].key) ok = false;
      // Stability: equal keys keep their original (index) order.
      if (recs[i - 1].key == recs[i].key &&
          recs[i - 1].value >= recs[i].value)
        ok = false;
    }
    std::printf("  sorted %zu kv64 records in %.3fs -> %s\n", n, t.seconds(),
                check(ok) ? "sorted + stable" : "BROKEN!");
  }

  // 3) Tuning knobs (sort_options, see dovetail/core/dovetail_sort.hpp).
  dovetail::sort_options opt;
  opt.gamma = 10;              // digit width
  opt.base_case = 1 << 12;     // base-case threshold θ
  opt.detect_heavy = true;     // sampling-based duplicate detection
  dovetail::dovetail_sort(std::span<std::uint32_t>(keys), opt);
  std::printf("  re-sorted with custom options -> %s\n",
              check(std::is_sorted(keys.begin(), keys.end())) ? "ok"
                                                              : "BROKEN!");

  // 4) Typed keys through the front door (dovetail/core/key_codec.hpp):
  // floats sort by IEEE total order via an order-preserving bit encoding —
  // same radix kernels, no comparator.
  auto floats = dovetail::gen::generate_typed_keys<float>(
      {dovetail::gen::dist_kind::uniform, 1e6, "Unif-1e6"}, n);
  {
    dovetail::timer t;
    dovetail::sort(std::span<float>(floats));
    std::printf("  sorted %zu floats in %.3fs -> %s\n", n, t.seconds(),
                check(std::is_sorted(floats.begin(), floats.end()))
                    ? "sorted"
                    : "NOT SORTED!");
  }

  // 5) SoA: sort a key array and carry a parallel value array along with
  // one gather, instead of dragging wide rows through every radix pass.
  std::vector<std::uint32_t> ids(n);
  std::vector<float> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<std::uint32_t>(
        dovetail::par::rand_range(99, i, 100000));
    scores[i] = floats[i];
  }
  {
    dovetail::timer t;
    dovetail::sort_by_key(std::span<std::uint32_t>(ids),
                          std::span<float>(scores));
    std::printf("  sort_by_key on %zu (u32 id, float score) pairs in "
                "%.3fs -> %s\n",
                n, t.seconds(),
                check(std::is_sorted(ids.begin(), ids.end()))
                    ? "sorted"
                    : "NOT SORTED!");
  }

  // 6) rank = stable argsort: the permutation, not the data.
  const auto order = dovetail::rank(std::span<const float>(floats));
  bool rank_ok = order.size() == n;
  for (std::size_t i = 0; rank_ok && i < n; ++i) rank_ok = order[i] == i;
  std::printf("  rank over sorted floats is the identity -> %s\n",
              check(rank_ok) ? "ok" : "BROKEN!");
  return all_ok ? 0 : 1;
}
