// dtsort — command-line front end for the library.
//
// Subcommands:
//   gen  --dist <name> --n <count> [--bits 32|64] [--seed S] -o file.bin
//        Generate a synthetic key/value dataset to a binary file.
//        <name>: unif-<mu> | exp-<lambda> | zipf-<s> | bexp-<t>
//   sort -i file.bin [--bits 32|64] [--algo dtsort|plis|ips2ra|lsd|rd|plss|ips4o]
//        [--verify] [--stats] [-o out.bin]
//        Sort a dataset file; optionally verify, print work stats, write out.
//
// Timing comparisons across algorithms live in bench_suite (BENCHMARKS.md).
//
// File format: u64 record count, u32 key bits, then packed kv32/kv64
// records (key, value).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/algorithms.hpp"
#include "dovetail/util/record.hpp"
#include "dovetail/util/timer.hpp"

namespace {

using namespace dovetail;
namespace gen = dovetail::gen;

struct args_map {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] const char* get(const std::string& key,
                                const char* dflt = nullptr) const {
    for (const auto& [k, v] : options)
      if (k == key) return v.c_str();
    return dflt;
  }
};

bool is_flag(const std::string& key) {
  return key == "verify" || key == "stats";
}

args_map parse_args(int argc, char** argv) {
  args_map out;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0 || (a.size() == 2 && a[0] == '-')) {
      std::string key = a.substr(a.rfind('-') + 1);
      if (is_flag(key)) {
        out.options.emplace_back(key, "1");
      } else {
        std::string val = i + 1 < argc ? argv[i + 1] : "";
        out.options.emplace_back(key, val);
        ++i;
      }
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

bool parse_dist(const std::string& s, gen::distribution& out) {
  // The shared name lookup (case-insensitive families, per-failure error
  // messages — the same catalog bench_suite --list prints).
  std::string err;
  const auto d = gen::find_distribution(s, &err);
  if (!d.has_value()) {
    std::fprintf(stderr, "bad --dist: %s\n", err.c_str());
    return false;
  }
  out = *d;
  return true;
}

bool parse_algo(const std::string& s, algo& out) {
  for (algo a : all_parallel_algos())
    if (s == algo_name(a) || (s == "dtsort" && a == algo::dtsort) ||
        (s == "plis" && a == algo::plis) ||
        (s == "ips2ra" && a == algo::ips2ra) || (s == "lsd" && a == algo::lsd) ||
        (s == "rd" && a == algo::rd) || (s == "plss" && a == algo::plss) ||
        (s == "ips4o" && a == algo::ips4o)) {
      out = a;
      return true;
    }
  return false;
}

template <typename Rec>
bool write_file(const std::string& path, std::span<const Rec> recs,
                std::uint32_t key_bits) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::uint64_t n = recs.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof(n));
  f.write(reinterpret_cast<const char*>(&key_bits), sizeof(key_bits));
  f.write(reinterpret_cast<const char*>(recs.data()),
          static_cast<std::streamsize>(n * sizeof(Rec)));
  return static_cast<bool>(f);
}

bool read_header(std::ifstream& f, std::uint64_t& n, std::uint32_t& bits) {
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  f.read(reinterpret_cast<char*>(&bits), sizeof(bits));
  return static_cast<bool>(f) && (bits == 32 || bits == 64);
}

template <typename Rec>
std::vector<Rec> read_records(std::ifstream& f, std::uint64_t n) {
  std::vector<Rec> recs(n);
  f.read(reinterpret_cast<char*>(recs.data()),
         static_cast<std::streamsize>(n * sizeof(Rec)));
  return recs;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dtsort gen  --dist unif-1e5|exp-5|zipf-1.2|bexp-100 --n N\n"
      "              [--bits 32|64] [--seed S] -o file.bin\n"
      "  dtsort sort -i file.bin [--algo dtsort|plis|ips2ra|lsd|rd|plss|ips4o]\n"
      "              [--verify] [--stats] [-o out.bin]\n");
  return 2;
}

template <typename Rec, typename KeyFn>
int do_sort(std::vector<Rec> recs, const KeyFn& key, const args_map& args,
            std::uint32_t bits) {
  algo a = algo::dtsort;
  if (const char* s = args.get("algo"); s != nullptr && !parse_algo(s, a)) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", s);
    return 2;
  }
  sort_stats st;
  timer t;
  if (a == algo::dtsort && args.get("stats") != nullptr) {
    sort_options opt;
    opt.stats = &st;
    dovetail_sort(std::span<Rec>(recs), key, opt);
  } else {
    run_sorter(a, std::span<Rec>(recs), key);
  }
  const double secs = t.seconds();
  std::printf("%s: sorted %zu records (%u-bit keys) in %.3fs (%.1f M/s)\n",
              algo_name(a), recs.size(), bits, secs,
              static_cast<double>(recs.size()) / secs / 1e6);
  if (args.get("stats") != nullptr && a == algo::dtsort) {
    const double n = static_cast<double>(recs.size());
    std::printf("  levels=%.2f heavy=%.1f%% base=%.1f%% depth=%llu\n",
                static_cast<double>(st.distributed_records.load()) / n,
                100.0 * static_cast<double>(st.heavy_records.load()) / n,
                100.0 * static_cast<double>(st.base_case_records.load()) / n,
                static_cast<unsigned long long>(st.max_depth.load()));
  }
  if (args.get("verify") != nullptr) {
    for (std::size_t i = 1; i < recs.size(); ++i) {
      if (key(recs[i - 1]) > key(recs[i])) {
        std::printf("  VERIFY FAILED at %zu\n", i);
        return 1;
      }
    }
    std::printf("  verified sorted\n");
  }
  if (const char* out = args.get("o"); out != nullptr) {
    if (!write_file<Rec>(out, recs, bits)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("  wrote %s\n", out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const args_map args = parse_args(argc, argv);

  if (cmd == "gen") {
    gen::distribution d{};
    const char* ds = args.get("dist");
    const char* ns = args.get("n");
    const char* out = args.get("o");
    if (ds == nullptr || ns == nullptr || out == nullptr ||
        !parse_dist(ds, d))
      return usage();
    const auto n = static_cast<std::size_t>(std::strtod(ns, nullptr));
    const auto seed =
        static_cast<std::uint64_t>(std::strtoull(args.get("seed", "1"),
                                                 nullptr, 10));
    const int bits = std::atoi(args.get("bits", "32"));
    bool ok = false;
    if (bits == 32) {
      auto recs = gen::generate_records<dovetail::kv32>(d, n, seed);
      ok = write_file<dovetail::kv32>(out, recs, 32);
    } else if (bits == 64) {
      auto recs = gen::generate_records<dovetail::kv64>(d, n, seed);
      ok = write_file<dovetail::kv64>(out, recs, 64);
    } else {
      return usage();
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("wrote %zu %d-bit records (%s) to %s\n", n, bits, ds, out);
    return 0;
  }

  if (cmd == "sort") {
    const char* in = args.get("i");
    if (in == nullptr) return usage();
    std::ifstream f(in, std::ios::binary);
    std::uint64_t n = 0;
    std::uint32_t bits = 0;
    if (!f || !read_header(f, n, bits)) {
      std::fprintf(stderr, "cannot read %s\n", in);
      return 1;
    }
    if (bits == 32)
      return do_sort(read_records<dovetail::kv32>(f, n),
                     dovetail::key_of_kv32, args, bits);
    return do_sort(read_records<dovetail::kv64>(f, n), dovetail::key_of_kv64,
                   args, bits);
  }

  return usage();
}
