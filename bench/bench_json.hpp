// Minimal JSON support for the benchmark suite: a value model + writer used
// by harness.hpp to emit BENCH_suite.json, a parser, and the schema
// validator shared by tools/check_bench_json.cpp (the CI gate) and
// tests/test_bench_harness.cpp. No third-party dependency; the parser
// accepts standard JSON (sufficient for everything the suite emits).
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dtb::json {

class value;
using array = std::vector<value>;
// std::map keeps emitted objects deterministically ordered by key.
using object = std::map<std::string, value>;

enum class kind { null, boolean, number, string, array, object };

class value {
 public:
  value() : kind_(kind::null) {}
  value(bool b) : kind_(kind::boolean), bool_(b) {}              // NOLINT
  value(double d) : kind_(kind::number), num_(d) {}              // NOLINT
  value(int i) : kind_(kind::number), num_(i) {}                 // NOLINT
  value(std::int64_t i)                                          // NOLINT
      : kind_(kind::number), num_(static_cast<double>(i)) {}
  value(std::uint64_t u)                                         // NOLINT
      : kind_(kind::number), num_(static_cast<double>(u)) {}
  value(const char* s) : kind_(kind::string), str_(s) {}         // NOLINT
  value(std::string s) : kind_(kind::string), str_(std::move(s)) {}  // NOLINT
  value(array a)                                                 // NOLINT
      : kind_(kind::array), arr_(std::make_shared<array>(std::move(a))) {}
  value(object o)                                                // NOLINT
      : kind_(kind::object), obj_(std::make_shared<object>(std::move(o))) {}

  // Deep copies: as_array()/as_object() hand out mutable references, so a
  // shared-pointer copy would let edits to a copy silently mutate the
  // original document.
  value(const value& o)
      : kind_(o.kind_), bool_(o.bool_), num_(o.num_), str_(o.str_) {
    if (o.arr_) arr_ = std::make_shared<array>(*o.arr_);
    if (o.obj_) obj_ = std::make_shared<object>(*o.obj_);
  }
  value& operator=(const value& o) {
    if (this != &o) {
      value tmp(o);
      *this = std::move(tmp);
    }
    return *this;
  }
  value(value&&) noexcept = default;
  value& operator=(value&&) noexcept = default;

  [[nodiscard]] kind type() const { return kind_; }
  [[nodiscard]] bool is_number() const { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const { return kind_ == kind::object; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const array& as_array() const { return *arr_; }
  [[nodiscard]] const object& as_object() const { return *obj_; }
  array& as_array() { return *arr_; }
  object& as_object() { return *obj_; }

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const value* find(const std::string& key) const {
    if (kind_ != kind::object) return nullptr;
    auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
  }

  void dump(std::string& out, int indent = 0) const {
    switch (kind_) {
      case kind::null: out += "null"; return;
      case kind::boolean: out += bool_ ? "true" : "false"; return;
      case kind::number: dump_number(out); return;
      case kind::string: dump_string(str_, out); return;
      case kind::array: dump_array(out, indent); return;
      case kind::object: dump_object(out, indent); return;
    }
  }

  [[nodiscard]] std::string dump() const {
    std::string out;
    dump(out);
    out += '\n';
    return out;
  }

 private:
  void dump_number(std::string& out) const {
    if (std::isfinite(num_) && num_ == std::floor(num_) &&
        std::fabs(num_) < 9.0e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(num_));
      out += buf;
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.6g", num_);
      out += buf;
    }
  }

  static void dump_string(const std::string& s, std::string& out) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  void dump_array(std::string& out, int indent) const {
    if (arr_->empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < arr_->size(); ++i) {
      out.append(static_cast<std::size_t>(indent) + 2, ' ');
      (*arr_)[i].dump(out, indent + 2);
      if (i + 1 < arr_->size()) out += ',';
      out += '\n';
    }
    out.append(static_cast<std::size_t>(indent), ' ');
    out += ']';
  }

  void dump_object(std::string& out, int indent) const {
    if (obj_->empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [k, v] : *obj_) {
      out.append(static_cast<std::size_t>(indent) + 2, ' ');
      dump_string(k, out);
      out += ": ";
      v.dump(out, indent + 2);
      if (++i < obj_->size()) out += ',';
      out += '\n';
    }
    out.append(static_cast<std::size_t>(indent), ' ');
    out += '}';
  }

  kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<array> arr_;
  std::shared_ptr<object> obj_;
};

// ---------------------------------------------------------------------------
// Parser. Returns false (with a message and offset) on malformed input.

class parser {
 public:
  parser(const std::string& text, value& out, std::string& err)
      : s_(text), out_(out), err_(err) {}

  bool run() {
    skip_ws();
    if (!parse_value(out_)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing content after document");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    err_ = why + " (at byte " + std::to_string(pos_) + ")";
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool parse_value(value& out) {  // NOLINT(misc-no-recursion)
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(value& out) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '{'
    object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      out = value(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected object key string");
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      value v;
      if (!parse_value(v)) return false;
      obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        out = value(std::move(obj));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(value& out) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '['
    array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      out = value(std::move(arr));
      return true;
    }
    while (true) {
      skip_ws();
      value v;
      if (!parse_value(v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        out = value(std::move(arr));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string_raw(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                cp |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape digit");
            }
            // Basic-plane code points only (all the suite ever emits).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape character");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(value& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = value(std::move(s));
    return true;
  }

  bool parse_bool(value& out) {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = value(true);
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = value(false);
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(value& out) {
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out = value();
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool has_digits = false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
      has_digits = true;
    }
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
        has_digits = true;
      }
    }
    if (!has_digits) return fail("expected a JSON value");
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      bool exp_digits = false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return fail("malformed exponent");
    }
    try {
      out = value(std::stod(s_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      return fail("number out of range");
    }
    return true;
  }

  const std::string& s_;
  value& out_;
  std::string& err_;
  std::size_t pos_ = 0;
};

inline bool parse(const std::string& text, value& out, std::string& err) {
  return parser(text, out, err).run();
}

// ---------------------------------------------------------------------------
// BENCH_suite.json schema (version 1). The contract every perf PR's
// committed JSON must satisfy — validated in CI by check_bench_json.
//
//   {
//     "description":    string,
//     "schema_version": 1,
//     "context":        { "host_cpus": num, "n_records": num, "reps": num,
//                         "threads": num, ... },
//     "results": [
//       { "name": string (unique), "bench": string, "paper": string,
//         "iterations": num >= 1, "real_time_ms": num >= 0,
//         "time_unit": "ms",
//         "min_ms" <= "median_ms" <= "max_ms", "stddev_ms" >= 0,
//         "n": num >= 0, "throughput_mrec_s": num >= 0,
//         "check": "pass" | "skipped",          // "fail" is a schema error
//         "labels": object of strings ("threads", when present, must be a
//                   positive decimal integer — the scaling/parallel sweep
//                   key), "stats": object of nums (optional) }
//     ]
//   }
//
// Service-family addendum: entries whose "bench" starts with "service"
// must carry a "concurrency" label (positive decimal integer — the
// open-loop sweep key), and "service-batch" entries must report the load
// generator's headline stats: "req_per_s", "p50_ms" and "p99_ms"
// (non-negative, p50_ms <= p99_ms).
//
// Query-family addendum: "query-topk" and "query-select" entries must
// report the full-sort yardstick — non-negative "ms_FullSort" and
// "speedup_vs_fullsort" stats (the committed BENCH_query.json is the
// evidence for the rank-pruning acceptance bar) plus the pruning
// counters "buckets_pruned" / "records_pruned"; "query-groupby" entries
// must report a non-negative "groups" stat.
//
// In-place-family addendum: entries whose "bench" starts with "inplace"
// exist to prove the memory claim of the in-place kernel, so they must
// report a POSITIVE "peak_ws_bytes" stat (the kernel's leased high-water
// mark, from sort_stats::peak_workspace_bytes) plus the rival yardstick
// "ms_OutOfPlace" (a non-negative median).

inline bool check_number(const value& entry, const std::string& name,
                         const char* field, std::string& err,
                         double* out = nullptr) {
  const value* v = entry.find(field);
  if (v == nullptr || !v->is_number()) {
    err = name + ": missing or non-numeric field '" + field + "'";
    return false;
  }
  if (v->as_number() < 0) {
    err = name + ": field '" + field + "' is negative";
    return false;
  }
  if (out != nullptr) *out = v->as_number();
  return true;
}

inline bool validate_result_entry(const value& entry, std::string& err,
                                  std::set<std::string>& seen_names) {
  const value* name_v = entry.find("name");
  if (name_v == nullptr || !name_v->is_string() ||
      name_v->as_string().empty()) {
    err = "result entry: missing or empty 'name'";
    return false;
  }
  const std::string& name = name_v->as_string();
  if (!seen_names.insert(name).second) {
    err = name + ": duplicate scenario name";
    return false;
  }
  for (const char* field : {"bench", "paper"}) {
    const value* v = entry.find(field);
    if (v == nullptr || !v->is_string()) {
      err = name + ": missing string field '" + std::string(field) + "'";
      return false;
    }
  }
  double iters = 0, minv = 0, medv = 0, maxv = 0;
  if (!check_number(entry, name, "iterations", err, &iters) ||
      !check_number(entry, name, "real_time_ms", err) ||
      !check_number(entry, name, "min_ms", err, &minv) ||
      !check_number(entry, name, "median_ms", err, &medv) ||
      !check_number(entry, name, "max_ms", err, &maxv) ||
      !check_number(entry, name, "mean_ms", err) ||
      !check_number(entry, name, "stddev_ms", err) ||
      !check_number(entry, name, "n", err) ||
      !check_number(entry, name, "throughput_mrec_s", err))
    return false;
  if (iters < 1) {
    err = name + ": iterations < 1";
    return false;
  }
  if (!(minv <= medv && medv <= maxv)) {
    err = name + ": min/median/max not ordered";
    return false;
  }
  const value* unit = entry.find("time_unit");
  if (unit == nullptr || !unit->is_string() || unit->as_string() != "ms") {
    err = name + ": time_unit must be \"ms\"";
    return false;
  }
  const value* check = entry.find("check");
  if (check == nullptr || !check->is_string() ||
      (check->as_string() != "pass" && check->as_string() != "skipped")) {
    err = name + ": 'check' must be \"pass\" or \"skipped\" (a \"fail\" "
                 "result must never be committed)";
    return false;
  }
  const value* labels = entry.find("labels");
  if (labels == nullptr || !labels->is_object()) {
    err = name + ": missing 'labels' object";
    return false;
  }
  for (const auto& [k, v] : labels->as_object()) {
    if (!v.is_string()) {
      err = name + ": label '" + k + "' is not a string";
      return false;
    }
    // The scaling and parallel families key their sweeps on this label;
    // a non-numeric value would silently fall out of every per-thread
    // aggregation, so reject it at the gate.
    if (k == "threads") {
      const std::string& t = v.as_string();
      const bool numeric =
          !t.empty() && t.find_first_not_of("0123456789") == std::string::npos;
      if (!numeric || t == "0" || t[0] == '0') {
        err = name + ": label 'threads' must be a positive integer, got '" +
              t + "'";
        return false;
      }
    }
  }
  if (const value* stats = entry.find("stats"); stats != nullptr) {
    if (!stats->is_object()) {
      err = name + ": 'stats' is not an object";
      return false;
    }
    for (const auto& [k, v] : stats->as_object()) {
      if (!v.is_number()) {
        err = name + ": stat '" + k + "' is not a number";
        return false;
      }
    }
  }
  // Service-family contract (scenarios_service.hpp). Every "service*"
  // entry keys its sweep on a 'concurrency' label (positive decimal
  // integer, like 'threads'), and the batched load family must report the
  // open-loop generator's headline stats: requests/sec plus ordered
  // p50/p99 latency quantiles.
  const value* bench_v = entry.find("bench");
  if (bench_v != nullptr && bench_v->is_string() &&
      bench_v->as_string().rfind("service", 0) == 0) {
    const value* conc = labels->find("concurrency");
    if (conc == nullptr || !conc->is_string()) {
      err = name + ": service entry: missing 'concurrency' label";
      return false;
    }
    const std::string& c = conc->as_string();
    const bool numeric =
        !c.empty() && c.find_first_not_of("0123456789") == std::string::npos;
    if (!numeric || c == "0" || c[0] == '0') {
      err = name + ": label 'concurrency' must be a positive integer, got '" +
            c + "'";
      return false;
    }
    if (bench_v->as_string() == "service-batch") {
      const value* stats = entry.find("stats");
      if (stats == nullptr || !stats->is_object()) {
        err = name + ": service-batch entry: missing 'stats' object";
        return false;
      }
      double p50 = 0, p99 = 0;
      for (const char* field : {"req_per_s", "p50_ms", "p99_ms"}) {
        const value* v = stats->find(field);
        if (v == nullptr || !v->is_number() || v->as_number() < 0) {
          err = name + ": service-batch entry: missing non-negative stat '" +
                std::string(field) + "'";
          return false;
        }
        if (std::string(field) == "p50_ms") p50 = v->as_number();
        if (std::string(field) == "p99_ms") p99 = v->as_number();
      }
      if (p50 > p99) {
        err = name + ": service-batch entry: p50_ms exceeds p99_ms";
        return false;
      }
    }
  }
  // Query-family contract (scenarios_query.hpp). The top-k / select
  // families exist to prove selection is cheaper than sorting, so the
  // full-sort yardstick and the pruning counters are required, not
  // optional extras; group-by entries must say how many groups they
  // produced (zero groups would make the byte-identity check vacuous).
  if (bench_v != nullptr && bench_v->is_string() &&
      bench_v->as_string().rfind("query", 0) == 0) {
    const value* stats = entry.find("stats");
    if (stats == nullptr || !stats->is_object()) {
      err = name + ": query entry: missing 'stats' object";
      return false;
    }
    const std::string& fam = bench_v->as_string();
    std::vector<const char*> required;
    if (fam == "query-topk" || fam == "query-select") {
      required = {"ms_FullSort", "speedup_vs_fullsort", "buckets_pruned",
                  "records_pruned"};
    } else if (fam == "query-groupby") {
      required = {"groups"};
    }
    for (const char* field : required) {
      const value* v = stats->find(field);
      if (v == nullptr || !v->is_number() || v->as_number() < 0) {
        err = name + ": query entry: missing non-negative stat '" +
              std::string(field) + "'";
        return false;
      }
    }
  }
  // In-place-family contract (scenarios_inplace.hpp). The family's reason
  // to exist is the workspace high-water comparison, so a report without
  // the measured peak (or with a zero peak: the accounting broke) and the
  // rival timing is not evidence.
  if (bench_v != nullptr && bench_v->is_string() &&
      bench_v->as_string().rfind("inplace", 0) == 0) {
    const value* stats = entry.find("stats");
    if (stats == nullptr || !stats->is_object()) {
      err = name + ": inplace entry: missing 'stats' object";
      return false;
    }
    const value* peak = stats->find("peak_ws_bytes");
    if (peak == nullptr || !peak->is_number() || peak->as_number() <= 0) {
      err = name + ": inplace entry: missing positive stat 'peak_ws_bytes'";
      return false;
    }
    const value* oop = stats->find("ms_OutOfPlace");
    if (oop == nullptr || !oop->is_number() || oop->as_number() < 0) {
      err = name + ": inplace entry: missing non-negative stat "
                   "'ms_OutOfPlace'";
      return false;
    }
  }
  return true;
}

inline bool validate_bench_schema(const value& root, std::string& err) {
  if (!root.is_object()) {
    err = "root is not an object";
    return false;
  }
  const value* desc = root.find("description");
  if (desc == nullptr || !desc->is_string() || desc->as_string().empty()) {
    err = "missing non-empty 'description'";
    return false;
  }
  const value* ver = root.find("schema_version");
  if (ver == nullptr || !ver->is_number() || ver->as_number() != 1) {
    err = "missing 'schema_version' == 1";
    return false;
  }
  const value* ctx = root.find("context");
  if (ctx == nullptr || !ctx->is_object()) {
    err = "missing 'context' object";
    return false;
  }
  for (const char* field : {"host_cpus", "n_records", "reps", "threads"}) {
    const value* v = ctx->find(field);
    if (v == nullptr || !v->is_number()) {
      err = std::string("context: missing numeric field '") + field + "'";
      return false;
    }
  }
  const value* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    err = "missing 'results' array";
    return false;
  }
  if (results->as_array().empty()) {
    err = "'results' array is empty";
    return false;
  }
  std::set<std::string> seen;
  for (const value& entry : results->as_array()) {
    if (!entry.is_object()) {
      err = "result entry is not an object";
      return false;
    }
    if (!validate_result_entry(entry, err, seen)) return false;
  }
  return true;
}

}  // namespace dtb::json
