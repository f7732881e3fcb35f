// Span recorder for the traced benchmark run.
//
// A span is recorded around each call the benchmark makes into a library
// layer: name, start, end, the span that was open when it began (its
// parent) and the op it belongs to. Spans stay in memory and are written
// out once, when the run ends. A layer's self time is its spans' durations
// minus the parts of those intervals covered by child spans.
//
// Every span is opened and closed on the benchmark's main thread (the
// library's own worker threads are never traced), so the recorder needs no
// locking. A null recorder makes span_scope a no-op, which is how the
// untraced run measures the end-to-end metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;  // index into the span list, -1 = root
  std::size_t op = 0;
};

class tracer {
 public:
  tracer() : origin_(clock::now()) {}

  long open(std::string name, std::size_t op) {
    span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<long>(spans_.size() - 1));
    return stack_.back();
  }

  // Closes span `id` (the innermost open one) and returns its duration.
  double close(long id) {
    span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    stack_.pop_back();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  // Self seconds per span name: duration minus the children's durations.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    for (const span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -=
            static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += self[i] * 1e-9;
    return out;
  }

  // One JSON object per line: name, start/end in ns since the recorder
  // was created, parent index, op id.
  bool write_jsonl(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      f << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  using clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                origin_)
        .count();
  }

  clock::time_point origin_;
  std::vector<span> spans_;
  std::vector<long> stack_;
};

// RAII span; does nothing when the tracer is null. seconds() ends the span
// early and returns its duration (also measured when untraced, so callers
// can time a call through the same object either way).
class span_scope {
 public:
  span_scope(tracer* t, const char* name, std::size_t op)
      : t_(t), start_(std::chrono::steady_clock::now()) {
    if (t_ != nullptr) id_ = t_->open(name, op);
  }
  ~span_scope() { stop(); }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

  double stop() {
    if (!done_) {
      done_ = true;
      seconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      if (t_ != nullptr) t_->close(id_);
    }
    return seconds_;
  }

 private:
  tracer* t_;
  std::chrono::steady_clock::time_point start_;
  long id_ = -1;
  bool done_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
