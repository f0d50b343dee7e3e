// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, parent, start, end) around one call into a module's
// public API. Spans are appended to a flat vector while the benchmark runs
// and written out once at the end; nothing is formatted or flushed on the
// measured path. Recording can be switched off between executions, which is
// how the traced run measures its own overhead (it runs every input once
// traced and once untraced).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace kkt_bench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name;           // static string: "<layer>.<call>"
  std::uint32_t parent;       // index into the span vector, or kNoParent
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  // RAII scope: records a span while the tracer is recording, else only
  // keeps the clock so callers can read the duration either way.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(&t), start_(now_ns()) {
      if (!t_->recording_) return;
      idx_ = static_cast<std::uint32_t>(t_->spans_.size());
      t_->spans_.push_back(Span{name, t_->open_, start_, 0});
      t_->open_ = idx_;
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Ends the span early; returns its duration in ns.
    std::uint64_t close() {
      if (end_ == 0) {
        end_ = now_ns();
        if (idx_ != kNoParent) {
          t_->spans_[idx_].end_ns = end_;
          t_->open_ = t_->spans_[idx_].parent;
        }
      }
      return end_ - start_;
    }

   private:
    Tracer* t_;
    std::uint64_t start_;
    std::uint64_t end_ = 0;
    std::uint32_t idx_ = kNoParent;
  };

  void set_recording(bool on) { recording_ = on; }

  // Durations (ms) of every closed span with this name, in record order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(double(s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  // Self time per span name: duration minus the part covered by direct
  // children (children nest inside their parent, so the covered part is the
  // sum of their durations).
  std::map<std::string, double> self_ms() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += double(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  // Writes every span plus the self-time table as one JSON document.
  bool write_json(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"self_ms\": {", header.c_str());
    bool first = true;
    for (const auto& [name, ms] : self_ms()) {
      std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), ms);
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [\n");
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"parent\": %lld, "
                   "\"start_ns\": %llu, \"end_ns\": %llu}",
                   i == 0 ? "" : ",\n", s.name,
                   s.parent == kNoParent ? -1LL : (long long)s.parent,
                   (unsigned long long)(s.start_ns - t0),
                   (unsigned long long)(s.end_ns - t0));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t open_ = kNoParent;
  bool recording_ = false;
};

}  // namespace kkt_bench
