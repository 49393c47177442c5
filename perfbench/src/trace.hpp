#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library's public functions;
// nothing inside the library is instrumented. Spans stay in memory and are
// written out once, when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal: recording never allocates
  double start = 0;  ///< seconds since the recorder was created
  double end = 0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< request id; 0 when not a request
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  long long count = 0;
  double total = 0;  ///< summed duration (s)
  double self = 0;   ///< summed duration minus time covered by children (s)
};

class Recorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Recorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Opens a span nested in the innermost open one. Returns its index, or
  /// -1 when recording is off.
  int begin(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[id].end = now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Records a finished span with explicit times (for requests whose
  /// lifetime overlaps others, e.g. pipelined network requests), as a child
  /// of the innermost open span.
  void add(const char* name, double start, double end,
           std::uint64_t request) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = start;
    s.end = end;
    s.request = request;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Count, total and self time per span name. Self time subtracts the
  /// union of the children's intervals, so overlapping children are not
  /// subtracted twice.
  std::map<std::string, SpanTotals> totals() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end - s.start;
      double covered = 0;
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double lo = 0, hi = -1;
      for (const auto& [a, b] : k) {
        const double ca = std::max(a, s.start), cb = std::min(b, s.end);
        if (cb <= ca) continue;
        if (ca > hi) {
          if (hi > lo) covered += hi - lo;
          lo = ca;
          hi = cb;
        } else {
          hi = std::max(hi, cb);
        }
      }
      if (hi > lo) covered += hi - lo;
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total += dur;
      t.self += dur - covered;
    }
    return out;
  }

  /// Number of spans so far: pass it to the queries below to look only at
  /// spans recorded after this point.
  std::size_t mark() const { return spans_.size(); }

  /// Durations (s) of the spans named `name` recorded since `from`.
  std::vector<double> durations(const std::string& name,
                                std::size_t from = 0) const {
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i)
      if (name == spans_[i].name)
        out.push_back(spans_[i].end - spans_[i].start);
    return out;
  }

  /// Summed duration (s) of the spans named `name` recorded since `from`.
  double total(const std::string& name, std::size_t from = 0) const {
    double t = 0;
    for (double d : durations(name, from)) t += d;
    return t;
  }

  /// Mean duration (s) of the spans named `name` since `from` (0 if none).
  double mean(const std::string& name, std::size_t from = 0) const {
    const auto d = durations(name, from);
    return d.empty() ? 0 : total(name, from) / static_cast<double>(d.size());
  }

  /// Writes every span, then count, total and self time per name, as one
  /// JSON document. Returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"request\": %llu}%s\n",
                   i, s.name, s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"totals\": {\n");
    const auto t = totals();
    std::size_t k = 0;
    for (const auto& [name, tot] : t)
      std::fprintf(f,
                   "  \"%s\": {\"count\": %lld, \"total_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   name.c_str(), tot.count, tot.total, tot.self,
                   ++k < t.size() ? "," : "");
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Recorder& r, const char* name, std::uint64_t request = 0)
      : r_(r), id_(r.begin(name, request)) {}
  ~Scope() { r_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  int id_;
};

}  // namespace perfbench
