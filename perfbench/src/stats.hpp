#pragma once

// Statistics the benchmark reports. Kept header-only and free of any
// library dependency so the self-tests exercise exactly this code.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Median (mean of the two middle values for an even count). NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile with the same interpolation as
/// Python's statistics.quantiles(values, n=4) (method "exclusive"), so the
/// spread printed here is the spread an external check computes. Needs at
/// least two values; a single value is returned three times.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 0) return {std::nan(""), std::nan(""), std::nan("")};
  if (ld == 1) return {v[0], v[0], v[0]};
  const long n = 4, m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    const long delta = i * m - j * n;
    out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                  v[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return out;
}

/// Interquartile range as a share of the median.
inline double iqr_ratio(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return (q[2] - q[0]) / q[1];
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least fraction `p` of the samples at or below it.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const double rank =
      std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(std::max(rank, 1.0));
}

/// A reported tail: which percentile (1.0 = the maximum) and its value.
struct Tail {
  double p = 1.0;
  double value = std::nan("");
};

/// The tail rule: the highest percentile, up to `cap`, that still has at
/// least ten samples beyond it, from a fixed ladder; with too few samples
/// for any of them (fewer than 20), the maximum. A run sized for p99
/// therefore needs at least 1000 samples.
inline Tail tail(std::vector<double> v, double cap = 0.99) {
  std::sort(v.begin(), v.end());
  Tail t;
  if (v.empty()) return t;
  static constexpr std::array<double, 6> kLadder{0.999, 0.99, 0.95,
                                                 0.90,  0.75, 0.50};
  for (double p : kLadder) {
    if (p > cap + 1e-12) continue;
    if (samples_beyond(v.size(), p) >= 10) {
      t.p = p;
      t.value = percentile_sorted(v, p);
      return t;
    }
  }
  t.value = v.back();
  return t;
}

/// A time measured on this host, expressed at the reference host speed:
/// `raw` scaled by the reference probe time over the median probe time of
/// the run (see host_probe_s). A host running 30% slow makes both the
/// workload and the probe 30% slower, and the ratio cancels it.
inline double at_reference_speed(double raw, double reference_probe_s,
                                 const std::vector<double>& probes) {
  return raw * reference_probe_s / median(probes);
}

/// One request of a load run, timed on the steady clock (seconds from the
/// run's start). In the open loop `due` is when the schedule said to send
/// it; in the closed loop it is when it was sent.
struct RequestTiming {
  double due = 0;
  double sent = 0;
  double done = 0;
  bool ok = false;
};

/// Latency measured from the due time, so a stalled generator or server
/// charges its wait to every request queued behind it. A failed or refused
/// request counts as infinitely late: it misses every latency limit.
inline double latency_from_due(const RequestTiming& r) {
  return r.ok ? r.done - r.due : kInf;
}

inline std::vector<double> latencies(const std::vector<RequestTiming>& rs) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(latency_from_due(r));
  return out;
}

/// How late the generator sent each request (never charged to the server).
inline std::vector<double> lateness(const std::vector<RequestTiming>& rs) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(std::max(0.0, r.sent - r.due));
  return out;
}

}  // namespace perfbench
