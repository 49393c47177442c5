#pragma once

// What every workload shares: its arguments, the result it fills in, and
// the clock and host helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for stores and the span file.
  std::string work_dir = ".bench_build/perfbench-run";
  int threads = 1;  ///< nproc
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;  ///< what the final JSON line reports
  std::vector<Metric> notes;    ///< printed by name for people, not gated

  /// Sets a reported metric; the first value set for a name wins, so a
  /// workload's own measurement is not overwritten by another's.
  void set(const std::string& name, double value, const std::string& unit) {
    for (const Metric& m : metrics)
      if (m.name == name) return;
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  /// A failed correctness check: the run reports correct=false and the
  /// command exits non-zero.
  void check(bool ok, const std::string& what);
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Host speed probe: wall time of a fixed piece of the benchmark's own work
/// (sorting pseudo-random doubles), independent of the code under test. The
/// search workloads run it between their timed searches; its median scales
/// the reported times to the reference host speed, because on a shared
/// host the speed of the machine drifts by 20-40% within minutes and the
/// CPU-bound searches drift with it. Serving latency is dominated by
/// wake-ups and system calls, which do not follow the probe, so serve
/// workloads report raw times.
double host_probe_s();

/// Median host_probe_s() on the 4-vCPU Xeon host the benchmark was defined
/// on (it ran 0.086-0.125 s there as the shared host's speed drifted).
inline constexpr double kReferenceProbeS = 0.1;

/// Host IPC probe: the median round trip of one byte between the calling
/// thread and an echo thread it starts (which inherits its CPU affinity)
/// over a Unix socket pair. On a shared host the wake-up and switch cost of
/// a CPU moved between two levels about 1.5x apart from one 100 ms to the
/// next, and the serve-hot serial round trip moved with it; the serial
/// latency is reported relative to this probe.
double ipc_probe_s();

/// Median ipc_probe_s() with the load generator pinned, on the host the
/// benchmark was defined on (it ran 4.6-7 us there).
inline constexpr double kReferenceIpcS = 6.5e-6;

/// Reports a timed end-to-end metric at the reference host speed, and the
/// raw value as a note named `<name>_raw`.
void set_time(Result& r, const std::vector<double>& probes,
              const std::string& name, double raw, const std::string& unit);

/// Workloads. Each runs with tracing off and fills the end-to-end metrics.
void run_search(const Args& args, Result& result);
void run_cosearch(const Args& args, Result& result);
void run_serve_hot(const Args& args, Result& result);
void run_serve_mixed(const Args& args, Result& result);

/// Traced replays: the same budget or traffic, driven call by call through
/// the layers' public functions with a span around each call. Each fills
/// the per-layer metrics of the layers it exercises.
void trace_search(const Args& args, Result& result, Recorder& rec);
void trace_cosearch(const Args& args, Result& result, Recorder& rec);
void trace_serve_hot(const Args& args, Result& result, Recorder& rec);
void trace_serve_mixed(const Args& args, Result& result, Recorder& rec);

}  // namespace perfbench
