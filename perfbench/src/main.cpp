// Benchmark driver. Usage:
//
//   perfbench_driver --workload <search|cosearch|serve-hot|serve-mixed>
//                    --seed <n> --seconds <s> --trace <0|1> [options]
//
// With --trace 0 it runs the workload with no instrumentation and reports
// the end-to-end metrics; with --trace 1 it replays the workloads through
// the layers' public functions with a span around each call and reports
// the per-layer metrics. Either way the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}, and the
// exit code is non-zero when any correctness check failed.
// perfbench/run.py builds this binary and runs it. BENCHMARK.json gates
// search and serve-hot; cosearch and serve-mixed run the same way but are
// not gated (perfbench/config.json says why).

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "stats.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

double host_probe_s() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<double> v(1 << 18);
  const auto t0 = Clock::now();
  double sink = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11);
    }
    std::sort(v.begin(), v.end());
    sink += v[v.size() / 2];
  }
  const double s = seconds_between(t0, Clock::now());
  asm volatile("" : : "g"(sink) : "memory");  // keeps the sort observable
  return s;
}

double ipc_probe_s() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("ipc probe: socketpair failed");
  std::thread echo([fd = sv[1]] {
    char c;
    while (::read(fd, &c, 1) == 1)
      if (::write(fd, &c, 1) != 1) break;
  });
  std::vector<double> trips;
  char c = 'x';
  for (int i = 0; i < 300; ++i) {
    const auto t0 = Clock::now();
    if (::write(sv[0], &c, 1) != 1 || ::read(sv[0], &c, 1) != 1) break;
    trips.push_back(seconds_between(t0, Clock::now()));
  }
  ::shutdown(sv[0], SHUT_RDWR);  // ends the echo thread's read loop
  echo.join();
  ::close(sv[0]);
  ::close(sv[1]);
  if (trips.size() != 300)
    throw std::runtime_error("ipc probe: socket pair round trip failed");
  return median(trips);
}

void set_time(Result& r, const std::vector<double>& probes,
              const std::string& name, double raw, const std::string& unit) {
  r.set(name, at_reference_speed(raw, kReferenceProbeS, probes), unit);
  r.note(name + "_raw", raw, unit);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

/// The processor brand string, read with CPUID (the run reads no file
/// outside its checkout).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string v = brand;
  while (!v.empty() && v.front() == ' ') v.erase(v.begin());
  while (!v.empty() && v.back() == ' ') v.pop_back();
  return v.empty() ? "unknown" : v;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

/// A JSON number for `v`, with every digit a double carries. Non-finite
/// values (a latency with failed requests in it) print as the largest
/// double, which still parses and still misses every limit.
std::string number(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1.7976931348623157e308
                                   : 1.7976931348623157e308;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir d] [--commit c]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    const auto num = [&] {
      const double v = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0')
        usage(("bad number for " + key).c_str());
      return v;
    };
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = num();
    } else if (key == "--trace") {
      args.trace = num() != 0;
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  args.threads = naas::core::ThreadPool::default_num_threads();

  using RunFn = void (*)(const Args&, Result&);
  using TraceFn = void (*)(const Args&, Result&, Recorder&);
  struct Entry {
    const char* name;
    RunFn run;
    TraceFn trace;
  };
  static const Entry kWorkloads[] = {
      {"search", run_search, trace_search},
      {"cosearch", run_cosearch, trace_cosearch},
      {"serve-hot", run_serve_hot, trace_serve_hot},
      {"serve-mixed", run_serve_mixed, trace_serve_mixed},
  };
  const Entry* own = nullptr;
  for (const Entry& e : kWorkloads)
    if (args.workload == e.name) own = &e;
  if (!own) usage(("unknown workload " + args.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) usage(("cannot create " + args.work_dir).c_str());

  // Every result carries the host class, the resolved cost backend, the
  // build and the commit it measured.
  const naas::cost::CostModel model;
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %d, \"cpu\": \"%s\", \"cost_backend\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.threads, json_escape(cpu_model()).c_str(),
      model.backend_name(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      json_escape(commit).c_str());
  std::fflush(stdout);

  Result result;
  try {
    if (!args.trace) {
      own->run(args, result);
      result.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      // The workload's own replay runs first, so its values win for the
      // layers several replays touch. Layers the workload does not
      // exercise are measured on the replay of the workload that does.
      Recorder rec(true);
      own->trace(args, result, rec);
      for (const Entry& e : kWorkloads)
        if (&e != own) e.trace(args, result, rec);
      const std::string path = args.work_dir + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      result.check(rec.write(path), "writing spans to " + path);
      std::printf("spans %zu written to %s\n", rec.spans().size(),
                  path.c_str());
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("exception: ") + e.what());
  }
  if (result.attempted < 1) result.attempted = 1;

  for (const Metric& m : result.notes)
    std::printf("note   %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : result.metrics)
    std::printf("metric %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
