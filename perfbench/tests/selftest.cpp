// Self-tests of the benchmark's statistics, span recorder and load
// generator. Exits non-zero if any expectation fails. Built with the
// benchmark (perfbench/CMakeLists.txt); perfbench/run.py runs it before
// every measurement, and `ctest` runs it from the benchmark's build
// directory.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "search/result_store.hpp"
#include "serve/line_handler.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest:%d: FAILED: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_median_and_iqr() {
  EXPECT(near(median({3, 1, 2}), 2));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(std::isnan(median({})));
  // Reference values from Python's statistics.quantiles(v, n=4).
  auto q = quartiles({1, 2, 3, 4, 5});
  EXPECT(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5));
  q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  q = quartiles({3.0, 1.0});
  EXPECT(near(q[0], 0.5) && near(q[1], 2.0) && near(q[2], 3.5));
  q = quartiles({0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2});
  EXPECT(near(q[0], 0.95) && near(q[1], 1.05) && near(q[2], 1.2));
  EXPECT(near(iqr_ratio({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0));
  // A host running at 0.8x speed: raw 1.25 s with probes of 0.125 s is
  // 1.0 s at a 0.1 s reference.
  EXPECT(near(at_reference_speed(1.25, 0.1, {0.125, 0.5, 0.12, 0.13, 0.125}),
              1.0));
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_rule() {
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(999, 0.99) == 9);
  Tail t = tail(one_to(1000));
  EXPECT(near(t.p, 0.99) && near(t.value, 990));
  // One sample short of p99: the next rung with ten samples beyond it.
  t = tail(one_to(999));
  EXPECT(near(t.p, 0.95) && near(t.value, 950));
  // The cap holds even when a higher percentile would qualify.
  t = tail(one_to(10000));
  EXPECT(near(t.p, 0.99) && near(t.value, 9900));
  t = tail(one_to(10000), 0.999);
  EXPECT(near(t.p, 0.999) && near(t.value, 9990));
  // Too few samples for any percentile: the maximum.
  t = tail(one_to(19));
  EXPECT(near(t.p, 1.0) && near(t.value, 19));
  t = tail(one_to(20));
  EXPECT(near(t.p, 0.5) && near(t.value, 10));
}

void test_due_time_and_failures() {
  RequestTiming late{1.0, 1.5, 1.6, true};
  EXPECT(near(latency_from_due(late), 0.6));
  EXPECT(near(lateness({late})[0], 0.5));
  RequestTiming failed{1.0, 1.0, 1.01, false};
  // A failed request misses every limit, however generous.
  EXPECT(std::isinf(latency_from_due(failed)));
  // Ten failures in 1000 sit just beyond the p99; an eleventh lands on it.
  std::vector<RequestTiming> rs(990, RequestTiming{0, 0, 0.001, true});
  for (int i = 0; i < 10; ++i) rs.push_back(failed);
  EXPECT(near(tail(latencies(rs)).value, 0.001));
  rs.push_back(failed);
  EXPECT(std::isinf(tail(latencies(rs)).value));
}

void test_recorder() {
  Recorder rec(true);
  const int outer = rec.begin("outer");
  rec.add("child", rec.spans()[outer].start + 0.010,
          rec.spans()[outer].start + 0.030, 1);
  rec.add("child", rec.spans()[outer].start + 0.020,
          rec.spans()[outer].start + 0.040, 2);  // overlaps the first
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rec.end(outer);
  const auto totals = rec.totals();
  const double dur = rec.spans()[outer].end - rec.spans()[outer].start;
  EXPECT(totals.at("outer").count == 1);
  // Self time subtracts the 30 ms the children cover together, once.
  EXPECT(near(totals.at("outer").self, dur - 0.030, 1e-9));
  EXPECT(near(totals.at("child").total, 0.040, 1e-9));
  EXPECT(rec.spans()[1].parent == outer && rec.spans()[2].request == 2);
  Recorder off(false);
  EXPECT(off.begin("x") == -1 && off.spans().empty());
}

/// Answers every line with "ok:<line>", except that the first batch
/// stalls for `stall_ms`, and lines containing "bad" get a wrong answer.
class StallHandler : public naas::serve::LineHandler {
 public:
  explicit StallHandler(int stall_ms) : stall_ms_(stall_ms) {}
  std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) override {
    if (first_) {
      first_ = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    std::vector<std::string> out;
    for (const auto& l : lines)
      out.push_back(l.find("bad") != std::string::npos ? "wrong" : "ok:" + l);
    return out;
  }
  naas::search::StoreStatus refresh() override {
    return naas::search::StoreStatus::kOk;
  }
  void note_shed() override {}
  void note_timeout() override {}
  void note_protocol_reject() override {}

 private:
  int stall_ms_;
  bool first_ = true;
};

void test_open_loop_charges_stalls() {
  StallHandler handler(200);
  naas::serve::Server server(handler, naas::serve::ServerOptions{});
  std::string err;
  EXPECT(server.start(&err));
  std::thread net([&] { server.run(); });
  {
    LoadGen gen;
    EXPECT(gen.connect(server.port(), 2, &err));
    std::vector<std::string> lines;
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 200; ++i) {
      lines.push_back("req" + std::to_string(i) + (i == 150 ? "bad" : ""));
      expected.push_back(digest("ok:" + lines.back()));
    }
    // 1000 requests/s: request i is due at i ms. The stall starts when
    // the first line arrives, so it ends 200 ms or more into the run, and
    // no answer can come before it ends. Only these orderings are checked,
    // so a slow or stalled host cannot fail the test.
    const LoadRun run = gen.open_loop(lines, expected, 1000);
    EXPECT(run.failed == 1 && !run.timings[150].ok);
    EXPECT(std::isinf(latency_from_due(run.timings[150])));
    bool ordered = true, waited = true;
    for (int i = 0; i < 200; ++i) {
      const RequestTiming& t = run.timings[i];
      ordered = ordered && near(t.due, i / 1000.0, 1e-9) && t.sent >= t.due &&
                (!t.ok || t.done >= t.sent);
      // Timed from its due time, a request due before the stall ended
      // waited at least until it ended, whenever it was actually sent.
      if (t.ok && t.due < 0.2)
        waited = waited && latency_from_due(t) >= 0.2 - t.due - 1e-9;
    }
    EXPECT(ordered);
    EXPECT(waited);
    const LoadRun closed = gen.closed_loop(lines, expected, 2);
    EXPECT(closed.failed == 1);
    EXPECT(closed.timings[10].due == closed.timings[10].sent);
  }
  server.request_stop();
  net.join();
}

}  // namespace

int main() {
  test_median_and_iqr();
  test_tail_rule();
  test_due_time_and_failures();
  test_recorder();
  test_open_loop_charges_stalls();
  if (failures) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all passed\n");
  return 0;
}
