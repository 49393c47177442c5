#pragma once

// Load generator: one thread, up to four TCP connections, driving a
// line-protocol server in a closed or an open loop. Responses are checked
// against expected bytes (by 64-bit hash) as they arrive.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// FNV-1a 64: a stable digest for byte-identity checks on responses, so a
/// run does not have to keep every expected response in memory.
inline std::uint64_t digest(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h ^ s.size();
}

struct LoadRun {
  std::vector<RequestTiming> timings;  ///< one per request, in request order
  double elapsed = 0;                  ///< first send to last response (s)
  long long failed = 0;  ///< wrong bytes, error, refused or timed out
};

class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen() { close(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `conns` connections to 127.0.0.1:`port`.
  bool connect(int port, int conns, std::string* err);
  void close();
  int connections() const { return static_cast<int>(fds_.size()); }

  /// Closed loop over the first `conns` connections: each keeps exactly
  /// one request in flight, so the next is sent when the previous answer
  /// arrives. `expected[i]` is the digest of the right answer to line i.
  LoadRun closed_loop(const std::vector<std::string>& lines,
                      const std::vector<std::uint64_t>& expected, int conns,
                      double timeout_s = 30);

  /// Open loop: line i is due `i / rate` seconds after the start and goes
  /// out on connection i mod connections() no matter how many answers are
  /// outstanding. Latency is measured from the due time.
  LoadRun open_loop(const std::vector<std::string>& lines,
                    const std::vector<std::uint64_t>& expected, double rate,
                    double timeout_s = 30);

 private:
  LoadRun run(const std::vector<std::string>& lines,
              const std::vector<std::uint64_t>& expected, double rate,
              int conns, double timeout_s);

  std::vector<int> fds_;
};

}  // namespace perfbench
