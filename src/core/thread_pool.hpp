#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace naas::core {

/// Upper bound on a pool's thread count. Counts arrive from outside the
/// program (NAAS_NUM_THREADS, naas_serve --threads); a larger request is an
/// error, never thousands of spawned threads.
inline constexpr int kMaxThreads = 256;

/// Fixed-size worker pool for the evaluation fan-out of the search loops.
///
/// Design goals, in order:
///  1. *Determinism*: the pool never decides results, only scheduling.
///     `parallel_for` hands out indices from a shared atomic counter and
///     callers write results by index, so outputs are identical for any
///     thread count and any interleaving (no work stealing between
///     unrelated loops, no reduction-order dependence).
///  2. *Nesting safety*: the calling thread participates in its own loop
///     (it claims indices like any worker) and never blocks waiting for a
///     queue slot. A pool worker that itself calls `parallel_for` therefore
///     makes progress even when every other worker is busy — the two-level
///     NAAS search (population fan-out containing mapping-search fan-outs)
///     shares one pool without deadlock.
///  3. *Serial fallback*: with `num_threads <= 1` no threads are spawned
///     and every loop runs inline on the caller, byte-for-byte identical to
///     the pre-threading code path.
class ThreadPool {
 public:
  /// `num_threads <= 0` resolves via `default_num_threads()`;
  /// `num_threads == 1` creates a pool with no workers (inline execution).
  /// Throws std::invalid_argument above kMaxThreads, before spawning.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that can make progress concurrently: the workers
  /// plus the calling thread. Always >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// True when loops run inline on the caller (no worker threads).
  bool serial() const { return workers_.empty(); }

  /// Runs `fn(i)` for every i in [0, n). Blocks until all iterations are
  /// done. The caller executes iterations too. If any iteration throws, the
  /// first exception (by completion order) is rethrown here after the loop
  /// drains; iterations not yet started when the error was recorded are
  /// skipped, so on a throwing loop no output slot can be assumed written.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Thread count used for `num_threads <= 0`: the NAAS_NUM_THREADS
  /// environment variable when it is an integer in [1, kMaxThreads] (any
  /// other value is ignored with a warning), else `hardware_concurrency`
  /// clamped to [1, kMaxThreads].
  static int default_num_threads();

 private:
  struct Loop;  // shared state of one parallel_for

  static void run_loop(Loop& loop);
  void worker_main();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Loop>> pending_;  ///< loops with unclaimed work
  bool stop_ = false;
};

}  // namespace naas::core
