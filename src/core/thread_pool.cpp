#include "core/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/log.hpp"

namespace naas::core {

/// Shared state of one parallel_for: an index dispenser plus a completion
/// counter. Workers and the owning thread claim indices with fetch_add, so
/// each index runs exactly once regardless of who claims it.
struct ThreadPool::Loop {
  std::size_t n = 0;
  /// Owned by the parallel_for frame; valid until done == n (the owner
  /// blocks until then, and no index is claimable afterwards).
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> has_error{false};  ///< lock-free fast check
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first exception, guarded by m
};

/// Claims and runs iterations until the dispenser is empty. After an
/// exception, remaining claims are drained without running `fn` so the loop
/// finishes promptly; the owner rethrows the first error.
void ThreadPool::run_loop(Loop& loop) {
  while (true) {
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.n) return;
    if (!loop.has_error.load(std::memory_order_relaxed)) {
      try {
        (*loop.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(loop.m);
        if (!loop.error) loop.error = std::current_exception();
        loop.has_error.store(true, std::memory_order_relaxed);
      }
    }
    if (loop.done.fetch_add(1, std::memory_order_acq_rel) + 1 == loop.n) {
      std::lock_guard<std::mutex> lk(loop.m);
      loop.cv.notify_all();
    }
  }
}

int ThreadPool::default_num_threads() {
  const char* env = std::getenv("NAAS_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && n >= 1 &&
        n <= kMaxThreads)
      return static_cast<int>(n);
    log_warn("ignoring NAAS_NUM_THREADS='" + std::string(env) +
             "' (expected an integer in [1, " + std::to_string(kMaxThreads) +
             "])");
  }
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u,
                                     static_cast<unsigned>(kMaxThreads)));
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads > kMaxThreads)
    throw std::invalid_argument("ThreadPool: " + std::to_string(num_threads) +
                                " threads requested, at most " +
                                std::to_string(kMaxThreads) + " allowed");
  if (num_threads <= 0) num_threads = default_num_threads();
  // The calling thread participates in every loop, so a pool of size N
  // needs N-1 workers.
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  while (true) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [this] {
        // Prune exhausted loops so the predicate doesn't spin on them.
        pending_.erase(
            std::remove_if(pending_.begin(), pending_.end(),
                           [](const std::shared_ptr<Loop>& l) {
                             return l->next.load(std::memory_order_relaxed) >=
                                    l->n;
                           }),
            pending_.end());
        return stop_ || !pending_.empty();
      });
      if (stop_ && pending_.empty()) return;
      loop = pending_.front();
    }
    run_loop(*loop);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial fallback: inline on the caller, exactly the pre-pool behavior.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->n = n;
  loop->fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    pending_.push_back(loop);
  }
  cv_.notify_all();

  run_loop(*loop);  // the owner claims indices like any worker

  {
    std::unique_lock<std::mutex> lk(loop->m);
    loop->cv.wait(lk, [&] {
      return loop->done.load(std::memory_order_acquire) == n;
    });
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    pending_.erase(std::remove(pending_.begin(), pending_.end(), loop),
                   pending_.end());
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace naas::core
