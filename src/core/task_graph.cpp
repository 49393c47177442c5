#include "core/task_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/timer.hpp"

namespace naas::core {

TaskGraph::TaskGraph(ThreadPool* pool) : pool_(pool) {
  stats_.workers = parallelism();
}

TaskGraph::Task* TaskGraph::live_task_locked(TaskId id) {
  const std::size_t block = (id - 1) / kBlockSize;
  if (block < first_block_ || block - first_block_ >= blocks_.size())
    return nullptr;
  Block* b = blocks_[block - first_block_].get();
  if (b == nullptr) return nullptr;  // freed: every id in it completed
  Task& task = b->tasks[(id - 1) % kBlockSize];
  return task.state == State::kDone ? nullptr : &task;
}

TaskGraph::Task& TaskGraph::new_task_locked() {
  const TaskId id = next_id_;
  // Ids are issued in order, so a new id either falls in the last block or
  // opens the next one (blocks holding unissued ids are never freed).
  if ((id - 1) / kBlockSize - first_block_ == blocks_.size())
    blocks_.push_back(std::make_unique<Block>());
  ++next_id_;
  ++pending_;
  return blocks_.back()->tasks[(id - 1) % kBlockSize];
}

void TaskGraph::retire_locked(TaskId id) {
  const std::size_t index = (id - 1) / kBlockSize - first_block_;
  Block& b = *blocks_[index];
  b.tasks[(id - 1) % kBlockSize].state = State::kDone;
  if (--b.live > 0) return;
  blocks_[index].reset();
  std::size_t freed = 0;
  while (freed < blocks_.size() && blocks_[freed] == nullptr) ++freed;
  blocks_.erase(blocks_.begin(), blocks_.begin() + freed);
  first_block_ += freed;
}

TaskGraph::TaskId TaskGraph::submit(std::function<void()> fn,
                                    std::span<const TaskId> deps) {
  bool ready = false;
  TaskId id = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    id = next_id_;
    // Validate every dependency before touching anything, so a rejected
    // submit leaves no trace (no consumed id, no dangling dependent edge).
    for (const TaskId dep : deps)
      if (dep == 0 || dep >= id)
        throw std::invalid_argument("TaskGraph::submit: unknown dependency id");
    Task& task = new_task_locked();
    task.fn = std::move(fn);
    task.state = State::kTask;
    for (const TaskId dep : deps) {
      Task* pred = live_task_locked(dep);
      if (pred == nullptr) continue;  // already completed: satisfied
      std::uint32_t edge = free_edge_;
      if (edge != kNoEdge) {
        free_edge_ = edges_[edge].next;
        edges_[edge] = {id, pred->dependents};
      } else {
        edge = static_cast<std::uint32_t>(edges_.size());
        edges_.push_back({id, pred->dependents});
      }
      pred->dependents = edge;
      ++task.unmet;
    }
    ready = task.unmet == 0;
    if (ready) push_ready_locked(id);
  }
  if (ready) cv_.notify_one();
  return id;
}

TaskGraph::TaskId TaskGraph::make_promise() {
  std::lock_guard<std::mutex> lk(mutex_);
  const TaskId id = next_id_;
  Task& task = new_task_locked();
  task.state = State::kPromise;
  // A promise is never "ready": it completes via fulfill(), so it carries a
  // synthetic unmet dependency that nothing ever decrements.
  task.unmet = 1;
  return id;
}

void TaskGraph::fulfill(TaskId promise) {
  std::size_t readied = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const Task* task =
        promise != 0 && promise < next_id_ ? live_task_locked(promise) : nullptr;
    if (task == nullptr || task->state != State::kPromise)
      throw std::logic_error(
          "TaskGraph::fulfill: not a live promise (double fulfill?)");
    readied = complete_locked(promise);
  }
  // Called from a running body (or outside run()), so the graph cannot have
  // quiesced; only the readied dependents need a worker.
  for (; readied > 0; --readied) cv_.notify_one();
}

void TaskGraph::push_ready_locked(TaskId id) {
  ready_.push_back(id);
  std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
}

TaskGraph::TaskId TaskGraph::pop_ready_locked() {
  std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
  const TaskId id = ready_.back();
  ready_.pop_back();
  return id;
}

std::size_t TaskGraph::complete_locked(TaskId id) {
  Task& task = *live_task_locked(id);
  std::size_t readied = 0;
  for (std::uint32_t edge = task.dependents; edge != kNoEdge;) {
    const Edge e = edges_[edge];
    edges_[edge].next = free_edge_;
    free_edge_ = edge;
    edge = e.next;
    if (--live_task_locked(e.dependent)->unmet == 0) {
      push_ready_locked(e.dependent);
      ++readied;
    }
  }
  task.dependents = kNoEdge;
  retire_locked(id);
  --pending_;
  return readied;
}

void TaskGraph::cancel_remaining_locked() {
  // Only called with nothing running, so every live slot is idle: skip the
  // bodies, force-complete the promises, and free every edge and block.
  for (TaskId id = first_block_ * kBlockSize + 1; id < next_id_; ++id) {
    Task* task = live_task_locked(id);
    if (task == nullptr) continue;
    if (task->state == State::kTask) ++stats_.tasks_skipped;
    task->fn = nullptr;
    task->dependents = kNoEdge;
    retire_locked(id);
  }
  edges_.clear();
  free_edge_ = kNoEdge;
  ready_.clear();
  pending_ = 0;
}

std::size_t TaskGraph::execute(TaskId id, std::unique_lock<std::mutex>& lk,
                               std::size_t wake) {
  // Move the body out but keep the task slot live: dependents registered
  // while it runs (nested submission) must still find it.
  std::function<void()> fn = std::move(live_task_locked(id)->fn);
  const bool skip = error_ != nullptr;
  ++running_;
  lk.unlock();
  for (; wake > 0; --wake) cv_.notify_one();

  double body_seconds = 0;
  std::exception_ptr thrown;
  if (!skip) {
    const Timer timer;
    try {
      fn();
    } catch (...) {
      thrown = std::current_exception();
    }
    body_seconds = timer.seconds();
  }
  // The closure may own chain state (a mapping search's shared state, say):
  // release it here rather than under the lock.
  fn = nullptr;

  lk.lock();
  --running_;
  if (skip) {
    ++stats_.tasks_skipped;
  } else {
    ++stats_.tasks_executed;
    stats_.busy_seconds += body_seconds;
    if (thrown && !error_) error_ = thrown;
  }
  return complete_locked(id);
}

void TaskGraph::worker_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  // Dependents readied by this thread's last completion beyond the one it
  // claims next itself; woken once the lock is released.
  std::size_t owed = 0;
  while (true) {
    cv_.wait(lk, [this] {
      return !ready_.empty() || pending_ == 0 || running_ == 0;
    });
    if (pending_ == 0) break;
    if (ready_.empty()) {
      if (running_ > 0) continue;  // spurious wake while others still run
      // Nothing ready, nothing running, tasks pending: every live task
      // waits on a promise nobody can fulfill. After an error this is the
      // expected drain (the fulfilling body was skipped); otherwise it is
      // a pipeline bug worth failing loudly on instead of hanging.
      if (!error_)
        error_ = std::make_exception_ptr(std::logic_error(
            "TaskGraph stalled: live tasks blocked on an unfulfilled "
            "promise"));
      cancel_remaining_locked();
      break;
    }
    const std::size_t readied = execute(pop_ready_locked(), lk, owed);
    owed = readied > 0 ? readied - 1 : 0;
  }
  // Quiesced: every other claim loop must see it and return too.
  lk.unlock();
  cv_.notify_all();
}

void TaskGraph::run_serial() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (pending_ > 0) {
    if (ready_.empty()) {
      if (!error_)
        error_ = std::make_exception_ptr(std::logic_error(
            "TaskGraph stalled: live tasks blocked on an unfulfilled "
            "promise"));
      cancel_remaining_locked();
      break;
    }
    execute(pop_ready_locked(), lk, 0);
  }
}

void TaskGraph::run() {
  const Timer wall;
  if (parallelism() <= 1) {
    run_serial();
  } else {
    // Every pool thread (plus the caller, via ThreadPool's participating
    // parallel_for) becomes a claim loop until the graph quiesces.
    pool_->parallel_for(static_cast<std::size_t>(pool_->size()),
                        [this](std::size_t) { worker_loop(); });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stats_.wall_seconds += wall.seconds();
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

TaskGraph::Stats TaskGraph::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

}  // namespace naas::core
