#include "core/task_graph.hpp"

#include <stdexcept>
#include <utility>

#include "core/timer.hpp"

namespace naas::core {

TaskGraph::TaskGraph(ThreadPool* pool) : pool_(pool) {
  stats_.workers = parallelism();
}

TaskGraph::TaskId TaskGraph::submit(std::function<void()> fn,
                                    const std::vector<TaskId>& deps) {
  bool ready = false;
  TaskId id = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    id = next_id_++;
    Task task;
    task.fn = std::move(fn);
    for (const TaskId dep : deps) {
      if (dep == 0 || dep >= id)
        throw std::invalid_argument("TaskGraph::submit: unknown dependency id");
      const auto it = tasks_.find(dep);
      if (it == tasks_.end()) continue;  // already completed: satisfied
      it->second.dependents.push_back(id);
      ++task.unmet;
    }
    ready = task.unmet == 0;
    tasks_.emplace(id, std::move(task));
    ++pending_;
    if (ready) ready_.insert(id);
  }
  if (ready) cv_.notify_one();
  return id;
}

TaskGraph::TaskId TaskGraph::make_promise() {
  std::lock_guard<std::mutex> lk(mutex_);
  const TaskId id = next_id_++;
  Task task;
  task.is_promise = true;
  // A promise is never "ready": it completes via fulfill(), so it carries a
  // synthetic unmet dependency that nothing ever decrements.
  task.unmet = 1;
  tasks_.emplace(id, std::move(task));
  ++pending_;
  return id;
}

void TaskGraph::fulfill(TaskId promise) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = tasks_.find(promise);
    if (it == tasks_.end() || !it->second.is_promise)
      throw std::logic_error(
          "TaskGraph::fulfill: not a live promise (double fulfill?)");
    complete_locked(promise);
  }
  cv_.notify_all();
}

TaskGraph::TaskId TaskGraph::pop_ready_locked() {
  const TaskId id = *ready_.begin();
  ready_.erase(ready_.begin());
  return id;
}

void TaskGraph::complete_locked(TaskId id) {
  auto node = tasks_.extract(id);
  for (const TaskId dep_id : node.mapped().dependents) {
    const auto it = tasks_.find(dep_id);
    if (it == tasks_.end()) continue;  // cancelled
    if (--it->second.unmet == 0) ready_.insert(dep_id);
  }
  --pending_;
}

void TaskGraph::cancel_remaining_locked() {
  for (const auto& [id, task] : tasks_)
    if (!task.is_promise) ++stats_.tasks_skipped;
  tasks_.clear();
  ready_.clear();
  pending_ = 0;
}

void TaskGraph::execute(TaskId id, std::unique_lock<std::mutex>& lk) {
  // Move the body out but keep the task entry live: dependents registered
  // while it runs (nested submission) must still find it.
  std::function<void()> fn = std::move(tasks_.at(id).fn);
  const bool skip = error_ != nullptr;
  ++running_;
  lk.unlock();

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

  lk.lock();
  --running_;
  if (skip) {
    ++stats_.tasks_skipped;
  } else {
    ++stats_.tasks_executed;
    stats_.busy_seconds += body_seconds;
    if (thrown && !error_) error_ = thrown;
  }
  complete_locked(id);
  // Completion may have readied several dependents (or quiesced the graph);
  // wake every waiter rather than guessing how many can now make progress.
  cv_.notify_all();
}

void TaskGraph::worker_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (true) {
    cv_.wait(lk, [this] {
      return !ready_.empty() || pending_ == 0 || running_ == 0;
    });
    if (pending_ == 0) return;
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
      cv_.notify_all();
      return;
    }
    const TaskId id = pop_ready_locked();
    execute(id, lk);  // unlocks while the body runs
  }
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
    const TaskId id = pop_ready_locked();
    execute(id, lk);
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
