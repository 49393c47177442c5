#include "serve/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "core/log.hpp"

namespace naas::serve {
namespace {

bool all_whitespace(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// Best-effort id extraction for responses produced without evaluating the
/// request (shed, deadline-expired). A line that does not even parse still
/// gets the structured error, just with a null id.
Json extract_id(const std::string& line) {
  std::string error;
  const Json request = Json::parse(line, &error);
  if (!error.empty() || !request.is_object()) return Json::null();
  const Json* id = request.get("id");
  return id ? *id : Json::null();
}

}  // namespace

Server::Server(LineHandler& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() {
  // Normal shutdown happens inside run(); this path only covers a Server
  // that was started but whose run() never completed a drain.
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    eval_stop_ = true;
  }
  queue_cv_.notify_all();
  if (eval_thread_.joinable()) eval_thread_.join();
}

bool Server::start(std::string* err) {
  if (!listener_.listen(options_.host, options_.port, options_.backlog, err))
    return false;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    if (err) *err = "pipe2 failed";
    listener_.close();
    return false;
  }
  wake_read_ = net::Fd(pipe_fds[0]);
  wake_write_ = net::Fd(pipe_fds[1]);
  eval_thread_ = std::thread([this] { eval_loop(); });
  started_ = true;
  if (err) err->clear();
  return true;
}

void Server::request_stop() {
  // Async-signal-safe: one atomic store and one write(2).
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_write_.valid()) {
    const char b = 's';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &b, 1);
  }
}

void Server::wake_net_thread() {
  if (wake_write_.valid()) {
    const char b = 'c';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &b, 1);
  }
}

// --------------------------------------------------------------- eval side

void Server::eval_loop() {
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mutex_);
      queue_cv_.wait(lk, [this] { return eval_stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // eval_stop_ with a drained queue
      const std::size_t take =
          std::min(queue_.size(), std::max<std::size_t>(
                                      1, options_.max_batch_requests));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      eval_busy_ = true;
    }
    dispatch_batch(std::move(batch));
    {
      std::lock_guard<std::mutex> lk(queue_mutex_);
      eval_busy_ = false;
    }
    wake_net_thread();
  }
}

void Server::dispatch_batch(std::vector<PendingRequest> batch) {
  const Clock::time_point now = Clock::now();
  std::vector<Completion> done;
  done.reserve(batch.size());

  // Deadline pass: a request whose deadline expired while it waited is
  // answered without being evaluated — under overload that converts queue
  // time the client already gave up on into shed work instead of letting
  // it displace still-useful requests.
  std::vector<std::string> lines;
  std::vector<std::size_t> slots;  // index into `batch` per line
  for (std::size_t i = 0; i < batch.size(); ++i) {
    long long deadline_ms = options_.default_deadline_ms;
    bool has_deadline = deadline_ms > 0;
    // Quick reject before paying a parse: the field name must at least
    // appear in the bytes.
    if (batch[i].line.find("\"deadline_ms\"") != std::string::npos) {
      std::string error;
      const Json request = Json::parse(batch[i].line, &error);
      if (error.empty() && request.is_object()) {
        if (const Json* d = request.get("deadline_ms"); d && d->is_number()) {
          deadline_ms = d->as_int();
          has_deadline = deadline_ms >= 0;
        }
      }
    }
    if (has_deadline &&
        now - batch[i].arrival > std::chrono::milliseconds(deadline_ms)) {
      ++stats_.requests_timed_out;
      service_.note_timeout();
      done.push_back({batch[i].conn_id, batch[i].slot,
                      error_response(extract_id(batch[i].line),
                                     kErrDeadlineExceeded,
                                     "deadline of " +
                                         std::to_string(deadline_ms) +
                                         " ms expired before evaluation")
                          .dump()});
      continue;
    }
    lines.push_back(batch[i].line);
    slots.push_back(i);
  }

  if (!lines.empty()) {
    // The stdin driver's exact code path — what makes socket responses
    // byte-identical to stdin mode.
    std::vector<std::string> responses = service_.handle_lines(lines);
    for (std::size_t k = 0; k < responses.size(); ++k) {
      const PendingRequest& req = batch[slots[k]];
      done.push_back({req.conn_id, req.slot, std::move(responses[k])});
    }
  }

  {
    std::lock_guard<std::mutex> lk(completion_mutex_);
    for (Completion& c : done) completions_.push_back(std::move(c));
  }

  ++stats_.batches_dispatched;
  if (options_.refresh_every_batches > 0 &&
      stats_.batches_dispatched % options_.refresh_every_batches == 0)
    service_.refresh();
}

// ---------------------------------------------------------------- net side

void Server::handle_readable(Conn& conn) {
  char buf[4096];
  for (;;) {
    const net::IoResult r = net::read_some(conn.fd.get(), buf, sizeof(buf));
    if (r.status == net::IoStatus::kOk) {
      conn.inbuf.append(buf, r.bytes);
      conn.last_activity = Clock::now();
    } else if (r.status == net::IoStatus::kWouldBlock) {
      break;
    } else if (r.status == net::IoStatus::kEof) {
      conn.read_closed = true;
      break;
    } else {
      ++stats_.connections_reset;
      close_conn(conn.id);
      return;
    }
  }
  extract_lines(conn);
}

void Server::extract_lines(Conn& conn) {
  std::size_t nl;
  while ((nl = conn.inbuf.find('\n')) != std::string::npos) {
    std::string line = conn.inbuf.substr(0, nl);
    conn.inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (all_whitespace(line)) continue;  // batch separators mean nothing here
    ++stats_.lines_received;
    if (line.size() > options_.max_line_bytes) {
      // Framing survived (we saw the newline): reject the line, keep the
      // connection.
      ++stats_.protocol_rejects;
      service_.note_protocol_reject();
      conn.ready[conn.next_slot++] =
          line_too_long_response(options_.max_line_bytes).dump();
      continue;
    }
    admit_line(conn, std::move(line));
  }
  if (conn.inbuf.size() > options_.max_line_bytes) {
    // An unframed over-cap line: answering and resynchronizing is
    // impossible without unbounded buffering, so reject and close once
    // pending responses have flushed.
    ++stats_.protocol_rejects;
    service_.note_protocol_reject();
    conn.ready[conn.next_slot++] =
        line_too_long_response(options_.max_line_bytes).dump();
    conn.inbuf.clear();
    conn.read_closed = true;
    conn.close_after_flush = true;
  }
}

void Server::admit_line(Conn& conn, std::string line) {
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    if (queue_.size() < options_.max_queue_requests) {
      queue_.push_back(
          {conn.id, conn.next_slot, std::move(line), Clock::now()});
      admitted = true;
    }
  }
  if (admitted) {
    ++stats_.requests_admitted;
    ++conn.outstanding;
    ++conn.next_slot;
    queue_cv_.notify_one();
    return;
  }
  // Shed at admission: the structured `overloaded` error is the whole
  // point of the bounded queue — clients get a retryable signal in
  // bounded time and the evaluation pool never sees the overflow.
  ++stats_.requests_shed;
  service_.note_shed();
  conn.ready[conn.next_slot++] =
      error_response(extract_id(line), kErrOverloaded,
                     "admission queue full (" +
                         std::to_string(options_.max_queue_requests) +
                         " requests); retry later")
          .dump();
}

void Server::route_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lk(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while evaluating
    it->second.ready[c.slot] = std::move(c.response);
    if (it->second.outstanding > 0) --it->second.outstanding;
  }
}

void Server::flush_ready(Conn& conn) {
  // Responses leave in slot order, so pipelined clients see request order
  // even when an instant error response overtook an evaluated request.
  for (auto it = conn.ready.find(conn.flushed); it != conn.ready.end();
       it = conn.ready.find(conn.flushed)) {
    conn.outbuf += it->second;
    conn.outbuf += '\n';
    conn.ready.erase(it);
    ++conn.flushed;
  }
}

bool Server::write_outbuf(Conn& conn) {
  while (!conn.outbuf.empty()) {
    const net::IoResult r =
        net::write_some(conn.fd.get(), conn.outbuf.data(), conn.outbuf.size());
    if (r.status == net::IoStatus::kOk) {
      conn.outbuf.erase(0, r.bytes);
      conn.last_activity = Clock::now();
    } else if (r.status == net::IoStatus::kWouldBlock) {
      return true;
    } else {
      ++stats_.connections_reset;
      close_conn(conn.id);
      return false;
    }
  }
  return true;
}

void Server::close_conn(std::uint64_t id) {
  dead_conns_.push_back(id);
}

bool Server::drain_complete() {
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    if (!queue_.empty() || eval_busy_) return false;
  }
  {
    std::lock_guard<std::mutex> lk(completion_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : conns_)
    if (conn.outstanding > 0 || !conn.ready.empty() || !conn.outbuf.empty())
      return false;
  return true;
}

void Server::run() {
  if (!started_) return;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed) && !draining_) {
      draining_ = true;
      listener_.close();  // stop accepting; in-flight work continues
      drain_deadline = Clock::now() + std::chrono::milliseconds(
                                          options_.drain_flush_timeout_ms);
    }

    if (draining_ && drain_complete()) break;
    if (draining_ && Clock::now() > drain_deadline) {
      core::log_warn("serve: drain flush timeout; closing " +
                     std::to_string(conns_.size()) + " connection(s)");
      break;
    }

    poller_.clear();
    poller_.add(wake_read_.get(), true, false);
    if (listener_.listening() &&
        conns_.size() < static_cast<std::size_t>(options_.max_connections))
      poller_.add(listener_.fd(), true, false);
    for (auto& [id, conn] : conns_) {
      const bool want_read =
          !draining_ && !conn.read_closed &&
          conn.outbuf.size() < options_.max_output_buffer_bytes;
      const bool want_write = !conn.outbuf.empty();
      if (want_read || want_write)
        poller_.add(conn.fd.get(), want_read, want_write);
      conn.read_polled |= want_read;
    }

    const int timeout_ms =
        draining_ ? 20 : (options_.idle_timeout_ms > 0 ? 100 : 1000);
    poller_.wait(timeout_ms);

    // Drain wake-pipe bytes (level-triggered poll would spin otherwise).
    if (poller_.readable(wake_read_.get())) {
      char buf[64];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // Accept.
    if (listener_.listening() && poller_.readable(listener_.fd())) {
      for (;;) {
        net::Fd fd = listener_.accept_one();
        if (!fd) break;
        if (conns_.size() >=
            static_cast<std::size_t>(options_.max_connections)) {
          ++stats_.connections_rejected;
          continue;  // Fd closes on scope exit: connection-level shedding
        }
        ++stats_.connections_accepted;
        Conn conn;
        conn.id = next_conn_id_++;
        conn.fd = std::move(fd);
        conn.last_activity = Clock::now();
        conns_.emplace(conn.id, std::move(conn));
      }
    }

    // Read + frame + admit.
    for (auto& [id, conn] : conns_)
      if (!conn.read_closed && poller_.readable(conn.fd.get()))
        handle_readable(conn);

    // Collect evaluated responses, then write everything writable.
    route_completions();
    for (auto& [id, conn] : conns_) {
      flush_ready(conn);
      if (!conn.outbuf.empty() &&
          (poller_.writable(conn.fd.get()) || draining_))
        if (!write_outbuf(conn)) continue;
      const bool finished = conn.outbuf.empty() && conn.ready.empty() &&
                            conn.outstanding == 0;
      if (finished && (conn.close_after_flush || conn.read_closed))
        close_conn(id);
      else if (finished && conn.read_polled &&
               options_.idle_timeout_ms > 0 &&
               Clock::now() - conn.last_activity >
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
        ++stats_.connections_reaped;
        close_conn(id);
      }
    }

    for (const std::uint64_t id : dead_conns_) conns_.erase(id);
    dead_conns_.clear();
  }

  // Shut the eval thread down (the queue is empty or the drain timed out),
  // then final-flush the store: the contract a SIGTERM'd server keeps.
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    eval_stop_ = true;
  }
  queue_cv_.notify_all();
  if (eval_thread_.joinable()) eval_thread_.join();
  conns_.clear();
  service_.refresh();
}

}  // namespace naas::serve
