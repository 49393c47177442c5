#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <time.h>

#include "net/socket.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> inflight;
  bool dead = false;
};

}  // namespace

bool LoadGen::connect(int port, int conns, std::string* err) {
  close();
  for (int i = 0; i < conns; ++i) {
    naas::net::Fd fd = naas::net::tcp_connect("127.0.0.1", port, 5000, err);
    if (!fd.valid() || !naas::net::set_nonblocking(fd.get(), err)) {
      close();
      return false;
    }
    fds_.push_back(fd.release());
  }
  return true;
}

void LoadGen::close() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

LoadRun LoadGen::closed_loop(const std::vector<std::string>& lines,
                             const std::vector<std::uint64_t>& expected,
                             int conns, double timeout_s) {
  return run(lines, expected, 0, conns, timeout_s);
}

LoadRun LoadGen::open_loop(const std::vector<std::string>& lines,
                           const std::vector<std::uint64_t>& expected,
                           double rate, double timeout_s) {
  return run(lines, expected, rate, connections(), timeout_s);
}

LoadRun LoadGen::run(const std::vector<std::string>& lines,
                     const std::vector<std::uint64_t>& expected, double rate,
                     int conns, double timeout_s) {
  const std::size_t n = lines.size();
  LoadRun out;
  out.timings.resize(n);
  if (conns > connections()) conns = connections();
  if (n == 0) return out;
  if (conns <= 0) {
    out.failed = static_cast<long long>(n);
    return out;
  }

  std::vector<Conn> cs(conns);
  for (int i = 0; i < conns; ++i) cs[i].fd = fds_[i];

  const Clock::time_point t0 = Clock::now();
  const auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::size_t next = 0, done = 0;
  double last_progress = 0;
  long long mismatches_reported = 0;

  const auto finish = [&](std::size_t idx, double t, bool ok) {
    RequestTiming& r = out.timings[idx];
    r.done = t;
    r.ok = ok;
    if (!ok) ++out.failed;
    ++done;
    last_progress = t;
  };
  const auto kill = [&](Conn& c, double t) {
    c.dead = true;
    for (std::size_t idx : c.inflight) finish(idx, t, false);
    c.inflight.clear();
  };
  const auto enqueue = [&](Conn& c, std::size_t idx, double due, double t) {
    out.timings[idx].due = due;
    out.timings[idx].sent = t;
    if (c.dead) {
      finish(idx, t, false);
      return;
    }
    c.out.append(lines[idx]);
    c.out.push_back('\n');
    c.inflight.push_back(idx);
  };

  std::vector<pollfd> pfds(conns);
  char buf[65536];
  while (done < n) {
    double t = now();
    if (rate > 0) {
      while (next < n && static_cast<double>(next) / rate <= t) {
        enqueue(cs[next % conns], next, static_cast<double>(next) / rate, t);
        ++next;
      }
    } else {
      for (Conn& c : cs)
        if (next < n && c.inflight.empty() && !c.dead) enqueue(c, next++, t, t);
      if (next < n) {
        bool any_alive = false;
        for (const Conn& c : cs) any_alive = any_alive || !c.dead;
        if (!any_alive)
          while (next < n) enqueue(cs[0], next++, t, t);
      }
    }

    for (Conn& c : cs) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t w =
            ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                             errno == EINTR)) {
          break;
        } else {
          kill(c, now());
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (done >= n) break;

    double wait_s = 0.01;
    if (rate > 0 && next < n)
      wait_s = std::max(0.0, static_cast<double>(next) / rate - now());
    for (int i = 0; i < conns; ++i) {
      pfds[i].fd = cs[i].dead ? -1 : cs[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (cs[i].out.size() > cs[i].out_off ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) *
                                   1e9);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    t = now();
    if (ready > 0) {
      for (int i = 0; i < conns; ++i) {
        Conn& c = cs[i];
        if (c.dead || !(pfds[i].revents & (POLLIN | POLLERR | POLLHUP)))
          continue;
        for (;;) {
          const ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (r > 0) {
            c.in.append(buf, static_cast<std::size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR))
            break;
          kill(c, t);  // EOF or hard error
          break;
        }
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const std::string_view line(c.in.data() + start, nl - start);
          if (c.inflight.empty()) continue;  // unsolicited; ignore
          const std::size_t idx = c.inflight.front();
          c.inflight.pop_front();
          const bool ok = digest(line) == expected[idx];
          if (!ok && mismatches_reported++ < 3)
            std::fprintf(stderr,
                         "perfbench: response %zu differs from the "
                         "reference\n  request:  %.200s\n  response: %.300s\n",
                         idx, lines[idx].c_str(),
                         std::string(line).c_str());
          finish(idx, t, ok);
        }
        c.in.erase(0, start);
      }
    }
    if (t - last_progress > timeout_s) {
      for (Conn& c : cs) kill(c, t);
      while (next < n) {
        out.timings[next].due = out.timings[next].sent = t;
        finish(next++, t, false);
      }
    }
  }
  out.elapsed = now();
  return out;
}

}  // namespace perfbench
