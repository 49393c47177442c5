// Process-level tests of the naas_serve binary: signal-driven graceful
// drain in stdin mode (a SIGTERM'd warm server loses no completed
// results), warm-restart byte-identity, the stdin protocol limits, and the
// TCP listen mode end to end. Skipped when the binary is not next to the
// test (ctest runs with the build directory as cwd, where it always is).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "test_paths.hpp"

namespace naas {
namespace {

constexpr char kBinary[] = "./naas_serve";

std::string temp_store_path(const std::string& name) {
  return test::unique_temp_path("proc_" + name + ".bin");
}

/// A spawned naas_serve with pipes on stdin/stdout/stderr.
struct Child {
  pid_t pid = -1;
  int in = -1;   ///< write end of the child's stdin
  int out = -1;  ///< read end of the child's stdout
  int err = -1;  ///< read end of the child's stderr
  std::string out_buf, err_buf;

  ~Child() {
    close_in();
    if (out >= 0) ::close(out);
    if (err >= 0) ::close(err);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void close_in() {
    if (in >= 0) {
      ::close(in);
      in = -1;
    }
  }

  bool spawn(std::vector<std::string> args) {
    int in_pipe[2], out_pipe[2], err_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0 ||
        ::pipe(err_pipe) != 0)
      return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1],
                           err_pipe[0], err_pipe[1]})
        ::close(fd);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(kBinary));
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(kBinary, argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    in = in_pipe[1];
    out = out_pipe[0];
    err = err_pipe[0];
    ::fcntl(out, F_SETFL, O_NONBLOCK);
    ::fcntl(err, F_SETFL, O_NONBLOCK);
    return true;
  }

  bool send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(in, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads the next '\n'-terminated line from `fd`/`buf` within timeout.
  bool read_line_from(int fd, std::string* buf, std::string* line,
                      int timeout_ms) {
    for (int waited = 0; waited <= timeout_ms;) {
      const std::size_t nl = buf->find('\n');
      if (nl != std::string::npos) {
        *line = buf->substr(0, nl);
        buf->erase(0, nl + 1);
        return true;
      }
      ::pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 50) > 0) {
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0)
          buf->append(chunk, static_cast<std::size_t>(n));
        else if (n == 0)
          return false;  // child closed the stream: drain whatever is left
      } else {
        waited += 50;
      }
    }
    return false;
  }

  bool read_stdout_line(std::string* line, int timeout_ms = 60000) {
    return read_line_from(out, &out_buf, line, timeout_ms);
  }

  bool read_stderr_line(std::string* line, int timeout_ms = 60000) {
    return read_line_from(err, &err_buf, line, timeout_ms);
  }

  /// Waits for exit (bounded) and returns the exit code, -1 on timeout or
  /// abnormal termination.
  int wait_exit(int timeout_ms = 60000) {
    for (int waited = 0; waited <= timeout_ms; waited += 50) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      ::usleep(50 * 1000);
    }
    return -1;
  }
};

bool binary_present() { return ::access(kBinary, X_OK) == 0; }

const std::string kSearchRequest =
    "{\"id\":1,\"method\":\"search_mapping\",\"arch\":{\"preset\":"
    "\"nvdla256\"},\"layer\":{\"network\":\"squeezenet\",\"index\":0}}";

TEST(NaasServeProcess, SigtermDrainFlushesStoreAndExitsZero) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  const std::string store = temp_store_path("sigterm_flush");
  std::remove(store.c_str());

  Child child;
  // --refresh-every 0: nothing is flushed per batch, so whatever the store
  // holds after SIGTERM got there through the drain path alone.
  ASSERT_TRUE(child.spawn({"--cache-path", store, "--refresh-every", "0"}));
  ASSERT_TRUE(child.send(kSearchRequest + "\n\n"));
  std::string response;
  ASSERT_TRUE(child.read_stdout_line(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  // The server is warm and idle (blocked reading stdin). Kill it politely.
  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  EXPECT_EQ(child.wait_exit(), 0);

  // The completed result survived the kill.
  const search::StoreLoadResult loaded = search::ResultStore::load(store);
  EXPECT_EQ(loaded.status, search::StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 1u);
  std::remove(store.c_str());
}

TEST(NaasServeProcess, WarmRestartServesByteIdenticalResponse) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  const std::string store = temp_store_path("warm_restart");
  std::remove(store.c_str());

  std::string cold, warm;
  {
    Child child;
    ASSERT_TRUE(child.spawn({"--cache-path", store}));
    ASSERT_TRUE(child.send(kSearchRequest + "\n\n"));
    ASSERT_TRUE(child.read_stdout_line(&cold));
    child.close_in();  // EOF: normal exit path
    EXPECT_EQ(child.wait_exit(), 0);
  }
  {
    Child child;
    ASSERT_TRUE(child.spawn({"--cache-path", store}));
    ASSERT_TRUE(child.send(kSearchRequest + "\n\n"));
    ASSERT_TRUE(child.read_stdout_line(&warm));
    child.close_in();
    EXPECT_EQ(child.wait_exit(), 0);
    // The warm run served from the store without searching.
    std::string line;
    bool saw_zero_searches = false;
    while (child.read_stderr_line(&line, 2000))
      if (line.find("mapping searches run: 0") != std::string::npos)
        saw_zero_searches = true;
    EXPECT_TRUE(saw_zero_searches);
  }
  EXPECT_EQ(cold, warm);
  std::remove(store.c_str());
}

TEST(NaasServeProcess, StdinModeEnforcesProtocolLimits) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  Child child;
  ASSERT_TRUE(child.spawn({"--max-line-bytes", "64", "--max-batch", "1"}));
  // Three lines, one batch: an oversized line, a valid request, and a
  // request past the batch cap. Responses must come back in order.
  const std::string oversized(100, 'x');
  ASSERT_TRUE(child.send(oversized + "\n" +
                         "{\"id\":2,\"method\":\"cache_stats\"}\n" +
                         "{\"id\":3,\"method\":\"cache_stats\"}\n" + "\n"));
  std::string r1, r2, r3;
  ASSERT_TRUE(child.read_stdout_line(&r1));
  ASSERT_TRUE(child.read_stdout_line(&r2));
  ASSERT_TRUE(child.read_stdout_line(&r3));
  EXPECT_NE(r1.find("bad_request"), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"id\":null"), std::string::npos) << r1;
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;
  EXPECT_NE(r3.find("bad_request"), std::string::npos) << r3;
  EXPECT_NE(r3.find("\"id\":3"), std::string::npos) << r3;
  // The oversized line did not use up the single batch slot (the cap
  // bounds evaluated work); the meters saw both rejects.
  child.close_in();
  std::string line;
  bool saw_rejects = false;
  while (child.read_stderr_line(&line, 10000))
    if (line.find("2 protocol rejects") != std::string::npos)
      saw_rejects = true;
  EXPECT_TRUE(saw_rejects);
  EXPECT_EQ(child.wait_exit(), 0);
}

TEST(NaasServeProcess, SigintDrainsStdinModeLikeSigterm) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  const std::string store = temp_store_path("sigint_flush");
  std::remove(store.c_str());

  Child child;
  ASSERT_TRUE(child.spawn({"--cache-path", store, "--refresh-every", "0"}));
  ASSERT_TRUE(child.send(kSearchRequest + "\n\n"));
  std::string response;
  ASSERT_TRUE(child.read_stdout_line(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  // Ctrl-C must behave exactly like SIGTERM: finish what was taken,
  // flush the store, print the summary, exit 0 — not die mid-write.
  ASSERT_EQ(::kill(child.pid, SIGINT), 0);
  EXPECT_EQ(child.wait_exit(), 0);

  std::string line;
  bool saw_summary = false;
  while (child.read_stderr_line(&line, 2000))
    if (line.find("queries in") != std::string::npos) saw_summary = true;
  EXPECT_TRUE(saw_summary) << "no exit summary after SIGINT";

  const search::StoreLoadResult loaded = search::ResultStore::load(store);
  EXPECT_EQ(loaded.status, search::StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 1u);
  std::remove(store.c_str());
}

TEST(NaasServeProcess, MalformedFaultsSpecExitsLoudly) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  // A typo'd fault spec must refuse to start (exit 2, the usage code) —
  // a server quietly running with no faults armed would make a fault
  // soak green for the wrong reason.
  for (const char* bad : {"sock_read_short=2", "sock_read_short=1@abc",
                          "sock_read_short"}) {
    Child child;
    ASSERT_TRUE(child.spawn({"--faults", bad}));
    child.close_in();
    EXPECT_EQ(child.wait_exit(), 2) << bad;
    std::string line;
    bool saw_reason = false;
    while (child.read_stderr_line(&line, 2000))
      if (line.find("bad --faults spec") != std::string::npos)
        saw_reason = true;
    EXPECT_TRUE(saw_reason) << bad;
  }
}

TEST(NaasServeProcess, BadThreadCountExitsWithUsage) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  // Not a number, negative, trailing garbage, or above core::kMaxThreads:
  // each is a usage error before any pool exists.
  for (const char* bad : {"abc", "-3", "4x", "257"}) {
    Child child;
    ASSERT_TRUE(child.spawn({"--threads", bad}));
    child.close_in();
    EXPECT_EQ(child.wait_exit(), 2) << bad;
    std::string line;
    bool saw_reason = false;
    while (child.read_stderr_line(&line, 2000))
      if (line.find("bad --threads") != std::string::npos) saw_reason = true;
    EXPECT_TRUE(saw_reason) << bad;
  }
}

TEST(NaasServeProcess, ListenModeServesAndDrainsOnSigterm) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  Child child;
  ASSERT_TRUE(child.spawn({"--listen", "127.0.0.1:0"}));
  // The bound port is announced on stderr.
  int port = 0;
  std::string line;
  while (port == 0 && child.read_stderr_line(&line, 30000)) {
    const std::size_t at = line.find("listening on 127.0.0.1:");
    if (at != std::string::npos)
      port = std::atoi(line.c_str() + at + std::strlen("listening on 127.0.0.1:"));
  }
  ASSERT_GT(port, 0);

  net::LineClient client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", port, 5000, &err)) << err;
  ASSERT_TRUE(client.send_line(kSearchRequest));
  std::string response;
  ASSERT_TRUE(client.read_line(&response, 60000));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  client.close();

  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  EXPECT_EQ(child.wait_exit(), 0);
}

TEST(NaasServeProcess, ListenModeDrainsOnSigint) {
  if (!binary_present()) GTEST_SKIP() << "naas_serve not in cwd";
  Child child;
  ASSERT_TRUE(child.spawn({"--listen", "127.0.0.1:0"}));
  int port = 0;
  std::string line;
  while (port == 0 && child.read_stderr_line(&line, 30000)) {
    const std::size_t at = line.find("listening on 127.0.0.1:");
    if (at != std::string::npos)
      port = std::atoi(line.c_str() + at +
                       std::strlen("listening on 127.0.0.1:"));
  }
  ASSERT_GT(port, 0);

  // Serve one request, then Ctrl-C: the listen loop must drain and exit 0
  // exactly as it does for SIGTERM.
  net::LineClient client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", port, 5000, &err)) << err;
  ASSERT_TRUE(client.send_line(kSearchRequest));
  std::string response;
  ASSERT_TRUE(client.read_line(&response, 60000));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  client.close();
  ASSERT_EQ(::kill(child.pid, SIGINT), 0);
  EXPECT_EQ(child.wait_exit(), 0);
}

}  // namespace
}  // namespace naas
