// The serve-hot and serve-mixed workloads and their traced replays.
//
// Both boot from one warm result store that holds every unique zoo layer
// shape on each of the five preset accelerators (152 shapes x 5 = 760
// keys). Its construction is untimed preparation. The workload seed drives
// only the traffic: which keys are popular (Zipf over a seeded permutation),
// the order of requests, and the shapes of the unseen keys.
//
// serve-hot:   warm search_mapping and evaluate_network lines. Direct phase
//              over TCP to one serve::Server in front of an EvalService;
//              router phase through a Server in front of a fleet::Router
//              over two workers. No mapping search may run.
// serve-mixed: the direct front end with warm hits interleaved with unseen
//              keys (each runs one real mapping search) and
//              evaluate_mapping requests; the server refreshes the store
//              after every batch, so it is appended while it is read.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/router.hpp"
#include "loadgen.hpp"
#include "nn/model_zoo.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace naas;

namespace {

constexpr int kConns = 4;
constexpr int kRounds = 8;
/// Boots timed per round for setup_s (see measure_boots).
constexpr int kBootsPerRound = 8;
/// Open-loop rates in requests/s, fixed once from the closed-loop qps
/// measured when the benchmark was defined (4-vCPU Xeon, AVX2) and never
/// rescaled: serve-hot direct a quarter of its 30k (one request costs ~24 us
/// on the server's single eval thread, so at half that rate a 2-3x host
/// slowdown saturates it), the router half of its 14.6k, serve-mixed about
/// a third of its 14k.
constexpr double kHotRate = 7500;
constexpr double kRouterRate = 7000;
constexpr double kMixedRate = 5000;
constexpr const char* kPresets[] = {"edgetpu", "nvdla1024", "nvdla256",
                                    "eyeriss", "shidiannao"};
constexpr const char* kZoo[] = {
    "vgg16",      "resnet50", "unet",              "mobilenetv2",
    "squeezenet", "mnasnet",  "cifarnet",          "bert_base_encoder",
    "vit_b16_encoder", "llm_decode"};

using Shape = std::tuple<int, int, int, int, int, int, int, int, int>;

Shape shape_of(const nn::Workload& l) {
  return {static_cast<int>(l.kind), l.batch,    l.out_channels,
          l.in_channels,            l.out_h,    l.out_w,
          l.kernel_h,               l.kernel_w, l.stride};
}

/// A warm key: one unique layer shape, named by its first occurrence in
/// the zoo, on one preset.
struct WarmKey {
  const char* preset;
  const char* network;
  int index;
};

struct Zoo {
  std::vector<WarmKey> keys;
  std::set<Shape> shapes;
};

const Zoo& zoo() {
  static const Zoo z = [] {
    Zoo out;
    std::vector<std::pair<const char*, int>> firsts;
    for (const char* net : kZoo) {
      const nn::Network n = nn::make_network(net);
      for (int i = 0; i < n.num_layers(); ++i)
        if (out.shapes.insert(shape_of(n.layers()[i])).second)
          firsts.push_back({net, i});
    }
    for (const char* preset : kPresets)
      for (const auto& [net, i] : firsts) out.keys.push_back({preset, net, i});
    return out;
  }();
  return z;
}

serve::ServeOptions serve_options(const std::string& store, bool readonly) {
  serve::ServeOptions o;
  o.mapping.population = 8;
  o.mapping.iterations = 5;
  o.mapping.seed = 1;
  o.store_path = store;
  o.store_readonly = readonly;
  return o;
}

std::string arch_json(const char* preset) {
  return std::string("{\"preset\":\"") + preset + "\"}";
}

std::string zoo_layer_json(const char* network, int index) {
  return std::string("{\"network\":\"") + network +
         "\",\"index\":" + std::to_string(index) + "}";
}

std::string search_line(std::uint64_t id, const std::string& arch,
                        const std::string& layer) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"search_mapping\",\"arch\":" + arch +
         ",\"layer\":" + layer + "}";
}

enum class Kind { kHit, kNetwork, kMiss, kEvalMapping, kPing };

/// A scratch directory of this process inside the checkout, removed when
/// the workload ends.
struct WorkDir {
  std::string path;
  explicit WorkDir(const Args& a, const char* tag)
      : path(a.work_dir + "/" + tag + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string file(const std::string& name) const { return path + "/" + name; }
  /// A fresh copy of `src` under `name`, so every boot reads the same
  /// store and appends go to a private file.
  std::string copy(const std::string& src, const std::string& name) const {
    const std::string dst = file(name);
    std::filesystem::copy_file(
        src, dst, std::filesystem::copy_options::overwrite_existing);
    return dst;
  }
};

/// Untimed preparation: computes every warm key once and writes the store.
std::string build_warm_store(const WorkDir& dir, Result& r) {
  const std::string path = dir.file("warm.bin");
  {
    // One evaluation thread: a pool would leave its threads' malloc arenas
    // holding memory in a layout that varies from run to run, and that
    // would show in peak_rss_mb.
    serve::ServeOptions o = serve_options(path, false);
    o.num_threads = 1;
    serve::EvalService svc(o);
    std::vector<std::string> lines;
    std::uint64_t id = 0;
    for (const WarmKey& k : zoo().keys)
      lines.push_back(search_line(++id, arch_json(k.preset),
                                  zoo_layer_json(k.network, k.index)));
    svc.handle_lines(lines);
    r.check(svc.refresh() == search::StoreStatus::kOk,
            "writing the warm store");
  }
  const auto loaded = search::ResultStore::load(path);
  r.check(loaded.status == search::StoreStatus::kOk &&
              loaded.entries.size() == zoo().keys.size(),
          "warm store holds every warm key");
  return path;
}

/// Seeded request stream; line ids are unique across the whole run.
/// serve-hot: 90% search_mapping on a Zipf-popular warm key, 10%
/// evaluate_network on a uniform (preset, zoo network) pair.
/// serve-mixed: 75% warm search_mapping, 5% evaluate_network, 15%
/// evaluate_mapping and 5% search_mapping on a key never seen before.
class Traffic {
 public:
  Traffic(std::uint64_t seed, bool mixed)
      : rng_(seed * 0x9e3779b97f4a7c15ull + 7), mixed_(mixed) {
    const std::size_t n = zoo().keys.size();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(perm_[i], perm_[uniform(i + 1)]);
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);  // Zipf, exponent 1
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  /// evaluate_mapping needs real mappings: the reference answers a few
  /// warm search_mapping requests and their mappings are replayed.
  void add_mapping_probes(serve::EvalService& reference, Result& r) {
    for (int i = 0; i < 32; ++i) {
      const WarmKey& k = zoo().keys[popular()];
      const std::string resp = reference.handle_line(search_line(
          0, arch_json(k.preset), zoo_layer_json(k.network, k.index)));
      std::string err;
      const serve::Json j = serve::Json::parse(resp, &err);
      const serve::Json* result = j.get("result");
      const serve::Json* mapping = result ? result->get("mapping") : nullptr;
      r.check(mapping != nullptr, "warm search_mapping returns a mapping");
      if (!mapping) return;
      probes_.push_back({arch_json(k.preset),
                         zoo_layer_json(k.network, k.index),
                         mapping->dump()});
    }
  }

  std::string next(Kind* kind) {
    const std::uint64_t id = ++id_;
    const double u = unit();
    if (mixed_ && u < 0.05) {
      *kind = Kind::kMiss;
      return search_line(id, arch_json(kPresets[uniform(5)]), unseen_layer());
    }
    if (mixed_ && u < 0.20 && !probes_.empty()) {
      *kind = Kind::kEvalMapping;
      const Probe& p = probes_[uniform(probes_.size())];
      return "{\"id\":" + std::to_string(id) +
             ",\"method\":\"evaluate_mapping\",\"arch\":" + p.arch +
             ",\"layer\":" + p.layer + ",\"mapping\":" + p.mapping + "}";
    }
    if (u < (mixed_ ? 0.25 : 0.10)) {
      *kind = Kind::kNetwork;
      return "{\"id\":" + std::to_string(id) +
             ",\"method\":\"evaluate_network\",\"arch\":" +
             arch_json(kPresets[uniform(5)]) + ",\"network\":\"" +
             kZoo[uniform(std::size(kZoo))] + "\"}";
    }
    *kind = Kind::kHit;
    const WarmKey& k = zoo().keys[popular()];
    return search_line(id, arch_json(k.preset),
                       zoo_layer_json(k.network, k.index));
  }

  std::string ping(Kind* kind) {
    *kind = Kind::kPing;
    return "{\"id\":" + std::to_string(++id_) + ",\"method\":\"ping\"}";
  }

  /// Distinct unseen keys generated so far.
  long long misses() const { return static_cast<long long>(unseen_.size()); }

 private:
  struct Probe {
    std::string arch, layer, mapping;
  };

  double unit() { return (rng_() >> 8) * (1.0 / 16777216.0); }
  std::size_t uniform(std::size_t n) {
    const std::uint64_t hi = rng_(), lo = rng_();
    return static_cast<std::size_t>(((hi << 32) | lo) % n);
  }
  std::size_t popular() {
    const double u = unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank =
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return perm_[rank];
  }
  /// A conv shape that is neither a zoo shape nor one used before, so it
  /// costs exactly one mapping search. The space holds 131072 shapes; a
  /// run uses about a tenth of them.
  std::string unseen_layer() {
    static constexpr int kSpatial[] = {7, 14, 28, 56};
    if (unseen_.size() > 100000)
      throw std::runtime_error("unseen layer shapes exhausted");
    for (;;) {
      nn::Workload l;
      l.kind = nn::LayerKind::kConv;
      l.out_channels = 8 * static_cast<int>(2 + uniform(64));
      l.in_channels = 8 * static_cast<int>(2 + uniform(64));
      l.out_h = kSpatial[uniform(4)];
      l.out_w = kSpatial[uniform(4)];
      l.kernel_h = l.kernel_w = uniform(2) ? 3 : 1;
      const Shape s = shape_of(l);
      if (zoo().shapes.count(s) || !unseen_.insert(s).second) continue;
      return "{\"kind\":\"conv\",\"batch\":1,\"out_channels\":" +
             std::to_string(l.out_channels) +
             ",\"in_channels\":" + std::to_string(l.in_channels) +
             ",\"out_h\":" + std::to_string(l.out_h) +
             ",\"out_w\":" + std::to_string(l.out_w) +
             ",\"kernel_h\":" + std::to_string(l.kernel_h) +
             ",\"kernel_w\":" + std::to_string(l.kernel_w) +
             ",\"stride\":1}";
    }
  }

  core::Rng rng_;
  bool mixed_;
  std::vector<std::size_t> perm_;
  std::vector<double> cdf_;
  std::vector<Probe> probes_;
  std::set<Shape> unseen_;
  std::uint64_t id_ = 0;
};

/// A batch of requests with the reference's answers (as digests).
struct Batch {
  std::vector<std::string> lines;
  std::vector<Kind> kinds;
  std::vector<std::uint64_t> expected;
};

Batch make_batch(Traffic& traffic, serve::EvalService& reference,
                 std::size_t n, bool pings = false) {
  Batch b;
  b.lines.reserve(n);
  b.kinds.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    b.lines.push_back(pings ? traffic.ping(&b.kinds[i])
                            : traffic.next(&b.kinds[i]));
  for (std::size_t i = 0; i < n; i += 1024) {
    const std::vector<std::string> chunk(
        b.lines.begin() + static_cast<long>(i),
        b.lines.begin() + static_cast<long>(std::min(n, i + 1024)));
    for (const std::string& resp : reference.handle_lines(chunk))
      b.expected.push_back(digest(resp));
  }
  return b;
}

/// One serve::Server on its own net thread in front of a line handler.
class Front {
 public:
  Front(serve::LineHandler& handler, Result& r)
      : server_(handler, serve::ServerOptions{}) {
    std::string err;
    ok_ = server_.start(&err);
    r.check(ok_, "server start: " + err);
    if (ok_) thread_ = std::thread([this] { server_.run(); });
  }
  ~Front() { stop(); }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;
  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  int port() const { return server_.port(); }
  /// Stable once stop() has returned.
  const serve::ServerStats& stats() const { return server_.stats(); }

 private:
  serve::Server server_;
  bool ok_ = false;
  std::thread thread_;
};

/// The direct path: an EvalService booted from a store, behind a Server.
struct Direct {
  serve::EvalService service;
  Front front;
  Direct(const std::string& store, Result& r)
      : service(serve_options(store, false)), front(service, r) {}
};

/// The router path: two workers booted from copies of the store, a
/// fleet::Router over them, and a Server in front of the router.
struct Fleet {
  std::vector<std::unique_ptr<Direct>> workers;
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<Front> front;
  Fleet(const WorkDir& dir, const std::string& pristine, Result& r) {
    fleet::RouterOptions ro;
    for (int i = 0; i < 2; ++i) {
      workers.push_back(std::make_unique<Direct>(
          dir.copy(pristine, "worker" + std::to_string(i) + ".bin"), r));
      ro.workers.push_back({"127.0.0.1", workers.back()->front.port()});
    }
    router = std::make_unique<fleet::Router>(std::move(ro));
    front = std::make_unique<Front>(*router, r);
  }
};

/// One load phase as a list of segments run back to back: closed-loop
/// chunks or open-loop segments. Each segment is reduced to a summary as
/// soon as it ends, so the harness holds the same memory however many
/// requests the server completes. The median over segments is reported,
/// so one burst of interference on the host moves one segment, not the
/// result.
struct Phase {
  struct Segment {
    long long requests = 0;
    double elapsed = 0;
    double p50 = 0;
    Tail p99;      ///< over every request
    Tail hit_p99;  ///< over the requests whose key was warm
    Tail lateness;
  };
  std::vector<Segment> segs;
  long long failed = 0;

  void add(const Batch& b, const LoadRun& run) {
    const std::vector<double> all = latencies(run.timings);
    std::vector<double> hits;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (b.kinds[i] == Kind::kHit) hits.push_back(all[i]);
    segs.push_back({static_cast<long long>(all.size()), run.elapsed,
                    median(all), tail(all, 0.99), tail(hits, 0.99),
                    tail(perfbench::lateness(run.timings))});
    failed += run.failed;
  }
  long long requests() const {
    long long n = 0;
    for (const Segment& g : segs) n += g.requests;
    return n;
  }
  double busy() const {
    double t = 0;
    for (const Segment& g : segs) t += g.elapsed;
    return t;
  }
  template <class F>
  double segment_median(F f) const {
    std::vector<double> v;
    for (const Segment& g : segs) v.push_back(f(g));
    return median(v);
  }
  /// Closed-loop throughput: median over chunks of requests per second.
  double qps() const {
    return segment_median([](const Segment& g) {
      return static_cast<double>(g.requests) / g.elapsed;
    });
  }
  double p50() const {
    return segment_median([](const Segment& g) { return g.p50; });
  }
  /// Each segment's p99; false in `*valid` when a segment has too few
  /// requests for a p99 (fewer than 1000).
  std::vector<double> p99s(bool hits_only, bool* valid) const {
    std::vector<double> out;
    for (const Segment& g : segs) {
      const Tail& t = hits_only ? g.hit_p99 : g.p99;
      if (t.p != 0.99) *valid = false;
      out.push_back(t.value);
    }
    return out;
  }
  /// Median over segments of each segment's p99.
  double p99(bool hits_only, bool* valid) const {
    return median(p99s(hits_only, valid));
  }
  double lateness_p99() const {
    return segment_median([](const Segment& g) { return g.lateness.value; });
  }
};

/// Adds closed-loop chunks of 1000 requests to `p` until `budget_s` more
/// seconds of load time have been spent. With `at_ref`, each chunk follows
/// an ipc_probe_s() and its median latency at the reference IPC speed is
/// appended there.
void closed_chunks(Phase& p, LoadGen& gen, Traffic& traffic,
                   serve::EvalService& reference, int conns, double budget_s,
                   std::vector<double>* at_ref = nullptr) {
  const double until = p.busy() + budget_s;
  do {
    const Batch b = make_batch(traffic, reference, 1000);
    const double ipc = at_ref ? ipc_probe_s() : 0;
    p.add(b, gen.closed_loop(b.lines, b.expected, conns));
    if (at_ref) at_ref->push_back(p.segs.back().p50 * kReferenceIpcS / ipc);
  } while (p.busy() < until);
}

/// Adds one open-loop segment at `rate` lasting about `seconds`, with at
/// least 2000 requests so its p99 has ten samples beyond it even when a
/// fifth of them are not hits.
void open_segment(Phase& p, LoadGen& gen, Traffic& traffic,
                  serve::EvalService& reference, double rate, double seconds) {
  const auto n = static_cast<std::size_t>(std::max(2000.0, rate * seconds));
  const Batch b = make_batch(traffic, reference, n);
  p.add(b, gen.open_loop(b.lines, b.expected, rate));
}

void count(Result& r, const Phase& p) {
  r.attempted += p.requests();
  r.failed += p.failed;
  r.check(p.failed == 0, std::to_string(p.failed) +
                             " requests failed or differed from the "
                             "in-process reference");
}

/// Times kBootsPerRound boots of the direct path (store load, EvalService,
/// Server start and the client connections) into `boots`; setup_s is their
/// median. Every round of the workload calls it, so the boots sample the
/// host over the whole run instead of over its first second only.
void measure_boots(const WorkDir& dir, const std::string& pristine,
                   Result& r, std::vector<double>& boots) {
  for (int i = 0; i < kBootsPerRound; ++i) {
    const std::string store = dir.copy(pristine, "boot.bin");
    const auto t0 = Clock::now();
    Direct d(store, r);
    LoadGen gen;
    std::string err;
    r.check(gen.connect(d.front.port(), kConns, &err), "connect: " + err);
    boots.push_back(seconds_between(t0, Clock::now()));
  }
}

/// Mapping searches run by the fleet's workers.
long long worker_searches(const Fleet& fleet) {
  long long n = 0;
  for (const auto& w : fleet.workers)
    n += w->service.evaluator().mapping_searches();
  return n;
}

/// Pins the calling thread to `cpu`, or lets it run anywhere when `cpu` is
/// negative.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  for (int c = 0; c < std::max(1, n); ++c)
    if (cpu < 0 || c == cpu) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The measured part is kRounds rounds; each round times a few boots and
/// runs every phase once (serial, closed loop, open loop, and for serve-hot
/// the same two loops through the router), so a stretch of interference on
/// the host lands on a few segments of every phase instead of on one whole
/// phase. Each round also moves the load generator to the next CPU: where
/// the client thread sits relative to the server's threads changes
/// round-trip times by up to 2x, and rotating makes every run sample every
/// placement. The serial loop (one connection, one request in flight) goes
/// to a server booted in the round while this thread is pinned, so the
/// server's threads and the load generator share that one CPU. Left to the
/// scheduler, its round trip was 22 or 50 us depending on where the
/// server's threads happened to run, and the median jumped between runs.
/// Pinned, it still moved between 22 and 33 us with the host's wake-up
/// cost, so it is reported at the reference IPC speed (ipc_probe_s).
void serve_workload(const Args& a, Result& r, bool mixed) {
  WorkDir dir(a, mixed ? "serve-mixed" : "serve-hot");
  const std::string pristine = build_warm_store(dir, r);
  serve::EvalService reference(serve_options(pristine, true));
  Traffic traffic(a.seed, mixed);
  if (mixed) traffic.add_mapping_probes(reference, r);

  const double rate = mixed ? kMixedRate : kHotRate;
  Direct direct(dir.copy(pristine, "live.bin"), r);
  std::unique_ptr<Fleet> fleet;
  if (!mixed) {
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>(dir, pristine, r);
    r.note("router_setup_s", seconds_between(t0, Clock::now()), "s");
  }

  // One load generator, moved as the round goes on between the round's
  // serial server (one connection), the direct server and the router's
  // front end (four connections each).
  LoadGen gen;
  std::string err;
  const double round_s = a.seconds / kRounds;
  Phase serial, closed, open, rclosed, ropen;
  std::vector<double> boots, serial_at_ref;
  long long searches = 0;
  for (int i = 0; i < kRounds; ++i) {
    // Boots run unpinned: the threads they start inherit this affinity.
    pin_to_cpu(-1);
    measure_boots(dir, pristine, r, boots);
    pin_to_cpu(i % a.threads);
    {
      Direct one(dir.copy(pristine, "serial.bin"), r);
      r.check(gen.connect(one.front.port(), 1, &err), "connect: " + err);
      closed_chunks(serial, gen, traffic, reference, 1, 0.1 * round_s,
                    &serial_at_ref);
      gen.close();
      one.front.stop();
      searches += one.service.evaluator().mapping_searches();
    }
    r.check(gen.connect(direct.front.port(), kConns, &err), "connect: " + err);
    closed_chunks(closed, gen, traffic, reference, kConns,
                  (mixed ? 0.3 : 0.15) * round_s);
    open_segment(open, gen, traffic, reference, rate,
                 (mixed ? 0.5 : 0.35) * round_s);
    if (mixed) continue;
    r.check(gen.connect(fleet->front->port(), kConns, &err),
            "connect: " + err);
    closed_chunks(rclosed, gen, traffic, reference, kConns, 0.1 * round_s);
    open_segment(ropen, gen, traffic, reference, kRouterRate,
                 0.2 * round_s);
  }
  pin_to_cpu(-1);
  gen.close();
  direct.front.stop();
  if (fleet) {
    fleet->front->stop();
    for (auto& w : fleet->workers) w->front.stop();
  }
  searches += direct.service.evaluator().mapping_searches() +
              (fleet ? worker_searches(*fleet) : 0);
  for (const Phase* p : {&serial, &closed, &open, &rclosed, &ropen})
    count(r, *p);
  if (mixed)
    r.check(searches == traffic.misses(),
            "served mapping searches (" + std::to_string(searches) +
                ") equal the distinct unseen keys (" +
                std::to_string(traffic.misses()) + ")");
  else
    r.check(searches == 0, "serve-hot ran " + std::to_string(searches) +
                               " mapping searches; expected 0");

  bool valid = true;
  const double p99 = open.p99(false, &valid);
  r.set("setup_s", median(boots), "s");
  r.set("p50_ms", open.p50() * 1e3, "ms");
  r.set("serial_ms", median(serial_at_ref) * 1e3, "ms");
  r.note("serial_ms_raw", serial.p50() * 1e3, "ms");
  r.note("qps", closed.qps(), "req/s");
  r.note("p50_us", open.p50() * 1e6, "us");
  r.note("p99_us", p99 * 1e6, "us");
  r.note("p99_iqr_ratio", iqr_ratio(open.p99s(false, &valid)), "ratio");
  r.note("open_loop_requests", static_cast<double>(open.requests()), "count");
  r.note("gen.lateness_p99_us", open.lateness_p99() * 1e6, "us");
  if (mixed) {
    r.note("hit_p99_us", open.p99(true, &valid) * 1e6, "us");
    r.note("mapping_searches", static_cast<double>(searches), "count");
  } else {
    r.check(fleet->router->stats().failovers == 0,
            "router failovers must be 0");
    r.note("router_qps", rclosed.qps(), "req/s");
    r.note("router_p99_us", ropen.p99(false, &valid) * 1e6, "us");
  }
  r.check(valid, "every open-loop segment has enough requests for a p99");
}

/// Requests per dispatched batch and the share of lines shed.
void report_server_stats(Result& r, const serve::ServerStats& st) {
  r.set("serve.server.batch_size",
        static_cast<double>(st.requests_admitted) /
            static_cast<double>(std::max(1LL, st.batches_dispatched)),
        "count");
  r.set("serve.server.shed_ratio",
        static_cast<double>(st.requests_shed) /
            static_cast<double>(std::max(1LL, st.lines_received)),
        "ratio");
}

/// An open loop inside one span, with one child span per request from its
/// send to its answer, tagged with the request's position as its id.
LoadRun traced_open_loop(Recorder& rec, LoadGen& gen, const Batch& b,
                         double rate) {
  Scope s(rec, "serve.open_loop");
  const double base = rec.now();
  LoadRun run = gen.open_loop(b.lines, b.expected, rate);
  for (std::size_t i = 0; i < run.timings.size(); ++i)
    rec.add("net.request", base + run.timings[i].sent,
            base + run.timings[i].done, i + 1);
  return run;
}

}  // namespace

void run_serve_hot(const Args& a, Result& r) { serve_workload(a, r, false); }
void run_serve_mixed(const Args& a, Result& r) { serve_workload(a, r, true); }

void trace_serve_hot(const Args& a, Result& r, Recorder& rec) {
  Scope whole(rec, "workload.serve-hot");
  const std::size_t from = rec.mark();
  WorkDir dir(a, "trace-hot");
  const std::string pristine = build_warm_store(dir, r);
  for (int i = 0; i < 5; ++i) {
    Scope s(rec, "search.result_store.load");
    (void)search::ResultStore::load(pristine);
  }
  r.set("search.result_store.load_ms",
        median(rec.durations("search.result_store.load", from)) * 1e3, "ms");

  serve::EvalService reference(serve_options(pristine, true));
  Traffic traffic(a.seed, false);
  const Batch b = make_batch(traffic, reference, 4000);

  for (const std::string& line : b.lines) {
    std::string err;
    serve::Json j;
    {
      Scope s(rec, "serve.json.parse");
      j = serve::Json::parse(line, &err);
    }
    Scope s(rec, "serve.json.dump");
    (void)j.dump();
  }
  r.set("serve.json.parse_us", rec.mean("serve.json.parse", from) * 1e6, "us");
  r.set("serve.json.dump_us", rec.mean("serve.json.dump", from) * 1e6, "us");

  {
    serve::EvalService svc(serve_options(pristine, true));
    long long wrong = 0;
    for (std::size_t i = 0; i < b.lines.size(); ++i) {
      Scope s(rec, "serve.service.handle", i + 1);
      wrong += digest(svc.handle_lines({b.lines[i]})[0]) != b.expected[i];
    }
    r.check(wrong == 0, "in-process answers equal the reference");
    r.set("serve.service.handle_us",
          rec.mean("serve.service.handle", from) * 1e6, "us");
    r.set("search.eval_cache.hit_ratio",
          1.0 - static_cast<double>(svc.evaluator().mapping_searches()) /
                    static_cast<double>(svc.stats().queries),
          "ratio");
  }

  {
    Direct d(dir.copy(pristine, "live.bin"), r);
    LoadGen gen;
    std::string err;
    r.check(gen.connect(d.front.port(), kConns, &err), "connect: " + err);
    Phase p;
    p.add(b, gen.closed_loop(b.lines, b.expected, kConns));
    const Batch pings = make_batch(traffic, reference, 1000, true);
    const LoadRun ping = gen.closed_loop(pings.lines, pings.expected, 1);
    p.add(pings, ping);
    r.set("net.ping_rtt_us", median(latencies(ping.timings)) * 1e6, "us");
    const Batch ob = make_batch(traffic, reference, 4000);
    const LoadRun open = traced_open_loop(rec, gen, ob, kHotRate);
    p.add(ob, open);
    r.set("gen.lateness_p99_us", tail(lateness(open.timings)).value * 1e6,
          "us");
    gen.close();
    d.front.stop();
    count(r, p);
    r.check(d.service.evaluator().mapping_searches() == 0,
            "traced serve-hot ran mapping searches; expected 0");
    report_server_stats(r, d.front.stats());
  }

  {
    Fleet fleet(dir, pristine, r);
    LoadGen gen;
    std::string err;
    r.check(gen.connect(fleet.front->port(), kConns, &err), "connect: " + err);
    Phase closed, open;
    closed.add(b, gen.closed_loop(b.lines, b.expected, kConns));
    const Batch ob = make_batch(traffic, reference, 4000);
    open.add(ob, gen.open_loop(ob.lines, ob.expected, kRouterRate));
    gen.close();
    fleet.front->stop();
    count(r, closed);
    count(r, open);
    bool valid = true;
    r.set("fleet.router.qps",
          static_cast<double>(closed.requests()) / closed.busy(), "1/s");
    r.set("fleet.router.p99_us", open.p99(false, &valid) * 1e6, "us");
    r.check(valid, "the router's open loop has enough requests for a p99");
    const fleet::RouterStats rs = fleet.router->stats();
    r.set("fleet.router.groups_per_batch",
          static_cast<double>(rs.groups_forwarded) /
              static_cast<double>(std::max(1LL, rs.batches)),
          "count");
    r.set("fleet.router.failovers", static_cast<double>(rs.failovers),
          "count");
    r.check(rs.failovers == 0, "router failovers must be 0");
    double most = 0, total = 0;
    for (const auto& w : fleet.workers) {
      const double q = static_cast<double>(w->service.stats().queries);
      most = std::max(most, q);
      total += q;
    }
    r.set("fleet.shard_skew",
          total > 0 ? most / (total / static_cast<double>(fleet.workers.size()))
                    : 0.0,
          "ratio");

    // The router's own cost per request, called in process over the same
    // (still running) workers.
    fleet::RouterOptions ro;
    for (const auto& w : fleet.workers)
      ro.workers.push_back({"127.0.0.1", w->front.port()});
    fleet::Router router(std::move(ro));
    long long wrong = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
      Scope s(rec, "fleet.router.handle", i + 1);
      wrong += digest(router.handle_lines({b.lines[i]})[0]) != b.expected[i];
    }
    r.check(wrong == 0, "in-process router answers equal the reference");
    r.set("fleet.router.handle_us",
          rec.mean("fleet.router.handle", from) * 1e6, "us");
    for (auto& w : fleet.workers) w->front.stop();
    const long long searches = worker_searches(fleet);
    r.check(searches == 0, "fleet workers ran " + std::to_string(searches) +
                               " mapping searches; expected 0");
  }

  const fleet::HashRing ring(2, 64);
  std::vector<std::uint64_t> keys;
  for (const std::string& line : b.lines) keys.push_back(digest(line));
  std::size_t highest = 0;
  constexpr int kRounds = 50;
  {
    Scope s(rec, "fleet.hash_ring.owner_loop");
    for (int round = 0; round < kRounds; ++round)
      for (std::uint64_t k : keys)
        highest = std::max(highest, ring.owner(k + round));
  }
  r.set("fleet.hash_ring.owner_ns",
        rec.total("fleet.hash_ring.owner_loop", from) * 1e9 /
            static_cast<double>(kRounds * keys.size()),
        "ns");
  r.check(highest < ring.num_workers(), "hash ring owners are in range");
  r.attempted += static_cast<long long>(b.lines.size());
}

void trace_serve_mixed(const Args& a, Result& r, Recorder& rec) {
  Scope whole(rec, "workload.serve-mixed");
  const std::size_t from = rec.mark();
  WorkDir dir(a, "trace-mixed");
  const std::string pristine = build_warm_store(dir, r);
  serve::EvalService reference(serve_options(pristine, true));
  Traffic traffic(a.seed, true);
  traffic.add_mapping_probes(reference, r);
  const Batch b = make_batch(traffic, reference, 3000);

  {
    serve::EvalService svc(
        serve_options(dir.copy(pristine, "inproc.bin"), false));
    long long wrong = 0;
    for (std::size_t i = 0; i < b.lines.size(); ++i) {
      static constexpr const char* kNames[] = {
          "serve.service.hit", "serve.service.network", "serve.service.miss",
          "serve.service.evaluate_mapping", "serve.service.ping"};
      {
        Scope s(rec, kNames[static_cast<int>(b.kinds[i])], i + 1);
        wrong += digest(svc.handle_lines({b.lines[i]})[0]) != b.expected[i];
      }
      if ((i + 1) % 64 == 0) {
        Scope s(rec, "search.result_store.refresh");
        r.check(svc.refresh() == search::StoreStatus::kOk, "store refresh");
      }
    }
    r.check(wrong == 0, "in-process answers equal the reference");
    double handled = 0;
    for (const char* n : {"serve.service.hit", "serve.service.network",
                          "serve.service.miss",
                          "serve.service.evaluate_mapping"})
      handled += rec.total(n, from);
    r.set("serve.service.handle_us",
          handled * 1e6 / static_cast<double>(b.lines.size()), "us");
    r.set("serve.service.miss_ms", rec.mean("serve.service.miss", from) * 1e3,
          "ms");
    r.set("serve.service.evaluate_mapping_us",
          rec.mean("serve.service.evaluate_mapping", from) * 1e6, "us");
    const double ratio =
        static_cast<double>(svc.evaluator().mapping_searches()) /
        static_cast<double>(svc.stats().queries);
    r.set("serve.service.miss_ratio", ratio, "ratio");
    r.set("search.eval_cache.hit_ratio", 1.0 - ratio, "ratio");
    r.set("search.result_store.refresh_ms",
          rec.mean("search.result_store.refresh", from) * 1e3, "ms");
    r.set("core.task_graph.idle_fraction",
          svc.evaluator().scheduler_stats().idle_fraction(), "ratio");
  }

  Direct d(dir.copy(pristine, "live.bin"), r);
  LoadGen gen;
  std::string err;
  r.check(gen.connect(d.front.port(), kConns, &err), "connect: " + err);
  Phase closed, open;
  closed.add(b, gen.closed_loop(b.lines, b.expected, kConns));
  const Batch ob = make_batch(traffic, reference, 3000);
  open.add(ob, traced_open_loop(rec, gen, ob, kMixedRate));
  gen.close();
  d.front.stop();
  count(r, closed);
  count(r, open);
  bool valid = true;
  r.set("serve.hit_p99_us", open.p99(true, &valid) * 1e6, "us");
  r.check(valid, "the open loop has enough warm hits for a p99");
  r.set("gen.lateness_p99_us", open.lateness_p99() * 1e6, "us");
  report_server_stats(r, d.front.stats());
}

}  // namespace perfbench
