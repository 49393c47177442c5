#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "search/accelerator_search.hpp"
#include "serve/json.hpp"
#include "serve/line_handler.hpp"
#include "serve/protocol.hpp"

namespace naas::serve {

/// Configuration of a long-lived evaluator service.
struct ServeOptions {
  /// Inner mapping-search budget. Part of every cache key (the options
  /// fingerprint), so two processes share a store only when their budgets
  /// match; a mismatched store simply never hits.
  search::MappingSearchOptions mapping;
  /// Evaluation threads: 0 => ThreadPool::default_num_threads(), 1 =>
  /// serial. Responses are bit-identical for every value.
  int num_threads = 0;
  /// Persistent result store (empty = fully in-memory). Loaded at boot;
  /// refresh() appends new entries incrementally and adopts other
  /// processes' appends.
  std::string store_path;
  /// Load the store but never write it back.
  bool store_readonly = false;
};

/// Serving-layer counters (distinct from the evaluator's own work meters,
/// which cache_stats also reports).
struct ServiceStats {
  long long queries = 0;           ///< requests handled (incl. errors)
  long long batches = 0;           ///< handle_batch calls (handle() == 1)
  long long errors = 0;            ///< error responses produced
  long long store_appends = 0;     ///< refresh() flushes that wrote a segment
  long long store_entries_appended = 0;
  long long store_reloads = 0;     ///< refresh() adoptions of external writes
  long long store_entries_reloaded = 0;
  long long store_rewrites = 0;    ///< full-save heals of a rejected store
  long long store_refresh_retries = 0;  ///< transient-failure retry attempts
  /// Total milliseconds refresh() slept in retry backoff. The backoff is
  /// jittered (see refresh()), so N workers sharing one store that all hit
  /// the same transient failure spread their retries instead of stampeding
  /// the file together; this meter is what makes that time visible.
  long long store_refresh_backoff_ms = 0;
};

/// Long-lived evaluator service: one warm ArchEvaluator (thread pool +
/// sharded EvalCache, preloaded from the persistent store) answering
/// structured cost queries. This is the ROADMAP's serve-style API: the
/// search library re-packaged as a query server whose marginal cost per
/// repeated query is a cache lookup.
///
/// Batching: handle_batch collapses all (arch, layer) mapping-search work
/// units across the batch — including the unique-layer expansion of
/// evaluate_network requests — into one deduplicated chain set on a
/// task graph (search::EvalPipeline), so concurrent searches interleave
/// at CMA-shard granularity, then assembles responses per request in
/// order. Because mapping search is deterministic per key, batched
/// responses are bit-identical to submitting the same requests one at a
/// time.
///
/// Store refresh: refresh() appends entries computed since the last mark
/// (ResultStore::append — cost proportional to new work, not store size),
/// then compares the file size against what this process last observed and
/// reloads when another process appended in between. Two services sharing
/// one store path converge on each other's results without either ever
/// rewriting the whole file.
///
/// Threading contract: handle/handle_batch/refresh are *not* reentrant —
/// drive the service from one front-end thread (concurrency lives inside
/// the batch fan-out). All responses are pure functions of (request,
/// options) except cache_stats/refresh, which report live counters.
class EvalService : public LineHandler {
 public:
  explicit EvalService(const ServeOptions& options);
  /// Final incremental flush (unless readonly / no store).
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Handles one parsed request; equivalent to a batch of one.
  Json handle(const Json& request);

  /// Handles a batch: dedup + fan-out, then per-request assembly in input
  /// order. Responses match one-at-a-time submission bit for bit.
  std::vector<Json> handle_batch(const std::vector<Json>& requests);

  /// Line front-ends: parse -> handle -> dump. A line that fails to parse
  /// yields a parse_error response in its slot; nothing throws.
  std::string handle_line(const std::string& line);
  std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) override;

  /// Incremental store refresh (no-op without a store): append-only flush
  /// of entries new since the last refresh, then reload-on-change for
  /// appends made by other processes. A store that was rejected as
  /// damaged (bad magic / version / corrupt) is *healed* instead: the
  /// next refresh rewrites it atomically from the full cache, restoring
  /// warm-start for future processes rather than appending to a dead
  /// file forever. Transient failures (kIoError — a full disk, an
  /// injected write fault) are retried in place with bounded exponential
  /// backoff (metered as store_refresh_retries) before the remaining
  /// entries are left for the next refresh. Returns the first non-kOk
  /// status of the last attempt (the service keeps running
  /// cold-for-the-miss either way).
  search::StoreStatus refresh() override;

  /// Adopts mapping-search results computed by a *peer* process (the
  /// pull half of fleet replication — see fleet::Replicator). Existing
  /// keys win, exactly like a store preload, and adopted entries count as
  /// store_entries_loaded, not as work this process performed. They enter
  /// the cache with fresh sequence numbers, so the next refresh() appends
  /// them to this process's own store: replication is durable, and a
  /// SIGKILLed worker restarts warm even before its first peer pull.
  /// Returns how many entries were actually new. Call from the serving
  /// thread only (same no-reentrancy contract as handle_batch).
  std::size_t adopt_entries(search::StoreEntries entries);

  /// Front-end notification hooks: requests rejected *before* evaluation
  /// (admission-queue shed, expired deadline, protocol-limit reject) never
  /// pass through handle_batch, but cache_stats must still report them.
  /// Thread-safe — the TCP front end sheds on its net thread while the
  /// eval thread serves.
  void note_shed() override { requests_shed_.fetch_add(1); }
  void note_timeout() override { requests_timed_out_.fetch_add(1); }
  void note_protocol_reject() override { protocol_rejects_.fetch_add(1); }
  long long requests_shed() const { return requests_shed_.load(); }
  long long requests_timed_out() const { return requests_timed_out_.load(); }
  long long protocol_rejects() const { return protocol_rejects_.load(); }

  const search::ArchEvaluator& evaluator() const { return evaluator_; }
  const ServiceStats& stats() const { return stats_; }
  const ServeOptions& options() const { return options_; }

 private:
  /// A request resolved to domain objects (or to an error), ready for the
  /// dedup/fan-out/assemble pipeline.
  struct Plan {
    Json id;
    std::string method;
    std::string error_code;  ///< nonempty => error response
    std::string error;
    arch::ArchConfig arch;
    nn::Workload layer;
    bool has_task = false;  ///< contributes (arch, layer) search tasks
    const nn::Network* network = nullptr;  ///< owned by network_memo_
    mapping::Mapping map;
  };

  Plan plan_request(const Json& request);
  Json finish(const Plan& plan);
  Json cache_stats_json() const;
  /// Memoized model-zoo lookup: a hot query loop must not rebuild ResNet50
  /// per request. Returned pointers stay valid for the service's lifetime
  /// (node-based map).
  const nn::Network* resolve_network(const std::string& name,
                                     std::string* err);
  static long long file_size(const std::string& path);

  ServeOptions options_;
  cost::CostModel model_;
  core::ThreadPool pool_;
  search::ArchEvaluator evaluator_;
  /// Cache-sequence mark of the last flush: snapshot_since(flush_mark_) is
  /// exactly the entries the store has not seen from us yet.
  std::uint64_t flush_mark_ = 0;
  /// Store file size after our last load/append; growth beyond what we
  /// wrote means another process appended -> reload.
  long long known_store_size_ = -1;
  /// Non-kOk while the store file is damaged (rejected at boot or on a
  /// reload): appending to it is pointless, so the next refresh heals by
  /// rewriting (or, readonly, keeps watching for another process's heal).
  search::StoreStatus rejected_status_ = search::StoreStatus::kOk;
  bool store_rejected() const {
    return rejected_status_ != search::StoreStatus::kOk;
  }
  search::StoreStatus heal_store();
  /// One append-then-reload refresh pass (refresh() adds the retry loop).
  search::StoreStatus refresh_once();
  std::unordered_map<std::string, nn::Network> network_memo_;
  /// Deterministic per-service stream for the jittered refresh backoff
  /// (seeded from the store path + mapping seed, so a fleet of workers
  /// sharing one store draws *different* jitter). Timing-only state:
  /// responses never depend on it.
  std::uint64_t backoff_jitter_state_ = 0;
  std::atomic<long long> requests_shed_{0};
  std::atomic<long long> requests_timed_out_{0};
  std::atomic<long long> protocol_rejects_{0};
  /// Serialized search_mapping result payloads by work-unit key. Results
  /// are deterministic and immutable per key (store reloads never change
  /// an answer), so the memo needs no invalidation; it turns a warm query
  /// into an envelope splice instead of a tree rebuild + re-serialization.
  /// Bounded: at kMaxPayloadMemoEntries it is flushed and rebuilt from
  /// the (re-serializable) cache on demand, so an adversarial stream of
  /// unique layer shapes costs recomputed text, not unbounded memory.
  /// Touched only from the serial assembly phase — no lock.
  static constexpr std::size_t kMaxPayloadMemoEntries = 1 << 17;
  std::unordered_map<std::uint64_t, std::string> payload_memo_;
  ServiceStats stats_;
};

}  // namespace naas::serve
