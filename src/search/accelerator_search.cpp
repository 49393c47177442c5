#include "search/accelerator_search.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/serialize.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"
#include "search/eval_pipeline.hpp"

namespace naas::search {
namespace {

using core::hash_mix;

/// Fingerprint of everything about MappingSearchOptions that changes what
/// search_mapping returns. Mixed into every cache key so two evaluators
/// with different budgets (or a copied evaluator whose options were edited)
/// can never share stale entries.
std::uint64_t options_fingerprint(const MappingSearchOptions& o) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  h = hash_mix(h, static_cast<std::uint64_t>(o.population));
  h = hash_mix(h, static_cast<std::uint64_t>(o.iterations));
  h = hash_mix(h, o.seed);
  h = hash_mix(h, o.seed_canonical ? 1 : 0);
  h = hash_mix(h, static_cast<std::uint64_t>(o.encoding.order_encoding));
  h = hash_mix(h, o.encoding.search_order ? 1 : 0);
  h = hash_mix(h, static_cast<std::uint64_t>(o.encoding.fixed_dataflow));
  h = hash_mix(h, o.encoding.grow_tiles ? 1 : 0);
  return h;
}

}  // namespace

ArchEvaluator::ArchEvaluator(const cost::CostModel& model,
                             MappingSearchOptions mapping,
                             core::ThreadPool* pool)
    : model_(model),
      mapping_(std::move(mapping)),
      options_fingerprint_(options_fingerprint(mapping_)),
      pool_(pool) {}

StoreStatus ArchEvaluator::load_store(const std::string& path) {
  StoreLoadResult loaded = ResultStore::load(path);
  // A damaged store still yields its checksum-validated prefix; adopting
  // it keeps crash-torn appends cheap (the caller sees the non-kOk status
  // and heals the file separately).
  store_entries_loaded_ += cache_.preload(std::move(loaded.entries));
  return loaded.status;
}

StoreStatus ArchEvaluator::save_store(const std::string& path) const {
  return ResultStore::save(path, cache_.snapshot());
}

std::size_t ArchEvaluator::adopt_entries(StoreEntries entries) {
  const std::size_t inserted = cache_.preload(std::move(entries));
  store_entries_loaded_ += inserted;
  return inserted;
}

std::uint64_t ArchEvaluator::cache_key(const arch::ArchConfig& arch,
                                       const nn::Workload& layer) const {
  const std::uint64_t a = arch_fingerprint(arch);
  const std::uint64_t l = nn::LayerShapeHash{}(layer);
  return hash_mix(hash_mix(options_fingerprint_, a), l);
}

const MappingSearchResult* ArchEvaluator::find_cached(
    const arch::ArchConfig& arch, const nn::Workload& layer) const {
  return cache_.find(cache_key(arch, layer));
}

MappingSearchOptions ArchEvaluator::layer_options(
    const nn::Workload& layer) const {
  MappingSearchOptions opts = mapping_;
  // Layer-dependent seed keeps runs deterministic while decorrelating
  // searches across layers. Crucially the seed does NOT depend on
  // evaluation/request order, so concurrent cache fills are reproducible.
  opts.seed = mapping_.seed ^ nn::LayerShapeHash{}(layer);
  return opts;
}

void ArchEvaluator::record_real_publish(const MappingSearchResult& entry) {
  cost_evaluations_.fetch_add(entry.evaluations);
  mapping_searches_.fetch_add(1);
  generations_batched_.fetch_add(entry.generations_batched);
  candidates_batch_evaluated_.fetch_add(entry.candidates_batch_evaluated);
}

void ArchEvaluator::absorb_scheduler_stats(
    const core::TaskGraph::Stats& delta) {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  sched_stats_.tasks_executed += delta.tasks_executed;
  sched_stats_.tasks_skipped += delta.tasks_skipped;
  sched_stats_.busy_seconds += delta.busy_seconds;
  sched_stats_.wall_seconds += delta.wall_seconds;
  sched_stats_.workers = std::max(sched_stats_.workers, delta.workers);
}

long long ArchEvaluator::tasks_executed() const {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  return sched_stats_.tasks_executed;
}

core::TaskGraph::Stats ArchEvaluator::scheduler_stats() const {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  return sched_stats_;
}

const MappingSearchResult& ArchEvaluator::best_mapping(
    const arch::ArchConfig& arch, const nn::Workload& layer) {
  const std::uint64_t key = cache_key(arch, layer);
  if (const MappingSearchResult* hit = cache_.find(key)) return *hit;

  core::TaskGraph graph(pool_);
  MappingSearchResult res;
  submit_mapping_search(graph, model_, arch, layer, layer_options(layer),
                        &res);
  graph.run();
  absorb_scheduler_stats(graph.stats());

  bool inserted = false;
  const MappingSearchResult& entry = cache_.publish(key, std::move(res),
                                                    &inserted);
  if (inserted) {
    // Count only the published search: if another thread computed the same
    // key concurrently, one duplicate is discarded and the statistics stay
    // identical to the serial run.
    record_real_publish(entry);
  }
  return entry;
}

cost::NetworkCost ArchEvaluator::assemble_network(const arch::ArchConfig& arch,
                                                  const nn::Network& net) {
  // Pure assembly from the memoized mapping-search reports: no
  // re-evaluation of the cost model per unique layer (the search already
  // kept the winning candidate's full report).
  return cost::evaluate_network_reports(
      arch, net,
      [this](const arch::ArchConfig& a, const nn::Workload& l) {
        const MappingSearchResult* r = find_cached(a, l);
        if (r == nullptr) r = &best_mapping(a, l);  // unreachable when piped
        if (!std::isfinite(r->best_edp)) {
          cost::CostReport rep;
          rep.legal = false;
          rep.illegal_reason = "mapping search found no legal mapping";
          return rep;
        }
        return r->report;
      });
}

double ArchEvaluator::assembled_geomean(
    const arch::ArchConfig& arch, const std::vector<nn::Network>& benchmarks) {
  std::vector<double> edps;
  edps.reserve(benchmarks.size());
  for (const auto& net : benchmarks) {
    const auto nc = assemble_network(arch, net);
    if (!nc.legal) return std::numeric_limits<double>::infinity();
    edps.push_back(nc.edp);
  }
  return core::geomean(edps);
}

cost::NetworkCost ArchEvaluator::evaluate(const arch::ArchConfig& arch,
                                          const nn::Network& net) {
  {
    // Fill phase: one chain per unique layer shape not yet resident, all
    // interleaving on one graph. Skipped entirely on a fully warm cache.
    EvalPipeline pipeline(*this);
    std::vector<core::TaskGraph::TaskId> deps;
    pipeline.request_network(arch, net, &deps);
    if (!deps.empty()) pipeline.run();
  }
  return assemble_network(arch, net);
}

double ArchEvaluator::geomean_edp(const arch::ArchConfig& arch,
                                  const std::vector<nn::Network>& benchmarks) {
  // The one-candidate case of evaluate_population: every benchmark's layer
  // chains fill on one graph (no per-network quiesce barrier).
  return evaluate_population(std::span<const arch::ArchConfig>(&arch, 1),
                             benchmarks)
      .front();
}

std::vector<double> ArchEvaluator::evaluate_population(
    std::span<const arch::ArchConfig> archs,
    const std::vector<nn::Network>& benchmarks) {
  std::vector<double> edps(archs.size(),
                           std::numeric_limits<double>::infinity());
  if (archs.empty()) return edps;
  // One graph: every candidate's unique (arch, layer) chains — deduplicated
  // across the whole population — plus a per-candidate assembly task that
  // becomes ready the moment exactly its own layers are resident. A slow
  // layer of candidate 3 no longer stalls the scoring of candidate 7.
  EvalPipeline pipeline(*this);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    const auto deps = pipeline.request_benchmarks(archs[i], benchmarks);
    pipeline.graph().submit(
        [this, archs, &benchmarks, &edps, i] {
          edps[i] = assembled_geomean(archs[i], benchmarks);
        },
        deps);
  }
  pipeline.run();
  return edps;
}

long long warm_start_from_store(ArchEvaluator& evaluator,
                                const std::string& path) {
  if (path.empty()) return 0;
  const std::size_t before = evaluator.store_entries_loaded();
  warn_store_rejected(path, evaluator.load_store(path));
  return static_cast<long long>(evaluator.store_entries_loaded() - before);
}

void flush_to_store(const ArchEvaluator& evaluator, const std::string& path,
                    bool readonly) {
  if (path.empty() || readonly) return;
  warn_store_write_failed(path, evaluator.save_store(path));
}

NaasResult run_naas(const cost::CostModel& model, const NaasOptions& options,
                    const std::vector<nn::Network>& benchmarks) {
  if (benchmarks.empty())
    throw std::invalid_argument("run_naas: no benchmark networks");

  core::Timer timer;
  NaasResult result;
  result.best_geomean_edp = std::numeric_limits<double>::infinity();

  const HwEncodingSpec hw = make_hw_spec(
      options.resources, options.hw_encoding, options.search_connectivity);

  core::ThreadPool pool(options.num_threads);
  ArchEvaluator evaluator(model, options.mapping, &pool);
  result.store_entries_loaded =
      warm_start_from_store(evaluator, options.cache_path);

  CmaEsOptions cma_opts;
  cma_opts.dim = hw.genome_size();
  cma_opts.population = options.population;
  cma_opts.seed = options.seed;
  CmaEs cma(cma_opts);

  const auto is_valid = [&hw](const std::vector<double>& genome) {
    return hw.valid(genome);
  };

  // The whole evolution — seed scoring and every generation — lives on ONE
  // task graph. Candidates report fitness through CmaEs::tell_partial as
  // they finish; the report that completes a generation schedules the next
  // one from inside its own task, so there is no join anywhere between the
  // start of the search and quiescence.
  EvalPipeline pipeline(evaluator);
  core::TaskGraph& graph = pipeline.graph();
  const core::TaskGraph::TaskId evolution_done = graph.make_promise();

  /// Cross-task state of the outer evolution. `mutex` serializes fitness
  /// reporting (tell_partial) and the generation bookkeeping; per-slot
  /// writes are distinct, so the lock guards the optimizer, not the data.
  struct Outer {
    std::mutex mutex;
    std::vector<arch::ArchConfig> configs;  ///< current generation decodes
    std::vector<double> edps;               ///< per-genome fitness slots
    int iter = 0;
  } outer;

  std::function<void()> start_generation;  // assigned below; tasks recurse

  // Runs under outer.mutex, from the tell_partial call that filled the
  // generation's last slot: fold the generation into the running best (in
  // genome order, matching the barrier engine's tie-breaking exactly),
  // record the convergence statistics, and schedule the next generation.
  const auto generation_complete = [&] {
    std::vector<double> finite_edps;
    for (std::size_t k = 0; k < outer.edps.size(); ++k) {
      const double edp = outer.edps[k];
      if (std::isfinite(edp)) {
        finite_edps.push_back(edp);
        if (edp < result.best_geomean_edp) {
          result.best_geomean_edp = edp;
          result.best_arch = outer.configs[k];
        }
      }
    }
    result.population_mean_edp.push_back(core::mean(finite_edps));
    result.population_best_edp.push_back(
        finite_edps.empty()
            ? std::numeric_limits<double>::infinity()
            : *std::min_element(finite_edps.begin(), finite_edps.end()));
    ++outer.iter;
    if (outer.iter < options.iterations) {
      start_generation();
    } else {
      graph.fulfill(evolution_done);
    }
  };

  // Fitness report for genome `k`; the completing report runs the
  // generation bookkeeping inline (continuation style, no join).
  const auto report_locked = [&](std::size_t k, double edp) {
    outer.edps[k] = edp;
    if (cma.tell_partial(k, edp)) generation_complete();
  };
  const auto report = [&](std::size_t k, double edp) {
    std::lock_guard<std::mutex> lk(outer.mutex);
    report_locked(k, edp);
  };

  // Samples a generation, submits one assembly task per feasible genome
  // (gated on exactly its layer chains), and reports infeasible genomes
  // immediately. Called with outer.mutex held.
  start_generation = [&] {
    const auto& population = cma.begin_generation(is_valid);
    const std::size_t lambda = population.size();
    outer.configs.assign(lambda, arch::ArchConfig{});
    outer.edps.assign(lambda, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> infeasible;
    for (std::size_t k = 0; k < lambda; ++k) {
      outer.configs[k] = hw.decode(population[k]);
      if (!options.resources.allows(outer.configs[k])) {
        infeasible.push_back(k);
        continue;
      }
      const auto deps =
          pipeline.request_benchmarks(outer.configs[k], benchmarks);
      graph.submit(
          [&outer, &evaluator, &benchmarks, &report, k] {
            // Pure assembly: this task is gated on exactly its layer
            // chains, so every key is resident — no pipeline needed.
            report(k,
                   evaluator.assembled_geomean(outer.configs[k], benchmarks));
          },
          deps);
    }
    // Infeasible genomes cost nothing to score; reporting them last keeps
    // a generation with no feasible candidate correct (the final report
    // completes the generation and recurses into the next one right here).
    for (const std::size_t k : infeasible)
      report_locked(k, std::numeric_limits<double>::infinity());
  };

  // Warm start: evaluate the seed designs (reference baseline + any user
  // seeds) so the returned best is never worse than the known design run
  // with NAAS's mapping search. The seeds score as ordinary tasks on the
  // same graph; their completion starts generation 0.
  std::vector<arch::ArchConfig> eligible;
  {
    std::vector<arch::ArchConfig> seeds = options.seed_designs;
    if (options.seed_baseline) {
      try {
        seeds.push_back(arch::baseline_for(options.resources));
      } catch (const std::invalid_argument&) {
        // Custom envelope without a published baseline: nothing to seed.
      }
    }
    for (auto& seed : seeds) {
      if (!options.search_connectivity &&
          !(seed.num_array_dims == 2 &&
            seed.parallel_dims[0] == hw.fixed_parallel_dims[0] &&
            seed.parallel_dims[1] == hw.fixed_parallel_dims[1])) {
        continue;  // sizing-only arm may not adopt foreign connectivity
      }
      if (!options.resources.allows(seed)) continue;
      eligible.push_back(std::move(seed));
    }
  }
  std::vector<double> seed_edps(eligible.size(),
                                std::numeric_limits<double>::infinity());
  std::vector<core::TaskGraph::TaskId> seed_tasks;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    const auto deps = pipeline.request_benchmarks(eligible[i], benchmarks);
    seed_tasks.push_back(graph.submit(
        [&evaluator, &eligible, &benchmarks, &seed_edps, i] {
          seed_edps[i] = evaluator.assembled_geomean(eligible[i], benchmarks);
        },
        deps));
  }
  graph.submit(
      [&] {
        std::lock_guard<std::mutex> lk(outer.mutex);
        for (std::size_t i = 0; i < eligible.size(); ++i) {
          if (std::isfinite(seed_edps[i]) &&
              seed_edps[i] < result.best_geomean_edp) {
            result.best_geomean_edp = seed_edps[i];
            result.best_arch = eligible[i];
          }
        }
        if (options.iterations > 0) {
          start_generation();
        } else {
          graph.fulfill(evolution_done);
        }
      },
      seed_tasks);

  pipeline.run();  // drives the whole evolution; folds scheduler meters

  if (std::isfinite(result.best_geomean_edp)) {
    for (const auto& net : benchmarks)
      result.best_networks.push_back(
          evaluator.evaluate(result.best_arch, net));
  }
  flush_to_store(evaluator, options.cache_path, options.cache_readonly);
  result.cost_evaluations = evaluator.cost_evaluations();
  result.mapping_searches = evaluator.mapping_searches();
  result.generations_batched = evaluator.generations_batched();
  result.candidates_batch_evaluated = evaluator.candidates_batch_evaluated();
  result.tasks_executed = evaluator.tasks_executed();
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace naas::search
