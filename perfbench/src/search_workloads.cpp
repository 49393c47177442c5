// The search and cosearch workloads and their traced replays.
//
// search:   search::run_naas on {squeezenet, mobilenetv2} in the nvdla256
//           envelope, hw budget 10x8, mapping budget 8x5, default options.
// cosearch: nas::run_cosearch in the eyeriss envelope, hw 8x4, subnet 8x4,
//           mapping 8x5, minimum predicted accuracy 76.0.
// The workload seed is the search seed; it is the only input that varies.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "arch/resources.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "core/task_graph.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "nas/nas_search.hpp"
#include "nn/accuracy_model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ofa_space.hpp"
#include "search/accelerator_search.hpp"
#include "search/cma_es.hpp"
#include "search/encoding.hpp"
#include "search/mapping_search.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace naas;

namespace {

/// Set-ups timed before each pair of searches (see measure_searches).
constexpr int kSetupsPerPair = 12;

/// best_edp of the default seed (1) and of the held-out seed (7), recorded
/// when the benchmark was defined. Other seeds are checked for bit-identity
/// across thread counts only.
struct RecordedEdp {
  std::uint64_t seed;
  double search;
  double cosearch;
};
constexpr RecordedEdp kRecordedEdp[] = {
    {1, 22982014835139.066, 156902805706576.78},
    {7, 20678338896417.336, 103812649342223.8},
};

std::optional<double> recorded_edp(std::uint64_t seed, bool cosearch) {
  for (const RecordedEdp& e : kRecordedEdp)
    if (e.seed == seed) return cosearch ? e.cosearch : e.search;
  return std::nullopt;
}

search::MappingSearchOptions mapping_budget(std::uint64_t seed) {
  search::MappingSearchOptions m;
  m.population = 8;
  m.iterations = 5;
  m.seed = seed;
  return m;
}

std::vector<nn::Network> search_networks() {
  return {nn::make_squeezenet(), nn::make_mobilenet_v2()};
}

search::NaasOptions naas_options(std::uint64_t seed, int threads) {
  search::NaasOptions o;
  o.resources = arch::nvdla_256_resources();
  o.population = 10;
  o.iterations = 8;
  o.seed = seed;
  o.mapping = mapping_budget(seed);
  o.num_threads = threads;
  return o;
}

nas::CoSearchOptions cosearch_options(std::uint64_t seed, int threads) {
  nas::CoSearchOptions o;
  o.resources = arch::eyeriss_resources();
  o.hw_population = 8;
  o.hw_iterations = 4;
  o.seed = seed;
  o.mapping = mapping_budget(seed);
  o.subnet.population = 8;
  o.subnet.iterations = 4;
  o.subnet.min_accuracy = 76.0;
  o.subnet.seed = seed;
  o.num_threads = threads;
  return o;
}

std::string bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The mapping-search inner loop, call by call: layer context, then per
/// generation CMA sampling, decode per candidate, one batched cost
/// evaluation and the CMA update; then the library's own search_mapping
/// on the same unit for the whole-chain time. Returns candidates scored.
long long replay_mapping_searches(Recorder& rec, const cost::CostModel& model,
                                  const std::vector<arch::ArchConfig>& archs,
                                  const std::vector<nn::Workload>& layers,
                                  const search::MappingSearchOptions& opts) {
  long long candidates = 0;
  std::vector<cost::CostReport> reports;
  for (const arch::ArchConfig& arch : archs)
    for (const nn::Workload& layer : layers) {
      Scope unit(rec, "search.mapping_search.replay");
      std::optional<cost::LayerContext> ctx;
      {
        Scope s(rec, "cost.context");
        ctx.emplace(model.make_context(arch, layer));
      }
      search::CmaEsOptions co;
      co.dim = opts.encoding.genome_size();
      co.population = opts.population;
      co.seed = opts.seed;
      search::CmaEs cma(co);
      for (int g = 0; g < opts.iterations; ++g) {
        std::vector<std::vector<double>> pop;
        {
          Scope s(rec, "search.cma_es.sample");
          pop = cma.ask();
        }
        std::vector<mapping::Mapping> maps;
        maps.reserve(pop.size());
        for (const auto& genome : pop) {
          Scope s(rec, "search.encoding.map_decode");
          maps.push_back(opts.encoding.decode(genome, arch, layer));
        }
        reports.assign(maps.size(), cost::CostReport{});
        {
          Scope s(rec, "cost.evaluate_batch");
          model.evaluate_batch(*ctx, maps, reports);
        }
        candidates += static_cast<long long>(maps.size());
        std::vector<double> fitness;
        for (const auto& rep : reports) fitness.push_back(rep.edp);
        {
          Scope s(rec, "search.cma_es.tell");
          cma.tell(pop, fitness);
        }
      }
      Scope s(rec, "search.mapping_search.chain");
      (void)search::search_mapping(model, arch, layer, opts, nullptr);
    }
  return candidates;
}

/// Per-call costs of the mapping-search layers from one replay.
void report_mapping_layers(Result& r, const Recorder& rec, std::size_t from,
                           long long candidates) {
  r.set("search.cma_es.sample_us", rec.mean("search.cma_es.sample", from) * 1e6,
        "us");
  r.set("search.cma_es.tell_us", rec.mean("search.cma_es.tell", from) * 1e6,
        "us");
  r.set("search.mapping_search.chain_ms",
        rec.mean("search.mapping_search.chain", from) * 1e3, "ms");
  if (candidates > 0) {
    r.set("search.encoding.map_decode_ns",
          rec.mean("search.encoding.map_decode", from) * 1e9, "ns");
    r.set("cost.context_us", rec.mean("cost.context", from) * 1e6, "us");
    r.set("cost.batch_ns_per_cand",
          rec.total("cost.evaluate_batch", from) * 1e9 /
              static_cast<double>(candidates),
          "ns");
  }
}

/// Empty tasks through one TaskGraph at nproc threads: the scheduler's
/// own cost per task.
void task_graph_probe(const Args& a, Result& r, Recorder& rec) {
  constexpr int kTasks = 20000;
  core::ThreadPool pool(a.threads);
  core::TaskGraph graph(&pool);
  const std::size_t from = rec.mark();
  {
    Scope s(rec, "core.task_graph.submit_run");
    for (int i = 0; i < kTasks; ++i) graph.submit([] {});
    graph.run();
  }
  r.set("core.task_graph.task_us",
        rec.total("core.task_graph.submit_run", from) * 1e6 / kTasks, "us");
}

std::vector<nn::Workload> unique_layers(const std::vector<nn::Network>& nets) {
  std::vector<nn::Workload> out;
  for (const nn::Network& net : nets)
    for (const auto& [layer, count] : net.unique_layers()) out.push_back(layer);
  return out;
}

/// What one search returned that must repeat exactly.
struct Outcome {
  double best_edp = 0;
  long long mapping_searches = 0;
  long long tasks = 0;
  long long speculative_hits = 0;
  long long speculative_wasted = 0;
  bool operator==(const Outcome&) const = default;
};

/// One untimed search first (the first search of a process also pays for
/// allocator growth, which is set-up, not search), then searches
/// alternately at one and at nproc threads until the run's seconds are
/// spent. Before each pair it times kSetupsPerPair set-ups (`setup` returns
/// the seconds of one), so setup_s, their median, samples the host over the
/// whole run: its largest part is starting the pool's threads, whose cost
/// moved 2x from one minute to the next on a shared host. Every outcome
/// must equal the first, bit for bit, and the first must equal the
/// recorded best EDP when the seed has one.
void measure_searches(const Args& a, Result& r,
                      const std::function<double()>& setup,
                      std::optional<double> expect,
                      const std::function<Outcome(int)>& search) {
  const auto t_first = Clock::now();
  const Outcome first = search(a.threads);
  r.note("first_search_s", seconds_between(t_first, Clock::now()), "s");
  ++r.attempted;
  if (expect)
    r.check(first.best_edp == *expect, "best_edp " + bits(first.best_edp) +
                                           " != recorded " + bits(*expect));

  std::vector<double> setups, par, serial, probes;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  do {
    for (int i = 0; i < kSetupsPerPair; ++i) setups.push_back(setup());
    for (int threads : {1, a.threads}) {
      probes.push_back(host_probe_s());
      const auto t0 = Clock::now();
      const Outcome out = search(threads);
      const double wall = seconds_between(t0, Clock::now());
      (threads == 1 ? serial : par).push_back(wall);
      ++r.attempted;
      if (!(out == first)) ++r.failed;
      r.check(out == first, "search at " + std::to_string(threads) +
                                " threads differs from the first search");
    }
  } while (Clock::now() < deadline);

  double total = 0;
  for (double w : par) total += w;
  set_time(r, probes, "setup_s", median(setups), "s");
  set_time(r, probes, "p50_ms", median(par) * 1e3, "ms");
  set_time(r, probes, "serial_ms", median(serial) * 1e3, "ms");
  r.note("host_probe_ms", median(probes) * 1e3, "ms");
  r.note("search_s", median(par), "s");
  r.note("search_s_max", tail(par).value, "s");
  r.note("searches_per_s", static_cast<double>(par.size()) / total, "1/s");
  r.note("search_s_iqr_ratio", iqr_ratio(par), "ratio");
  r.note("search_t1_s", median(serial), "s");
  r.note("search_t1_s_iqr_ratio", iqr_ratio(serial), "ratio");
  r.note("searches_timed", static_cast<double>(par.size() + serial.size()),
         "count");
  r.note("best_edp", first.best_edp, "EDP");
  r.note("mapping_searches", static_cast<double>(first.mapping_searches),
         "count");
  r.note("tasks_executed", static_cast<double>(first.tasks), "count");
  r.note("speculative_hits", static_cast<double>(first.speculative_hits),
         "count");
  r.note("speculative_wasted", static_cast<double>(first.speculative_wasted),
         "count");
}

}  // namespace

void run_search(const Args& a, Result& r) {
  const auto setup = [&] {
    const auto t0 = Clock::now();
    const std::vector<nn::Network> nets = search_networks();
    const cost::CostModel model;
    core::ThreadPool pool(a.threads);
    return seconds_between(t0, Clock::now());
  };
  const std::vector<nn::Network> nets = search_networks();
  const cost::CostModel model;
  measure_searches(a, r, setup, recorded_edp(a.seed, false), [&](int threads) {
    const search::NaasResult res =
        search::run_naas(model, naas_options(a.seed, threads), nets);
    return Outcome{res.best_geomean_edp, res.mapping_searches,
                   res.tasks_executed, res.speculative_hits,
                   res.speculative_wasted};
  });
}

void run_cosearch(const Args& a, Result& r) {
  const auto setup = [&] {
    const auto t0 = Clock::now();
    [[maybe_unused]] const nn::OfaSpace space;
    [[maybe_unused]] const nn::AccuracyPredictor predictor;
    const cost::CostModel model;
    core::ThreadPool pool(a.threads);
    return seconds_between(t0, Clock::now());
  };
  const cost::CostModel model;
  measure_searches(a, r, setup, recorded_edp(a.seed, true), [&](int threads) {
    const nas::CoSearchResult res =
        nas::run_cosearch(model, cosearch_options(a.seed, threads));
    return Outcome{res.best_edp, res.mapping_searches, res.tasks_executed,
                   res.speculative_hits, res.speculative_wasted};
  });
}

void trace_search(const Args& a, Result& r, Recorder& rec) {
  Scope whole(rec, "workload.search");
  const std::size_t from = rec.mark();
  const std::vector<nn::Network> nets = search_networks();
  const cost::CostModel model;
  const search::NaasOptions opts = naas_options(a.seed, 1);

  // The real search at one thread: the work counts and the wall time the
  // replayed layers are compared against.
  search::NaasResult res;
  {
    Scope s(rec, "search.run_naas_t1");
    res = search::run_naas(model, opts, nets);
  }
  const double search_t1 = rec.total("search.run_naas_t1", from);
  ++r.attempted;
  if (const auto recorded = recorded_edp(a.seed, false))
    r.check(res.best_geomean_edp == *recorded,
            "traced search best_edp differs from the recorded value");
  r.set("core.task_graph.tasks", static_cast<double>(res.tasks_executed),
        "count");
  r.set("search.mapping_searches", static_cast<double>(res.mapping_searches),
        "count");
  r.set("search.cost_evaluations", static_cast<double>(res.cost_evaluations),
        "count");
  r.set("search.speculation.hits", static_cast<double>(res.speculative_hits),
        "count");
  r.set("search.speculation.wasted",
        static_cast<double>(res.speculative_wasted), "count");
  const long long spec = res.speculative_hits + res.speculative_wasted;
  r.set("search.speculation.useful_ratio",
        spec ? static_cast<double>(res.speculative_hits) /
                   static_cast<double>(spec)
             : 0.0,
        "ratio");

  // The outer loop at nproc threads, generation by generation.
  core::ThreadPool pool(a.threads);
  search::ArchEvaluator evaluator(model, opts.mapping, &pool);
  const search::HwEncodingSpec hw = search::make_hw_spec(
      opts.resources, opts.hw_encoding, opts.search_connectivity);
  search::CmaEsOptions co;
  co.dim = hw.genome_size();
  co.population = opts.population;
  co.seed = opts.seed;
  search::CmaEs cma(co);
  const auto valid = [&hw](const std::vector<double>& g) {
    return hw.valid(g);
  };
  const std::size_t units_per_candidate = unique_layers(nets).size();
  long long requested = 0, hw_decodes = 0;
  std::vector<arch::ArchConfig> last_feasible;
  for (int g = 0; g < opts.iterations; ++g) {
    std::vector<std::vector<double>> pop;
    {
      Scope s(rec, "search.cma_es.outer_sample");
      pop = cma.ask(valid);
    }
    std::vector<arch::ArchConfig> archs;
    for (const auto& genome : pop) {
      Scope s(rec, "search.encoding.hw_decode");
      (void)hw.valid(genome);
      archs.push_back(hw.decode(genome));
      ++hw_decodes;
    }
    std::vector<double> fitness;
    {
      Scope s(rec, "search.accelerator_search.generation");
      fitness = evaluator.evaluate_population(archs, nets);
    }
    requested += static_cast<long long>(archs.size() * units_per_candidate);
    {
      Scope s(rec, "search.cma_es.outer_tell");
      cma.tell(pop, fitness);
    }
    last_feasible.clear();
    for (const auto& arch : archs)
      if (opts.resources.allows(arch)) last_feasible.push_back(arch);
  }
  r.set("search.encoding.hw_decode_ns",
        rec.mean("search.encoding.hw_decode", from) * 1e9, "ns");
  r.set("search.accelerator_search.generation_ms",
        rec.mean("search.accelerator_search.generation", from) * 1e3, "ms");
  r.set("core.task_graph.idle_fraction",
        evaluator.scheduler_stats().idle_fraction(), "ratio");
  r.set("search.eval_cache.hit_ratio",
        1.0 - static_cast<double>(evaluator.mapping_searches()) /
                  static_cast<double>(requested),
        "ratio");

  // The inner loop on the returned design plus the last generation's
  // feasible candidates, at one thread; first untraced, then traced, so
  // the difference is the recorder's own overhead.
  std::vector<arch::ArchConfig> archs{res.best_arch};
  for (std::size_t i = 0; i < last_feasible.size() && i < 3; ++i)
    archs.push_back(last_feasible[i]);
  const std::vector<nn::Workload> layers = unique_layers(nets);
  Recorder off(false);
  const auto t_off = Clock::now();
  replay_mapping_searches(off, model, archs, layers, opts.mapping);
  const double untraced = seconds_between(t_off, Clock::now());
  const std::size_t inner_from = rec.mark();
  const auto t_on = Clock::now();
  const long long candidates =
      replay_mapping_searches(rec, model, archs, layers, opts.mapping);
  const double traced = seconds_between(t_on, Clock::now());
  report_mapping_layers(r, rec, inner_from, candidates);
  r.set("trace.overhead_ratio", traced / untraced - 1.0, "ratio");

  // Coverage: the share of the one-thread search that the replayed
  // per-call costs account for, scaled by the search's own work counts.
  const double per_gen = rec.mean("search.cma_es.sample", inner_from) +
                         rec.mean("search.cma_es.tell", inner_from);
  const double per_cand =
      rec.mean("search.encoding.map_decode", inner_from) +
      rec.total("cost.evaluate_batch", inner_from) /
          static_cast<double>(candidates);
  const double explained =
      static_cast<double>(res.generations_batched) * per_gen +
      static_cast<double>(res.candidates_batch_evaluated) * per_cand +
      static_cast<double>(res.mapping_searches) *
          rec.mean("cost.context", inner_from) +
      static_cast<double>(hw_decodes) *
          rec.mean("search.encoding.hw_decode", from);
  r.set("trace.coverage", explained / search_t1, "ratio");

  task_graph_probe(a, r, rec);
}

void trace_cosearch(const Args& a, Result& r, Recorder& rec) {
  Scope whole(rec, "workload.cosearch");
  const std::size_t from = rec.mark();
  const nas::CoSearchOptions opts = cosearch_options(a.seed, a.threads);
  const cost::CostModel model;
  core::ThreadPool pool(a.threads);
  search::ArchEvaluator evaluator(model, opts.mapping, &pool);
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;
  const search::HwEncodingSpec hw = search::make_hw_spec(
      opts.resources, opts.hw_encoding, opts.search_connectivity);
  search::CmaEsOptions co;
  co.dim = hw.genome_size();
  co.population = opts.hw_population;
  co.seed = opts.seed;
  search::CmaEs cma(co);
  const auto valid = [&hw](const std::vector<double>& g) {
    return hw.valid(g);
  };

  // The co-search loop of nas::run_cosearch, one subnet evolution per
  // hardware candidate, each in its own span.
  double best_edp = std::numeric_limits<double>::infinity();
  arch::ArchConfig best_arch;
  nn::OfaConfig best_net;
  const auto evolve = [&](const arch::ArchConfig& cfg,
                          const nas::SubnetEvolutionOptions& sub) {
    Scope s(rec, "nas.evolve");
    const nas::SubnetResult sr =
        nas::evolve_subnet(evaluator, cfg, space, predictor, sub);
    if (sr.edp < best_edp) {
      best_edp = sr.edp;
      best_arch = cfg;
      best_net = sr.config;
    }
    return sr.edp;
  };
  const arch::ArchConfig baseline = arch::baseline_for(opts.resources);
  if (opts.resources.allows(baseline)) evolve(baseline, opts.subnet);
  for (int iter = 0; iter < opts.hw_iterations; ++iter) {
    std::vector<std::vector<double>> pop;
    {
      Scope s(rec, "search.cma_es.outer_sample");
      pop = cma.ask(valid);
    }
    std::vector<double> fitness;
    for (std::size_t k = 0; k < pop.size(); ++k) {
      const arch::ArchConfig cfg = hw.decode(pop[k]);
      double edp = std::numeric_limits<double>::infinity();
      if (opts.resources.allows(cfg)) {
        nas::SubnetEvolutionOptions sub = opts.subnet;
        sub.seed = opts.subnet.seed + 7919 * (iter + 1) + k;
        edp = evolve(cfg, sub);
      }
      fitness.push_back(edp);
    }
    cma.tell(pop, fitness);
  }
  ++r.attempted;
  if (const auto recorded = recorded_edp(a.seed, true))
    r.check(best_edp == *recorded,
            "replayed cosearch best_edp " + bits(best_edp) +
                " differs from the recorded value");
  r.set("nas.evolve_ms", rec.mean("nas.evolve", from) * 1e3, "ms");
  r.set("core.task_graph.idle_fraction",
        evaluator.scheduler_stats().idle_fraction(), "ratio");
  r.set("core.task_graph.tasks",
        static_cast<double>(evaluator.tasks_executed()), "count");
  r.set("search.mapping_searches",
        static_cast<double>(evaluator.mapping_searches()), "count");
  r.set("search.cost_evaluations",
        static_cast<double>(evaluator.cost_evaluations()), "count");

  // Subnet EDP queries on the returned design, from a cold evaluator: each
  // one is a small graph of one network's layers.
  core::Rng rng(opts.seed);
  search::ArchEvaluator fresh(model, opts.mapping, &pool);
  long long requested = 0;
  for (int found = 0, tries = 0; found < 12 && tries < 2000; ++tries) {
    const nn::OfaConfig cfg = space.sample(rng);
    if (predictor.predict(cfg) < opts.subnet.min_accuracy) continue;
    const nn::Network net = space.to_network(cfg);
    requested += static_cast<long long>(net.unique_layers().size());
    Scope s(rec, "nas.subnet_edp");
    (void)fresh.evaluate(best_arch, net);
    ++found;
  }
  r.set("nas.subnet_edp_ms", rec.mean("nas.subnet_edp", from) * 1e3, "ms");
  if (requested > 0)
    r.set("search.eval_cache.hit_ratio",
          1.0 - static_cast<double>(fresh.mapping_searches()) /
                    static_cast<double>(requested),
          "ratio");

  for (int i = 0; i < 2000; ++i) {
    Scope s(rec, "nas.predictor");
    const nn::OfaConfig cfg = space.mutate(space.sample(rng), rng, 0.15);
    (void)predictor.predict(cfg);
  }
  r.set("nas.predictor_us", rec.mean("nas.predictor", from) * 1e6, "us");

  const std::size_t inner_from = rec.mark();
  const long long candidates = replay_mapping_searches(
      rec, model, {best_arch},
      unique_layers({space.to_network(best_net)}), opts.mapping);
  report_mapping_layers(r, rec, inner_from, candidates);
  task_graph_probe(a, r, rec);
}

}  // namespace perfbench
