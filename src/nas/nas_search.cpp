#include "nas/nas_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"

namespace naas::nas {
namespace {

/// Scored subnet candidate inside the evolution loop.
struct Scored {
  nn::OfaConfig cfg;
  double accuracy = 0;
  double edp = std::numeric_limits<double>::infinity();
  /// Config fingerprint (the edp_cache key), kept as the sort tie-breaker:
  /// it gives equal-EDP members a total order, so which parents breed never
  /// depends on the order they entered the population.
  std::uint64_t fp = 0;
};

}  // namespace

SubnetResult evolve_subnet(search::ArchEvaluator& evaluator,
                           const arch::ArchConfig& arch,
                           const nn::OfaSpace& space,
                           const nn::AccuracyPredictor& predictor,
                           const SubnetEvolutionOptions& options) {
  core::Rng rng(options.seed);
  // Memoize subnet EDP by config fingerprint: mutation/crossover revisit
  // genotypes frequently.
  std::unordered_map<std::uint64_t, double> edp_cache;

  SubnetResult best;
  best.edp = std::numeric_limits<double>::infinity();

  auto score = [&](const nn::OfaConfig& cfg) {
    Scored s;
    s.cfg = space.repair(cfg);
    if (options.width_and_expand_only) {
      s.cfg.image_size = 224;
      s.cfg.depths = nn::OfaSpace::resnet50_config().depths;
    }
    s.accuracy = predictor.predict(s.cfg);
    if (s.accuracy < options.min_accuracy) return s;  // infeasible: inf EDP
    const std::uint64_t key = s.cfg.fingerprint();
    s.fp = key;
    auto it = edp_cache.find(key);
    if (it == edp_cache.end()) {
      const auto nc = evaluator.evaluate(arch, space.to_network(s.cfg));
      it = edp_cache.emplace(key, nc.legal ? nc.edp : s.edp).first;
    }
    s.edp = it->second;
    return s;
  };

  // Accuracy-constrained initial population ("sample a network candidate
  // ... which satisfies the pre-defined accuracy requirement").
  std::vector<Scored> population;
  for (int attempt = 0;
       attempt < options.max_sample_attempts &&
       static_cast<int>(population.size()) < options.population;
       ++attempt) {
    Scored s = score(space.sample(rng));
    if (std::isfinite(s.edp)) population.push_back(std::move(s));
  }
  if (population.empty()) {
    // The constraint may be unreachable by uniform sampling; fall back to
    // the full-capacity config so the caller still gets a feasible answer
    // when one exists at all.
    Scored s = score(nn::OfaSpace::full_config());
    if (std::isfinite(s.edp)) population.push_back(std::move(s));
  }

  auto update_best = [&best](const Scored& s) {
    if (s.edp < best.edp) {
      best.edp = s.edp;
      best.config = s.cfg;
      best.accuracy = s.accuracy;
    }
  };
  for (const auto& s : population) update_best(s);
  if (population.empty()) return best;  // edp stays +inf

  const auto by_edp = [](const Scored& a, const Scored& b) {
    if (a.edp != b.edp) return a.edp < b.edp;
    return a.fp < b.fp;  // total order; see Scored::fp
  };
  for (int iter = 0; iter < options.iterations; ++iter) {
    std::sort(population.begin(), population.end(), by_edp);
    const int parents =
        std::max(2, static_cast<int>(population.size()) / 2);
    std::vector<Scored> next(population.begin(),
                             population.begin() + std::min<std::size_t>(
                                                      parents,
                                                      population.size()));
    while (static_cast<int>(next.size()) < options.population) {
      const Scored& pa =
          population[static_cast<std::size_t>(rng.index(parents))];
      const Scored& pb =
          population[static_cast<std::size_t>(rng.index(parents))];
      nn::OfaConfig child = rng.bernoulli(0.5)
                                ? space.mutate(pa.cfg, rng, options.mutate_rate)
                                : space.crossover(pa.cfg, pb.cfg, rng);
      Scored s = score(child);
      if (std::isfinite(s.edp)) {
        update_best(s);
        next.push_back(std::move(s));
      } else if (rng.bernoulli(0.1)) {
        break;  // avoid spinning when the constraint rejects most children
      }
    }
    population = std::move(next);
  }
  return best;
}

CoSearchResult run_cosearch(const cost::CostModel& model,
                            const CoSearchOptions& options) {
  core::Timer timer;
  CoSearchResult result;
  result.best_edp = std::numeric_limits<double>::infinity();

  const search::HwEncodingSpec hw = search::make_hw_spec(
      options.resources, options.hw_encoding, options.search_connectivity);

  core::ThreadPool pool(options.num_threads);
  search::ArchEvaluator evaluator(model, options.mapping, &pool);
  result.store_entries_loaded =
      search::warm_start_from_store(evaluator, options.cache_path);
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  search::CmaEsOptions cma_opts;
  cma_opts.dim = hw.genome_size();
  cma_opts.population = options.hw_population;
  cma_opts.seed = options.seed;
  search::CmaEs cma(cma_opts);

  const auto is_valid = [&hw](const std::vector<double>& genome) {
    return hw.valid(genome);
  };

  // Warm start with the envelope's reference design (matches run_naas).
  if (options.seed_baseline) {
    try {
      const arch::ArchConfig seed = arch::baseline_for(options.resources);
      const bool connectivity_ok =
          options.search_connectivity ||
          (seed.num_array_dims == 2 &&
           seed.parallel_dims[0] == hw.fixed_parallel_dims[0] &&
           seed.parallel_dims[1] == hw.fixed_parallel_dims[1]);
      if (connectivity_ok && options.resources.allows(seed)) {
        const SubnetResult sr =
            evolve_subnet(evaluator, seed, space, predictor, options.subnet);
        if (sr.edp < result.best_edp) {
          result.best_edp = sr.edp;
          result.best_arch = seed;
          result.best_net = sr.config;
          result.best_accuracy = sr.accuracy;
        }
      }
    } catch (const std::invalid_argument&) {
      // No published baseline for this envelope.
    }
  }

  for (int iter = 0; iter < options.hw_iterations; ++iter) {
    const auto population = cma.ask(is_valid);
    std::vector<double> fitness;
    fitness.reserve(population.size());
    for (std::size_t k = 0; k < population.size(); ++k) {
      const arch::ArchConfig cfg = hw.decode(population[k]);
      double edp = std::numeric_limits<double>::infinity();
      if (options.resources.allows(cfg)) {
        SubnetEvolutionOptions sub = options.subnet;
        sub.seed = options.subnet.seed + 7919 * (iter + 1) + k;
        const SubnetResult sr =
            evolve_subnet(evaluator, cfg, space, predictor, sub);
        edp = sr.edp;
        if (edp < result.best_edp) {
          result.best_edp = edp;
          result.best_arch = cfg;
          result.best_net = sr.config;
          result.best_accuracy = sr.accuracy;
        }
      }
      fitness.push_back(edp);
    }
    cma.tell(population, fitness);
  }
  search::flush_to_store(evaluator, options.cache_path,
                         options.cache_readonly);
  result.cost_evaluations = evaluator.cost_evaluations();
  result.mapping_searches = evaluator.mapping_searches();
  result.generations_batched = evaluator.generations_batched();
  result.candidates_batch_evaluated = evaluator.candidates_batch_evaluated();
  result.tasks_executed = evaluator.tasks_executed();
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace naas::nas
