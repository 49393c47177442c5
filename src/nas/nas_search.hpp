#pragma once


#include "arch/resources.hpp"
#include "nn/accuracy_model.hpp"
#include "nn/ofa_space.hpp"
#include "search/accelerator_search.hpp"

namespace naas::nas {

/// Budget for the neural-architecture evolution level (Section II-C): an
/// OFA-style evolutionary loop (accuracy-constrained sampling, then
/// mutation + crossover of the lowest-EDP parents).
struct SubnetEvolutionOptions {
  double min_accuracy = 78.6;  ///< predictor top-1 constraint (percent)
  int population = 8;
  int iterations = 5;
  double mutate_rate = 0.15;
  std::uint64_t seed = 1;
  int max_sample_attempts = 200;  ///< rejection budget for the constraint
  /// Restricts the space to width multiplier + expand ratios at fixed
  /// classic depths (3/4/6/3) and 224x224 input. Models the weaker neural
  /// space of NHAS [12] (per-layer channels + quantization on a fixed
  /// topology) for the Fig. 10 comparison.
  bool width_and_expand_only = false;
};

/// Best subnet found for one accelerator candidate.
struct SubnetResult {
  nn::OfaConfig config;
  double accuracy = 0;
  double edp = 0;  ///< +inf if no accuracy-feasible subnet was found
};

/// Evolves an OFA-ResNet50 subnet minimizing EDP on a *fixed* accelerator,
/// subject to the accuracy constraint. Exposed separately because both the
/// full co-search (below) and the NHAS baseline reuse it.
SubnetResult evolve_subnet(search::ArchEvaluator& evaluator,
                           const arch::ArchConfig& arch,
                           const nn::OfaSpace& space,
                           const nn::AccuracyPredictor& predictor,
                           const SubnetEvolutionOptions& options);

/// Full three-level co-search configuration (Fig. 1 with the NAS level).
struct CoSearchOptions {
  arch::ResourceConstraint resources;
  int hw_population = 8;
  int hw_iterations = 6;
  std::uint64_t seed = 1;
  search::OrderEncoding hw_encoding = search::OrderEncoding::kImportance;
  /// false restricts the accelerator level to sizing only (used by the
  /// NHAS baseline).
  bool search_connectivity = true;
  /// Warm-start the accelerator level with the envelope's published
  /// baseline preset when one exists (see NaasOptions::seed_baseline).
  bool seed_baseline = true;
  search::MappingSearchOptions mapping;
  SubnetEvolutionOptions subnet;
  /// Evaluation threads for the shared ArchEvaluator (the subnet evolution
  /// itself is inherently sequential — each generation's parents depend on
  /// the previous scores — but every EDP query fans its mapping searches
  /// out across the pool). 0 => hardware default, 1 => serial.
  int num_threads = 0;
  /// Persistent mapping-result store (see NaasOptions::cache_path): loaded
  /// before the co-search, flushed after it unless cache_readonly.
  std::string cache_path;
  bool cache_readonly = false;
};

/// Outcome of the accelerator + mapping + neural-architecture co-search.
struct CoSearchResult {
  arch::ArchConfig best_arch;
  nn::OfaConfig best_net;
  double best_accuracy = 0;
  double best_edp = 0;
  long long cost_evaluations = 0;
  long long mapping_searches = 0;
  /// Batched-cost-model meters (see ArchEvaluator::generations_batched).
  long long generations_batched = 0;
  long long candidates_batch_evaluated = 0;
  /// Scheduler work meter (see ArchEvaluator::tasks_executed): task-graph
  /// tasks run by the shared evaluator's pipelines.
  long long tasks_executed = 0;
  /// Always 0: speculative prefetch was removed; kept so readers compile.
  long long speculative_hits = 0;
  long long speculative_wasted = 0;
  /// Entries warm-started from CoSearchOptions::cache_path.
  long long store_entries_loaded = 0;
  double wall_seconds = 0;
};

/// Runs the joint search: the outer CMA-ES proposes accelerator candidates;
/// for each, an accuracy-constrained subnet evolution finds the best
/// network (with per-layer mapping search inside); the subnet's EDP is the
/// accelerator's reward. Returns the best matched (accelerator, network,
/// mapping) tuple.
CoSearchResult run_cosearch(const cost::CostModel& model,
                            const CoSearchOptions& options);

}  // namespace naas::nas
