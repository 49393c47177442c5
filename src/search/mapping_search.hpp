#pragma once

#include <cstdint>

#include "arch/accelerator.hpp"
#include "core/task_graph.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"
#include "search/encoding.hpp"

namespace naas::search {

/// Budget and configuration of the per-layer compiler-mapping search
/// (Section II-B): a CMA-ES loop over the mapping encoding vector.
struct MappingSearchOptions {
  int population = 12;
  int iterations = 10;
  std::uint64_t seed = 1;
  MapEncodingSpec encoding;
  /// Also evaluate the three canonical dataflow mappings up front and keep
  /// whichever candidate (searched or canonical) is best. Models a compiler
  /// that always considers its preset dataflows; disable to measure raw
  /// search quality (Fig. 9's encoding ablation does).
  bool seed_canonical = true;
};

/// Outcome of one per-layer mapping search.
struct MappingSearchResult {
  mapping::Mapping best;
  cost::CostReport report;     ///< cost of `best`
  double best_edp = 0;
  long long evaluations = 0;   ///< cost-model calls consumed
  /// Batched-path work meters (not persisted by ResultStore — like
  /// `evaluations` on preloaded entries, they meter only work this process
  /// performed): CMA generations evaluated through
  /// CostModel::evaluate_batch, and candidates that flowed through it
  /// (including the canonical dataflow seeds).
  long long generations_batched = 0;
  long long candidates_batch_evaluated = 0;
  /// Scheduler work meter (not persisted either): task-graph tasks this
  /// search's chain executed (setup + per-generation shards and
  /// continuations). Deterministic for any thread count — the chain's task
  /// breakdown depends only on the budget, never on scheduling.
  long long tasks_executed = 0;
};

/// Submits the whole CMA-driven mapping search for (arch, layer) onto
/// `graph` as a chain of dependent tasks: a setup task (layer context +
/// canonical seeds + generation 0 sampling), then per generation a batch of
/// fixed-size shard evaluation tasks whose continuation folds fitness in
/// candidate order, steps the optimizer (CmaEs::tell_partial), and
/// *schedules* the next generation — no task ever joins on another, so any
/// number of chains interleave freely on one graph.
/// `arch`/`layer`/`options` are copied; `out` must stay valid until the
/// graph quiesces. Returns the promise that completes, with `out` filled,
/// when the chain finishes — the id dependents gate on.
core::TaskGraph::TaskId submit_mapping_search(
    core::TaskGraph& graph, const cost::CostModel& model,
    const arch::ArchConfig& arch, const nn::Workload& layer,
    const MappingSearchOptions& options, MappingSearchResult* out);

/// Searches the mapping space of `layer` on `arch`, returning the best
/// (lowest-EDP) mapping found. Deterministic for a fixed seed and
/// bit-identical for any thread count: this is the one-chain convenience
/// wrapper over submit_mapping_search (one TaskGraph on `pool`, run to
/// quiescence).
MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   core::ThreadPool* pool = nullptr);

}  // namespace naas::search
