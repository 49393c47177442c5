#include "core/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <stdexcept>
#include <vector>

#include "arch/presets.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"
#include "search/cma_es.hpp"

namespace naas {
namespace {

// ------------------------------------------------------------ scheduling

TEST(TaskGraph, RunsEveryTaskOnce) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::vector<std::atomic<int>> runs(64);
    for (std::size_t i = 0; i < runs.size(); ++i)
      graph.submit([&runs, i] { runs[i].fetch_add(1); });
    graph.run();
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1) << threads;
    EXPECT_EQ(graph.stats().tasks_executed, 64) << threads;
  }
}

TEST(TaskGraph, DependenciesOrderExecution) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::mutex m;
    std::vector<int> order;
    const auto log = [&](int id) {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(id);
    };
    // Diamond: 0 -> {1, 2} -> 3.
    const auto a = graph.submit([&] { log(0); });
    const auto b = graph.submit([&] { log(1); }, {a});
    const auto c = graph.submit([&] { log(2); }, {a});
    graph.submit([&] { log(3); }, {b, c});
    graph.run();
    ASSERT_EQ(order.size(), 4u) << threads;
    EXPECT_EQ(order.front(), 0) << threads;
    EXPECT_EQ(order.back(), 3) << threads;
  }
}

TEST(TaskGraph, DependencyOnCompletedTaskIsSatisfied) {
  core::TaskGraph graph(nullptr);  // serial inline mode
  int x = 0;
  const auto a = graph.submit([&] { x = 1; });
  graph.run();
  // `a` already completed; a dependent submitted afterwards runs normally.
  graph.submit([&] { x = 2; }, {a});
  graph.run();
  EXPECT_EQ(x, 2);
}

TEST(TaskGraph, NestedSubmissionFromTaskBody) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::atomic<int> leaves{0};
    graph.submit([&] {
      for (int i = 0; i < 8; ++i) {
        graph.submit([&] {
          // Two levels of nesting: tasks submitted by a nested task.
          graph.submit([&] { leaves.fetch_add(1); });
        });
      }
    });
    graph.run();
    EXPECT_EQ(leaves.load(), 8) << threads;
  }
}

TEST(TaskGraph, PromiseGatesDependentsUntilFulfilled) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::atomic<bool> chain_done{false};
    std::atomic<bool> dependent_saw_done{false};
    const auto done = graph.make_promise();
    // The chain grows dynamically: the first task submits the second, the
    // second fulfills the promise — exactly how a mapping-search chain
    // exposes one id before its tail exists.
    graph.submit([&] {
      graph.submit([&] {
        chain_done.store(true);
        graph.fulfill(done);
      });
    });
    graph.submit([&] { dependent_saw_done.store(chain_done.load()); },
                 {done});
    graph.run();
    EXPECT_TRUE(dependent_saw_done.load()) << threads;
  }
}

TEST(TaskGraph, SerialModeRunsReadyTasksLowestIdFirst) {
  core::TaskGraph graph(nullptr);
  std::vector<int> order;
  // ids 1..4. Task 1 readies task 3 and submits task 5 while 2 and 4 are
  // already ready; every pick takes the lowest ready id, so 3 (readied
  // late) still runs before 4, and 5 (submitted last) runs last.
  const auto first = graph.submit([&] {
    order.push_back(1);
    graph.submit([&] { order.push_back(5); });
  });
  graph.submit([&] { order.push_back(2); });
  graph.submit([&] { order.push_back(3); }, {first});
  graph.submit([&] { order.push_back(4); });
  graph.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------- errors

TEST(TaskGraph, ExceptionPropagatesAndCancelsRemainder) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    const auto boom = graph.submit(
        [] { throw std::runtime_error("task failed"); });
    std::atomic<bool> dependent_ran{false};
    graph.submit([&] { dependent_ran.store(true); }, {boom});
    EXPECT_THROW(graph.run(), std::runtime_error) << threads;
    // run() rethrew after quiescing; the dependent's body was skipped, not
    // run, and every task is accounted for as executed or skipped.
    EXPECT_FALSE(dependent_ran.load()) << threads;
    EXPECT_EQ(graph.stats().tasks_executed + graph.stats().tasks_skipped, 2)
        << threads;
  }
}

TEST(TaskGraph, ErrorWithUnfulfilledPromiseStillTerminates) {
  core::TaskGraph graph(nullptr);
  const auto done = graph.make_promise();
  std::atomic<bool> dependent_ran{false};
  graph.submit([&] { dependent_ran.store(true); }, {done});
  // The task that would have fulfilled the promise throws first.
  graph.submit([] { throw std::runtime_error("fulfiller died"); });
  EXPECT_THROW(graph.run(), std::runtime_error);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(TaskGraph, StalledPromiseFailsLoudlyInsteadOfHanging) {
  core::TaskGraph graph(nullptr);
  const auto never = graph.make_promise();
  graph.submit([] {}, {never});
  EXPECT_THROW(graph.run(), std::logic_error);
}

TEST(TaskGraph, UnknownDependencyIsRejected) {
  core::TaskGraph graph(nullptr);
  EXPECT_THROW(graph.submit([] {}, {12345}), std::invalid_argument);
}

TEST(TaskGraph, RejectedSubmitLeavesGraphUnchanged) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::atomic<int> a_runs{0};
    std::atomic<int> b_runs{0};
    std::atomic<bool> rejected_ran{false};
    const auto a = graph.submit([&] { a_runs.fetch_add(1); });
    // The valid dependency comes first: a rejected submit must neither
    // consume an id nor leave itself registered as a dependent of `a`.
    EXPECT_THROW(graph.submit([&] { rejected_ran.store(true); }, {a, 12345}),
                 std::invalid_argument);
    const auto b = graph.submit([&] { b_runs.fetch_add(1); }, {a});
    EXPECT_EQ(b, a + 1) << threads;
    graph.run();
    EXPECT_EQ(a_runs.load(), 1) << threads;
    EXPECT_EQ(b_runs.load(), 1) << threads;
    EXPECT_FALSE(rejected_ran.load()) << threads;
    EXPECT_EQ(graph.stats().tasks_executed, 2) << threads;
    EXPECT_EQ(graph.stats().tasks_skipped, 0) << threads;
  }
}

// ------------------------------------------------- long-lived graph storage

// Far more tasks than one storage block, so early ids live in blocks that
// have been freed by the time the later checks run.
constexpr int kManyTasks = 1500;

TEST(TaskGraph, DependencyOnFreedBlockIsSatisfied) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    // The promise keeps the first block alive while the blocks after it
    // complete and are freed.
    const auto hold = graph.make_promise();
    std::vector<core::TaskGraph::TaskId> ids;
    for (int i = 0; i < kManyTasks; ++i) ids.push_back(graph.submit([] {}));
    std::atomic<int> ran{0};
    graph.submit(
        [&] {
          graph.submit([&] { ran.fetch_add(1); }, {ids[kManyTasks / 4]});
          graph.fulfill(hold);
        },
        {ids.back()});
    graph.run();
    // Now every block is freed, the promise's too.
    graph.submit([&] { ran.fetch_add(1); }, {ids.front()});
    graph.submit([&] { ran.fetch_add(1); }, ids);
    graph.submit([&] { ran.fetch_add(1); }, {hold});
    graph.run();
    EXPECT_EQ(ran.load(), 4) << threads;
    EXPECT_EQ(graph.stats().tasks_executed, kManyTasks + 5) << threads;
  }
}

TEST(TaskGraph, FulfillOnLongCompletedPromiseThrows) {
  core::TaskGraph graph(nullptr);
  const auto promise = graph.make_promise();
  const auto task = graph.submit([&] { graph.fulfill(promise); });
  for (int i = 0; i < kManyTasks; ++i) graph.submit([] {});
  graph.run();
  EXPECT_THROW(graph.fulfill(promise), std::logic_error);
  EXPECT_THROW(graph.fulfill(task), std::logic_error);  // not a promise
  EXPECT_THROW(graph.fulfill(0), std::logic_error);
  EXPECT_THROW(graph.fulfill(promise + kManyTasks + 100), std::logic_error);
}

TEST(TaskGraph, CancelAfterErrorCountsSkippedAcrossBlocks) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    const auto never = graph.make_promise();
    const auto boom =
        graph.submit([] { throw std::runtime_error("task failed"); });
    std::atomic<int> ran{0};
    // Everything else waits on the failing task (its bodies are skipped as
    // they are claimed) or on the promise its dependent would have
    // fulfilled (cancelled in bulk once nothing is left to run).
    graph.submit([&] { graph.fulfill(never); }, {boom});
    for (int i = 0; i < kManyTasks; ++i) {
      graph.submit([&] { ran.fetch_add(1); }, {boom});
      graph.submit([&] { ran.fetch_add(1); }, {never});
    }
    EXPECT_THROW(graph.run(), std::runtime_error) << threads;
    EXPECT_EQ(ran.load(), 0) << threads;
    EXPECT_EQ(graph.stats().tasks_executed, 1) << threads;
    EXPECT_EQ(graph.stats().tasks_skipped, 1 + 2 * kManyTasks) << threads;

    // The graph is usable again after the cancellation.
    graph.submit([&] { ran.fetch_add(1); }, {boom, never});
    graph.run();
    EXPECT_EQ(ran.load(), 1) << threads;
  }
}

// ---------------------------------------------------------------- stress

TEST(TaskGraph, RandomDagStressRunsEachBodyOnceAfterItsDependencies) {
  // A seeded random DAG of >20k tasks at 4 threads, across two run()s:
  // plain tasks with up to three dependencies (recent or long completed),
  // promises fulfilled by tasks that a spawner submits from its body, and
  // dependents of those promises. Every body checks that all of its
  // dependencies finished before it started.
  constexpr int kNodes = 24000;
  struct Node {
    std::atomic<int> runs{0};
    std::atomic<bool> done{false};
  };
  std::vector<Node> nodes(kNodes);
  std::atomic<int> violations{0};
  std::vector<core::TaskGraph::TaskId> id_of(kNodes, 0);
  long long bodies = 0;

  core::ThreadPool pool(4);
  core::TaskGraph graph(&pool);
  std::mt19937_64 rng(20240917);

  // Body of node `self`: verify the dependencies, then mark itself done.
  const auto body = [&nodes, &violations](int self, std::vector<int> deps) {
    return [&nodes, &violations, self, deps = std::move(deps)] {
      for (const int d : deps)
        if (!nodes[d].done.load(std::memory_order_acquire))
          violations.fetch_add(1);
      nodes[self].runs.fetch_add(1);
      nodes[self].done.store(true, std::memory_order_release);
    };
  };
  const auto pick_deps = [&](int before) {
    std::vector<int> deps;
    const int count = before == 0 ? 0 : static_cast<int>(rng() % 4);
    for (int k = 0; k < count; ++k) {
      const int window = rng() % 8 == 0 ? before : std::min(before, 300);
      deps.push_back(before - 1 - static_cast<int>(rng() % window));
    }
    return deps;
  };
  const auto ids_of = [&](const std::vector<int>& deps) {
    std::vector<core::TaskGraph::TaskId> ids;
    for (const int d : deps) ids.push_back(id_of[d]);
    return ids;
  };

  int n = 0;
  for (const int round_end : {kNodes / 2, kNodes}) {
    while (n < round_end) {
      if (rng() % 10 == 0 && n + 3 <= round_end) {
        // Promise `n`, spawner `n + 1`, and nested fulfiller `n + 2`; the
        // promise counts as done once the fulfiller marks it.
        const int promise = n, spawner = n + 1, fulfiller = n + 2;
        id_of[promise] = graph.make_promise();
        const auto fulfiller_deps = pick_deps(promise);
        const auto fulfiller_ids = ids_of(fulfiller_deps);
        const auto spawner_deps = pick_deps(promise);
        const core::TaskGraph::TaskId promise_id = id_of[promise];
        auto fulfill_body = body(fulfiller, fulfiller_deps);
        auto spawn_body = body(spawner, spawner_deps);
        id_of[spawner] = graph.submit(
            [&, promise, promise_id, fulfiller_ids, spawn_body,
             fulfill_body] {
              spawn_body();
              graph.submit(
                  [&, promise, promise_id, fulfill_body] {
                    fulfill_body();
                    nodes[promise].runs.fetch_add(1);
                    nodes[promise].done.store(true, std::memory_order_release);
                    graph.fulfill(promise_id);
                  },
                  fulfiller_ids);
            },
            ids_of(spawner_deps));
        // Only the fulfiller's completion is visible through the promise;
        // nothing depends on the nested task's own id.
        id_of[fulfiller] = id_of[promise];
        bodies += 2;
        n += 3;
      } else {
        const auto deps = pick_deps(n);
        id_of[n] = graph.submit(body(n, deps), ids_of(deps));
        ++bodies;
        ++n;
      }
    }
    graph.run();
  }

  for (int i = 0; i < kNodes; ++i) ASSERT_EQ(nodes[i].runs.load(), 1) << i;
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(graph.stats().tasks_executed, bodies);
  EXPECT_EQ(graph.stats().tasks_skipped, 0);
}

// --------------------------------------------------- serial bit-identity

TEST(TaskGraph, SerialFallbackBitIdenticalToPooledRun) {
  // A miniature pipeline with slot-keyed writes and an ordered reduction —
  // the determinism shape the search stack relies on. The serial (1-thread)
  // inline mode and a 4-thread pooled run must produce identical bytes.
  const auto run_pipeline = [](core::ThreadPool* pool) {
    core::TaskGraph graph(pool);
    std::vector<double> slots(32);
    std::vector<core::TaskGraph::TaskId> deps;
    for (std::size_t i = 0; i < slots.size(); ++i)
      deps.push_back(graph.submit([&slots, i] {
        double v = 1.0;
        for (std::size_t k = 0; k <= i; ++k) v = v * 1.0000001 + k * 1e-9;
        slots[i] = v;
      }));
    double reduced = 0;
    graph.submit(
        [&] {
          for (const double v : slots) reduced += v;  // fixed fold order
        },
        deps);
    graph.run();
    return std::make_pair(slots, reduced);
  };

  const auto serial = run_pipeline(nullptr);
  core::ThreadPool pool(4);
  const auto pooled = run_pipeline(&pool);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);  // bit-identical fold
}

// --------------------------------------------------- CmaEs step API

TEST(CmaEsStepApi, TellPartialMatchesBarrierAskTell) {
  search::CmaEsOptions opts;
  opts.dim = 4;
  opts.population = 8;
  opts.seed = 11;
  search::CmaEs barrier(opts);
  search::CmaEs stepped(opts);

  const auto fitness_of = [](const std::vector<double>& x) {
    double f = 0;
    for (const double v : x) f += (v - 0.3) * (v - 0.3);
    return f;
  };

  for (int gen = 0; gen < 5; ++gen) {
    const auto pop_a = barrier.ask();
    std::vector<double> fit(pop_a.size());
    for (std::size_t i = 0; i < pop_a.size(); ++i)
      fit[i] = fitness_of(pop_a[i]);
    barrier.tell(pop_a, fit);

    const auto& pop_b = stepped.begin_generation();
    ASSERT_EQ(pop_b, pop_a) << gen;  // identical stream
    EXPECT_TRUE(stepped.generation_open());
    // Report slots out of order: completion triggers on the last one.
    bool completed = false;
    for (std::size_t i = pop_b.size(); i-- > 0;) {
      EXPECT_FALSE(completed);
      completed = stepped.tell_partial(i, fitness_of(pop_b[i]));
    }
    EXPECT_TRUE(completed);
    EXPECT_FALSE(stepped.generation_open());
    ASSERT_EQ(stepped.mean(), barrier.mean()) << gen;  // identical update
    EXPECT_EQ(stepped.sigma(), barrier.sigma()) << gen;
  }
}

// ------------------------------------------- run_naas thread invariance

search::NaasOptions tiny_naas(int threads) {
  search::NaasOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.population = 6;
  opts.iterations = 3;
  opts.seed = 5;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.num_threads = threads;
  return opts;
}

TEST(NaasSearch, BitIdenticalAcrossThreadCounts) {
  // The whole evolution runs on one task graph; every visible result and
  // work meter must be the same whether one thread or four claim its tasks.
  const cost::CostModel model;
  const std::vector<nn::Network> benchmarks{nn::make_network("cifarnet")};

  const auto serial = search::run_naas(model, tiny_naas(1), benchmarks);
  const auto pooled = search::run_naas(model, tiny_naas(4), benchmarks);
  EXPECT_EQ(pooled.best_geomean_edp, serial.best_geomean_edp);
  EXPECT_EQ(search::arch_fingerprint(pooled.best_arch),
            search::arch_fingerprint(serial.best_arch));
  EXPECT_EQ(pooled.cost_evaluations, serial.cost_evaluations);
  EXPECT_EQ(pooled.mapping_searches, serial.mapping_searches);
  EXPECT_EQ(pooled.generations_batched, serial.generations_batched);
  EXPECT_EQ(pooled.tasks_executed, serial.tasks_executed);
  EXPECT_GT(serial.tasks_executed, 0);
  ASSERT_EQ(pooled.population_best_edp.size(),
            serial.population_best_edp.size());
  for (std::size_t i = 0; i < pooled.population_best_edp.size(); ++i) {
    EXPECT_EQ(pooled.population_best_edp[i], serial.population_best_edp[i]);
    EXPECT_EQ(pooled.population_mean_edp[i], serial.population_mean_edp[i]);
  }
  ASSERT_EQ(pooled.best_networks.size(), serial.best_networks.size());
  for (std::size_t i = 0; i < pooled.best_networks.size(); ++i) {
    EXPECT_EQ(pooled.best_networks[i].edp, serial.best_networks[i].edp);
    EXPECT_EQ(pooled.best_networks[i].latency_cycles,
              serial.best_networks[i].latency_cycles);
    EXPECT_EQ(pooled.best_networks[i].energy_nj,
              serial.best_networks[i].energy_nj);
  }
}

}  // namespace
}  // namespace naas
