#include "nas/nas_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "arch/presets.hpp"
#include "search/encoding.hpp"

namespace naas::nas {
namespace {

search::MappingSearchOptions tiny_mapping() {
  search::MappingSearchOptions opts;
  opts.population = 6;
  opts.iterations = 3;
  return opts;
}

TEST(SubnetEvolution, RespectsAccuracyConstraint) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  SubnetEvolutionOptions opts;
  opts.min_accuracy = 77.5;
  opts.population = 6;
  opts.iterations = 3;
  opts.seed = 5;
  const SubnetResult res =
      evolve_subnet(ev, arch::eyeriss_arch(), space, predictor, opts);
  ASSERT_TRUE(std::isfinite(res.edp));
  EXPECT_GE(res.accuracy, opts.min_accuracy);
  EXPECT_DOUBLE_EQ(predictor.predict(res.config), res.accuracy);
}

TEST(SubnetEvolution, LooserConstraintNeverWorseEdp) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  SubnetEvolutionOptions strict;
  strict.min_accuracy = 78.8;
  strict.population = 6;
  strict.iterations = 4;
  strict.seed = 7;
  SubnetEvolutionOptions loose = strict;
  loose.min_accuracy = 74.0;

  const auto arch = arch::nvdla_256_arch();
  const auto rs = evolve_subnet(ev, arch, space, predictor, strict);
  const auto rl = evolve_subnet(ev, arch, space, predictor, loose);
  ASSERT_TRUE(std::isfinite(rs.edp));
  ASSERT_TRUE(std::isfinite(rl.edp));
  // The loose constraint admits every strict-feasible subnet (same seed =>
  // superset of candidates is not guaranteed, but smaller nets dominate
  // EDP so the loose optimum must be at least as good within tolerance).
  EXPECT_LE(rl.edp, rs.edp * 1.05);
}

TEST(SubnetEvolution, InfeasibleConstraintReportsInfinity) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  SubnetEvolutionOptions opts;
  opts.min_accuracy = 99.0;  // unreachable
  opts.population = 4;
  opts.iterations = 2;
  const SubnetResult res =
      evolve_subnet(ev, arch::eyeriss_arch(), nn::OfaSpace{},
                    nn::AccuracyPredictor{}, opts);
  EXPECT_TRUE(std::isinf(res.edp));
}

TEST(CoSearch, ReturnsMatchedTuple) {
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 6;
  opts.hw_iterations = 3;
  opts.seed = 3;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 77.0;
  opts.subnet.population = 5;
  opts.subnet.iterations = 2;

  const CoSearchResult res = run_cosearch(model, opts);
  ASSERT_TRUE(std::isfinite(res.best_edp));
  EXPECT_TRUE(opts.resources.allows(res.best_arch));
  EXPECT_GE(res.best_accuracy, opts.subnet.min_accuracy);
  EXPECT_GT(res.cost_evaluations, 0);
  EXPECT_GT(res.wall_seconds, 0.0);
}

TEST(CoSearch, ResultIsPinnedAcrossThreadCounts) {
  // Pins the whole co-search outcome — winner, score and work meters — to
  // values recorded from a reference run, at 1 and at 4 threads. Any change
  // to subnet breeding, outer CMA-ES, mapping search or the cost model that
  // moves the result (or makes it thread-count dependent) fails here.
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 4;
  opts.hw_iterations = 2;
  opts.seed = 11;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 77.0;
  opts.subnet.population = 6;
  opts.subnet.iterations = 3;

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    opts.num_threads = threads;
    const CoSearchResult res = run_cosearch(model, opts);
    EXPECT_EQ(bits(res.best_edp), 0x42fb693f326810aeULL)
        << std::hexfloat << res.best_edp;
    EXPECT_EQ(bits(res.best_accuracy), 0x405342ffa989b790ULL)
        << std::hexfloat << res.best_accuracy;
    EXPECT_EQ(res.best_net.fingerprint(), 0x24c6a25e6da02dfcULL);
    EXPECT_EQ(search::arch_fingerprint(res.best_arch), 0x3f643736453b630eULL);
    EXPECT_EQ(res.mapping_searches, 2056);
    EXPECT_EQ(res.cost_evaluations, 43176);
  }
}

TEST(CoSearch, JointBeatsFixedNetOnEdp) {
  // The co-search may shrink the network (within the accuracy constraint),
  // so its EDP should be no worse than forcing the full ResNet50-shaped
  // subnet on the same searched accelerator budget.
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 6;
  opts.hw_iterations = 4;
  opts.seed = 9;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 76.5;
  opts.subnet.population = 6;
  opts.subnet.iterations = 3;
  const CoSearchResult joint = run_cosearch(model, opts);
  ASSERT_TRUE(std::isfinite(joint.best_edp));

  search::ArchEvaluator ev(model, tiny_mapping());
  const auto fixed_net =
      nn::OfaSpace{}.to_network(nn::OfaSpace::resnet50_config());
  const auto fixed_cost = ev.evaluate(joint.best_arch, fixed_net);
  ASSERT_TRUE(fixed_cost.legal);
  EXPECT_LE(joint.best_edp, fixed_cost.edp * 1.02);
}

}  // namespace
}  // namespace naas::nas
