/// Cross-validation on randomized instances: the ILP formulation, the
/// Evaluator, and the algorithms must agree with each other far beyond the
/// hand fixtures.

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/ilp.hpp"
#include "oracles/exact.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

struct Inst {
  sim::Scenario scenario;
  sfc::DagSfc dag;
  EmbeddingProblem problem;
  std::unique_ptr<ModelIndex> index;
};

std::unique_ptr<Inst> random_instance(Rng& rng, std::size_t nodes,
                                      std::size_t sfc_size,
                                      double deploy = 0.5) {
  sim::ExperimentConfig cfg;
  cfg.network_size = nodes;
  cfg.network_connectivity = 3.5;
  cfg.catalog_size = std::max<std::size_t>(sfc_size, 5);
  cfg.sfc_size = sfc_size;
  cfg.vnf_deploy_ratio = deploy;
  auto inst = std::make_unique<Inst>(
      Inst{sim::make_scenario(rng, cfg), sfc::DagSfc{}, EmbeddingProblem{},
           nullptr});
  inst->dag = sim::make_sfc(rng, inst->scenario.network.catalog(), cfg);
  inst->problem.network = &inst->scenario.network;
  inst->problem.sfc = &inst->dag;
  inst->problem.flow =
      Flow{inst->scenario.source, inst->scenario.destination, 1.0, 1.0};
  inst->index = std::make_unique<ModelIndex>(inst->problem);
  return inst;
}

class IlpCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpCrossValidation, MinCostRoutedSolutionsAreFeasibleIlpPoints) {
  Rng rng(GetParam());
  auto inst = random_instance(rng, 14, 4);
  net::CapacityLedger ledger(inst->scenario.network);
  // Dijkstra-routed algorithms always pick the cheapest loopless path, which
  // Yen enumerates first — so every real-path is in the candidate set.
  IlpBuilder builder(*inst->index, ledger, IlpOptions{6});
  const IlpModel model = builder.build();

  const MinvEmbedder minv;
  const MbbeEmbedder mbbe;
  for (const Embedder* algo :
       std::initializer_list<const Embedder*>{&minv, &mbbe}) {
    const auto r = algo->solve(*inst->index, ledger, rng);
    if (!r.ok()) continue;
    const auto x = builder.assignment_from(*r.solution);
    ASSERT_TRUE(x.has_value()) << algo->name();
    const auto bad = model.violations(*x);
    EXPECT_TRUE(bad.empty()) << algo->name() << ": " << bad.front();
    EXPECT_NEAR(model.objective_value(*x), r.cost, 1e-6) << algo->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpCrossValidation,
                         ::testing::Range<std::uint64_t>(500, 510));

TEST(IlpCrossValidation, ExactChainSolutionsAreFeasibleIlpPoints) {
  // Pure chains (max layer width 1): the exact solver routes every
  // meta-path with a min-cost path, which Yen's enumeration contains, so
  // the DP optimum must be a feasible ILP point with the same objective.
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    sim::ExperimentConfig cfg;
    cfg.network_size = 12;
    cfg.network_connectivity = 3.0;
    cfg.catalog_size = 5;
    cfg.sfc_size = 3;
    cfg.max_layer_width = 1;
    auto scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(),
                                          cfg);
    EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const ModelIndex index(problem);
    net::CapacityLedger ledger(scenario.network);

    const ExactEmbedder exact;
    const auto r = exact.solve(index, ledger, rng);
    ASSERT_TRUE(r.ok()) << r.failure_reason;

    IlpBuilder builder(index, ledger, IlpOptions{8});
    const IlpModel model = builder.build();
    const auto x = builder.assignment_from(*r.solution);
    ASSERT_TRUE(x.has_value());
    EXPECT_TRUE(model.violations(*x).empty());
    EXPECT_NEAR(model.objective_value(*x), r.cost, 1e-6);
  }
}

TEST(CrossLayer, SharedLinkChargedPerLayer) {
  // The same physical link carries traffic of two different layers: the
  // multicast discount is per layer, so the link is charged twice.
  //
  //   0 --- 1 --- 2    SFC [f1] -> [f2], flow 0 -> 0.
  //   f1@2, f2@0: layer-1 inter path 0-1-2, layer-2 inter path 2-1-0,
  //   destination hop trivial. Edges 0-1 and 1-2 each carry two layers.
  test::NetBuilder b(3, 2);
  b.link(0, 1, 2.0).link(1, 2, 3.0);
  b.put(2, 1, 1.0).put(0, 2, 1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 0, 1.0, 1.0});
  const MbbeEmbedder mbbe;
  Rng rng(1);
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  const Evaluator ev(*fx->index);
  const ResourceUsage u = ev.usage(*r.solution);
  const auto e01 = fx->network.topology().find_edge(0, 1);
  const auto e12 = fx->network.topology().find_edge(1, 2);
  EXPECT_EQ(u.link_uses[*e01], 2u);
  EXPECT_EQ(u.link_uses[*e12], 2u);
  // Cost: rentals 2 + 2·(2+3) links = 12.
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
}

TEST(WideLayers, WidthFourLayerEmbedsAndValidates) {
  test::NetBuilder b(8, 4);
  // Wheel: hub 0 to all, rim cycle.
  for (graph::NodeId v = 1; v < 8; ++v) b.link(0, v, 1.0);
  for (graph::NodeId v = 1; v < 7; ++v) b.link(v, v + 1, 1.0);
  for (net::VnfTypeId t = 1; t <= 4; ++t) b.put(t, t, 10.0);
  b.put(5, b.merger(), 2.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1, 2, 3, 4}}}),
      Flow{7, 6, 1.0, 1.0});
  Rng rng(2);
  const Evaluator ev(*fx->index);
  for (const Embedder* algo : std::initializer_list<const Embedder*>{
           new BbeEmbedder, new MbbeEmbedder, new MinvEmbedder}) {
    const auto r = algo->solve_fresh(*fx->index, rng);
    ASSERT_TRUE(r.ok()) << algo->name() << ": " << r.failure_reason;
    EXPECT_TRUE(ev.validate(*r.solution).empty()) << algo->name();
    // 4 VNFs + merger rented, every meta-path realized.
    EXPECT_EQ(r.solution->inter_paths.size(), 5u);
    EXPECT_EQ(r.solution->inner_paths.size(), 4u);
    delete algo;
  }
}

TEST(WideLayers, AssignmentCapBoundsSearchNotCorrectness) {
  // A 3-wide layer with many hosts per type explodes combinatorially; the
  // engine's assignment cap must bound the work while a solution is still
  // produced and valid.
  Rng rng(3);
  auto inst = random_instance(rng, 60, 9, 0.7);
  BacktrackingOptions opts;
  opts.min_cost_path_instantiation = true;
  opts.x_max = 40;
  opts.x_d = 2;
  opts.max_assignments_per_pair = 4;  // drastic cap
  const BbeEmbedder capped(opts);
  const auto r = capped.solve_fresh(*inst->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Evaluator ev(*inst->index);
  EXPECT_TRUE(ev.validate(*r.solution).empty());

  const MbbeEmbedder uncapped;
  const auto ru = uncapped.solve_fresh(*inst->index, rng);
  ASSERT_TRUE(ru.ok());
  EXPECT_GE(ru.expanded_sub_solutions, r.expanded_sub_solutions);
}

TEST(Determinism, AllDeterministicAlgorithmsStableAcrossRepeats) {
  Rng rng(4);
  auto inst = random_instance(rng, 30, 5);
  const MinvEmbedder minv;
  const BbeEmbedder bbe;
  const MbbeEmbedder mbbe;
  for (const Embedder* algo : std::initializer_list<const Embedder*>{
           &minv, &bbe, &mbbe}) {
    Rng r1(9);
    Rng r2(9);
    const auto a = algo->solve_fresh(*inst->index, r1);
    const auto b2 = algo->solve_fresh(*inst->index, r2);
    ASSERT_EQ(a.ok(), b2.ok()) << algo->name();
    if (a.ok()) {
      EXPECT_DOUBLE_EQ(a.cost, b2.cost) << algo->name();
      EXPECT_EQ(a.solution->placement, b2.solution->placement)
          << algo->name();
    }
  }
}

}  // namespace
}  // namespace dagsfc::core
