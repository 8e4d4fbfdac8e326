/// Cross-algorithm optimality checks on randomized small instances: the
/// exact DP is the oracle; every heuristic must stay within sanity bounds
/// of it and never beat it (which would reveal an evaluator inconsistency).

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "graph/dijkstra.hpp"
#include "oracles/exact.hpp"
#include "sim/scenario.hpp"

namespace dagsfc::core {
namespace {

struct Instance {
  sim::Scenario scenario;
  sfc::DagSfc dag;
  EmbeddingProblem problem;
  std::unique_ptr<ModelIndex> index;
};

std::unique_ptr<Instance> random_instance(Rng& rng, std::size_t nodes,
                                          std::size_t sfc_size) {
  sim::ExperimentConfig cfg;
  cfg.network_size = nodes;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = std::max<std::size_t>(sfc_size, 4);
  cfg.sfc_size = sfc_size;
  cfg.vnf_deploy_ratio = 0.6;  // dense enough that exact stays tractable
  auto inst = std::make_unique<Instance>(Instance{
      sim::make_scenario(rng, cfg), sfc::DagSfc{}, EmbeddingProblem{}, {}});
  inst->dag = sim::make_sfc(rng, inst->scenario.network.catalog(), cfg);
  inst->problem.network = &inst->scenario.network;
  inst->problem.sfc = &inst->dag;
  inst->problem.flow = Flow{inst->scenario.source,
                            inst->scenario.destination, 1.0, 1.0};
  inst->index = std::make_unique<ModelIndex>(inst->problem);
  return inst;
}

class OptimalityGap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OptimalityGap, HeuristicsBoundedByExact) {
  const std::size_t sfc_size = GetParam();
  Rng rng(1000 + sfc_size);
  const ExactEmbedder exact(ExactOptions{20'000'000});
  const BbeEmbedder bbe;
  const MbbeEmbedder mbbe;
  const MinvEmbedder minv;
  const RanvEmbedder ranv;

  int solved = 0;
  for (int trial = 0; trial < 6; ++trial) {
    auto inst = random_instance(rng, 10, sfc_size);
    const auto re = exact.solve_fresh(*inst->index, rng);
    if (!re.ok()) continue;  // exact may refuse oversized enumeration
    ++solved;
    for (const Embedder* h : std::initializer_list<const Embedder*>{
             &bbe, &mbbe, &minv, &ranv}) {
      const auto rh = h->solve_fresh(*inst->index, rng);
      if (!rh.ok()) continue;  // heuristics may legitimately fail
      EXPECT_GE(rh.cost + 1e-9, re.cost)
          << h->name() << " beat the optimum at sfc_size=" << sfc_size;
      EXPECT_LE(rh.cost, 10.0 * re.cost)
          << h->name() << " wildly above optimum";
    }
  }
  EXPECT_GT(solved, 0) << "exact solver never ran — test is vacuous";
}

INSTANTIATE_TEST_SUITE_P(SfcSizes, OptimalityGap,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Optimality, MbbeTracksBbeClosely) {
  // The paper's headline for §4.5: no apparent degradation. Averaged over
  // random instances, MBBE must stay within a few percent of BBE.
  Rng rng(77);
  const BbeEmbedder bbe;
  const MbbeEmbedder mbbe;
  double bbe_total = 0.0;
  double mbbe_total = 0.0;
  int both = 0;
  for (int trial = 0; trial < 15; ++trial) {
    auto inst = random_instance(rng, 30, 5);
    const auto rb = bbe.solve_fresh(*inst->index, rng);
    const auto rm = mbbe.solve_fresh(*inst->index, rng);
    if (!rb.ok() || !rm.ok()) continue;
    ++both;
    bbe_total += rb.cost;
    mbbe_total += rm.cost;
  }
  ASSERT_GT(both, 5);
  EXPECT_LE(mbbe_total, bbe_total * 1.10)
      << "MBBE degraded more than 10% vs BBE on average";
}

TEST(Optimality, MbbeBeatsBaselinesOnAverage) {
  Rng rng(88);
  const MbbeEmbedder mbbe;
  const MinvEmbedder minv;
  const RanvEmbedder ranv;
  double m = 0.0;
  double v = 0.0;
  double r = 0.0;
  int all = 0;
  for (int trial = 0; trial < 15; ++trial) {
    auto inst = random_instance(rng, 40, 5);
    const auto rm = mbbe.solve_fresh(*inst->index, rng);
    const auto rv = minv.solve_fresh(*inst->index, rng);
    const auto rr = ranv.solve_fresh(*inst->index, rng);
    if (!rm.ok() || !rv.ok() || !rr.ok()) continue;
    ++all;
    m += rm.cost;
    v += rv.cost;
    r += rr.cost;
  }
  ASSERT_GT(all, 5);
  EXPECT_LT(m, v);
  EXPECT_LT(m, r);
}

TEST(Optimality, ExactMatchesBruteForceOnOneLayerInstances) {
  // For single-VNF SFCs the optimum is easy to brute force directly:
  // min over hosts of (rental + dist(s,host) + dist(host,t)).
  Rng rng(99);
  const ExactEmbedder exact;
  for (int trial = 0; trial < 10; ++trial) {
    auto inst = random_instance(rng, 15, 1);
    const auto re = exact.solve_fresh(*inst->index, rng);
    ASSERT_TRUE(re.ok()) << re.failure_reason;

    const net::Network& net = inst->scenario.network;
    const auto from_s = graph::dijkstra(net.topology(),
                                        inst->problem.flow.source);
    const auto from_t = graph::dijkstra(net.topology(),
                                        inst->problem.flow.destination);
    const net::VnfTypeId t = inst->dag.layer(0).vnfs[0];
    double best = graph::kInfCost;
    for (graph::NodeId v : net.nodes_with(t)) {
      const double price = net.instance(*net.find_instance(v, t)).price;
      best = std::min(best, price + from_s.dist[v] + from_t.dist[v]);
    }
    EXPECT_NEAR(re.cost, best, 1e-6);
  }
}

}  // namespace
}  // namespace dagsfc::core
