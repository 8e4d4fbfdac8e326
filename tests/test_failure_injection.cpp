/// Failure injection: exhausted resources, unreachable placements, and
/// degenerate inputs. Every algorithm must fail *cleanly* — a SolveResult
/// with ok()==false and a reason — never a crash, hang, or an invalid
/// "solution".

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "oracles/exact.hpp"
#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

std::vector<std::unique_ptr<Embedder>> all_algorithms() {
  std::vector<std::unique_ptr<Embedder>> v;
  v.push_back(std::make_unique<RanvEmbedder>());
  v.push_back(std::make_unique<MinvEmbedder>());
  v.push_back(std::make_unique<BbeEmbedder>());
  v.push_back(std::make_unique<MbbeEmbedder>());
  v.push_back(std::make_unique<ExactEmbedder>());
  return v;
}

TEST(FailureInjection, AllInstancesOfOneTypeExhausted) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  // Drain every f2 instance (nodes 2 and 5).
  for (graph::NodeId v : fx->network.nodes_with(2)) {
    const auto id = *fx->network.find_instance(v, 2);
    ledger.consume_instance(id, ledger.instance_residual(id));
  }
  Rng rng(1);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve(*fx->index, ledger, rng);
    EXPECT_FALSE(r.ok()) << algo->name();
    EXPECT_FALSE(r.failure_reason.empty()) << algo->name();
  }
}

TEST(FailureInjection, AllLinksDrained) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  for (graph::EdgeId e = 0; e < fx->network.num_links(); ++e) {
    ledger.consume_link(e, ledger.link_residual(e));
  }
  Rng rng(2);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve(*fx->index, ledger, rng);
    EXPECT_FALSE(r.ok()) << algo->name();
  }
}

TEST(FailureInjection, CutLinkDisconnectsDestination) {
  // Drain only the links into node 4 (the destination): embeddings must
  // fail at the final hop, not crash.
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  const auto e34 = fx->network.topology().find_edge(3, 4);
  ledger.consume_link(*e34, ledger.link_residual(*e34));
  Rng rng(3);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve(*fx->index, ledger, rng);
    EXPECT_FALSE(r.ok()) << algo->name();
  }
}

TEST(FailureInjection, PartialDrainStillSolvable) {
  // Drain the cheap f2@5; everyone must fall back to f2@2 and succeed.
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  const auto id = *fx->network.find_instance(5, 2);
  ledger.consume_instance(id, ledger.instance_residual(id));
  Rng rng(4);
  const Evaluator ev(*fx->index);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve(*fx->index, ledger, rng);
    ASSERT_TRUE(r.ok()) << algo->name() << ": " << r.failure_reason;
    EXPECT_EQ(r.solution->placement[1], 2u) << algo->name();
    EXPECT_TRUE(ev.feasible(ev.usage(*r.solution), ledger)) << algo->name();
  }
}

TEST(FailureInjection, RateLargerThanEveryCapacityFailsEverywhere) {
  auto fx = test::canonical_fixture();
  fx->problem.flow.rate = 1000.0;  // beyond all capacities (100)
  const ModelIndex index(fx->problem);
  net::CapacityLedger ledger(fx->network);
  Rng rng(5);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve(index, ledger, rng);
    EXPECT_FALSE(r.ok()) << algo->name();
  }
}

TEST(FailureInjection, IsolatedButDeployedNodesAreUnusable) {
  // f2's only host sits behind links with zero capacity.
  test::NetBuilder b(4, 2);
  b.link(0, 1, 1.0);
  b.link(1, 2, 1.0, /*capacity=*/0.0);  // the cut
  b.link(1, 3, 1.0);
  b.put(1, 1, 1.0).put(2, 2, 1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 3, 1.0, 1.0});
  Rng rng(6);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve_fresh(*fx->index, rng);
    EXPECT_FALSE(r.ok()) << algo->name();
  }
}

TEST(FailureInjection, FailuresDoNotMutateTheLedger) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  for (graph::NodeId v : fx->network.nodes_with(2)) {
    const auto id = *fx->network.find_instance(v, 2);
    ledger.consume_instance(id, ledger.instance_residual(id));
  }
  const double link_before = ledger.total_link_consumed();
  const double inst_before = ledger.total_instance_consumed();
  Rng rng(7);
  for (const auto& algo : all_algorithms()) {
    (void)algo->solve(*fx->index, ledger, rng);
  }
  EXPECT_DOUBLE_EQ(ledger.total_link_consumed(), link_before);
  EXPECT_DOUBLE_EQ(ledger.total_instance_consumed(), inst_before);
}

TEST(FailureInjection, SingleNodeFlowWithLocalVnfs) {
  // Degenerate but legal: source == destination, everything co-located.
  test::NetBuilder b(2, 2);
  b.link(0, 1, 1.0);
  b.put(0, 1, 2.0).put(0, 2, 3.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 0, 1.0, 1.0});
  Rng rng(8);
  for (const auto& algo : all_algorithms()) {
    const auto r = algo->solve_fresh(*fx->index, rng);
    ASSERT_TRUE(r.ok()) << algo->name() << ": " << r.failure_reason;
    EXPECT_DOUBLE_EQ(r.cost, 5.0) << algo->name();  // rentals only, no links
  }
}

TEST(FailureInjection, MbbeSurvivesWhereItMustAndReportsWhereItCant) {
  // The paper's robustness claim, miniaturized: a feasible-but-awkward
  // instance (single host per type, far apart) must still embed.
  test::NetBuilder b(7, 3);
  for (graph::NodeId v = 0; v + 1 < 7; ++v) b.link(v, v + 1, 1.0);
  b.put(1, 1, 5.0).put(3, 2, 5.0).put(5, 3, 5.0);
  b.put(6, b.merger(), 5.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2, 3}}}),
      Flow{0, 6, 1.0, 1.0});
  Rng rng(9);
  const MbbeEmbedder mbbe;
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Evaluator ev(*fx->index);
  EXPECT_TRUE(ev.validate(*r.solution).empty());
}

}  // namespace
}  // namespace dagsfc::core
