#include "core/ilp.hpp"

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "oracles/exact.hpp"
#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

TEST(IlpModel, ObjectiveAndViolations) {
  IlpModel m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  m.add_objective_term(3.0, a);
  m.add_objective_term(2.0, b);
  LinConstraint c;
  c.name = "pick_one";
  c.rel = Relation::Eq;
  c.rhs = 1.0;
  c.lhs.add(1.0, a).add(1.0, b);
  m.add_constraint(std::move(c));

  EXPECT_DOUBLE_EQ(m.objective_value({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(m.objective_value({0.0, 1.0}), 2.0);
  EXPECT_TRUE(m.violations({1.0, 0.0}).empty());
  EXPECT_EQ(m.violations({1.0, 1.0}).size(), 1u);
  EXPECT_EQ(m.violations({0.0, 0.0}).size(), 1u);
}

TEST(IlpModel, RelationSemantics) {
  IlpModel m;
  const VarId a = m.add_binary("a");
  LinConstraint ge;
  ge.name = "ge";
  ge.rel = Relation::GreaterEq;
  ge.rhs = 1.0;
  ge.lhs.add(2.0, a);
  m.add_constraint(std::move(ge));
  LinConstraint le;
  le.name = "le";
  le.rel = Relation::LessEq;
  le.rhs = 2.0;
  le.lhs.add(2.0, a);
  m.add_constraint(std::move(le));
  EXPECT_TRUE(m.violations({1.0}).empty());
  EXPECT_FALSE(m.violations({0.0}).empty());
}

TEST(IlpModel, LpExportHasAllSections) {
  IlpModel m;
  const VarId a = m.add_binary("alpha");
  m.add_objective_term(1.5, a);
  LinConstraint c;
  c.name = "r1";
  c.rel = Relation::GreaterEq;
  c.rhs = 1.0;
  c.lhs.add(1.0, a);
  m.add_constraint(std::move(c));
  const std::string lp = m.to_lp();
  EXPECT_NE(lp.find("Minimize"), std::string::npos);
  EXPECT_NE(lp.find("Subject To"), std::string::npos);
  EXPECT_NE(lp.find("Binary"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
  EXPECT_NE(lp.find("r1:"), std::string::npos);
  EXPECT_NE(lp.find("alpha"), std::string::npos);
  EXPECT_NE(lp.find(">="), std::string::npos);
}

TEST(IlpBuilder, CanonicalFixtureModelShape) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  IlpBuilder builder(*fx->index, ledger);
  const IlpModel m = builder.build();
  // 4 slots with 1+2+2+2 = 7 hosts → 7 placement vars; plus selections and
  // multicast binaries.
  EXPECT_GT(m.num_variables(), 7u);
  EXPECT_GT(m.num_constraints(), 4u);
  const std::string lp = m.to_lp();
  EXPECT_NE(lp.find("assign_s0:"), std::string::npos);
  EXPECT_NE(lp.find("vnfcap_"), std::string::npos);
  EXPECT_NE(lp.find("linkcap_"), std::string::npos);
}

TEST(IlpBuilder, EveryAlgorithmSolutionIsAFeasibleIlpPoint) {
  // The central consistency theorem of the reproduction: any solution our
  // algorithms produce satisfies the paper's constraint system, and its
  // ILP objective equals the Evaluator's cost.
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  IlpBuilder builder(*fx->index, ledger, IlpOptions{8});
  const IlpModel m = builder.build();
  const Evaluator ev(*fx->index);

  const RanvEmbedder ranv;
  const MinvEmbedder minv;
  const BbeEmbedder bbe;
  const MbbeEmbedder mbbe;
  const ExactEmbedder exact;
  Rng rng(5);
  for (const Embedder* algo : std::initializer_list<const Embedder*>{
           &ranv, &minv, &bbe, &mbbe, &exact}) {
    const auto r = algo->solve(*fx->index, ledger, rng);
    ASSERT_TRUE(r.ok()) << algo->name() << ": " << r.failure_reason;
    const auto x = builder.assignment_from(*r.solution);
    ASSERT_TRUE(x.has_value())
        << algo->name() << ": real-path missing from candidate enumeration";
    const auto bad = m.violations(*x);
    EXPECT_TRUE(bad.empty()) << algo->name() << " violates " << bad.front();
    EXPECT_NEAR(m.objective_value(*x), r.cost, 1e-6) << algo->name();
  }
}

TEST(IlpBuilder, CapacityRowsReflectLedgerState) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  // Drain f2@5 so its capacity row would be rhs 0 — builder instead screens
  // the host out entirely (no placement var for it).
  const auto id = *fx->network.find_instance(5, 2);
  ledger.consume_instance(id, ledger.instance_residual(id));
  IlpBuilder builder(*fx->index, ledger);
  const IlpModel m = builder.build();
  EXPECT_EQ(m.to_lp().find("x_s1_n5"), std::string::npos);
  EXPECT_NE(m.to_lp().find("x_s1_n2"), std::string::npos);
}

TEST(IlpBuilder, AssignmentFromRejectsForeignPaths) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  // With a single candidate path per pair, an algorithm may route a
  // meta-path along a path the enumeration does not contain.
  IlpBuilder narrow(*fx->index, ledger, IlpOptions{1});
  (void)narrow.build();
  const MbbeEmbedder mbbe;
  Rng rng(6);
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  // Either found (nullopt not guaranteed) — but a corrupted placement must
  // always be rejected.
  EmbeddingSolution broken = *r.solution;
  broken.placement[0] = 0;  // node 0 hosts nothing → no placement var
  EXPECT_FALSE(narrow.assignment_from(broken).has_value());
}

TEST(IlpBuilder, InfeasibleOverCapacityAssignmentDetected) {
  // Force a rate that makes two uses of one instance infeasible and check
  // the capacity row catches a double-placed assignment.
  test::NetBuilder b(3, 1);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 2.0, /*capacity=*/1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{1}}}),
      Flow{0, 2, 1.0, 1.0});
  net::CapacityLedger ledger(fx->network);
  IlpBuilder builder(*fx->index, ledger, IlpOptions{4});
  const IlpModel m = builder.build();

  // Hand-build the (infeasible) double placement on node 1.
  EmbeddingSolution sol;
  sol.placement = {1, 1};
  graph::Path p01;
  p01.nodes = {0, 1};
  p01.edges = {*fx->network.topology().find_edge(0, 1)};
  graph::Path stay;
  stay.nodes = {1};
  graph::Path p12;
  p12.nodes = {1, 2};
  p12.edges = {*fx->network.topology().find_edge(1, 2)};
  sol.inter_paths = {p01, stay, p12};
  const auto x = builder.assignment_from(sol);
  ASSERT_TRUE(x.has_value());
  const auto bad = m.violations(*x);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("vnfcap"), std::string::npos);
}

TEST(IlpBuilder, DeterministicAcrossBuilds) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  IlpBuilder b1(*fx->index, ledger);
  IlpBuilder b2(*fx->index, ledger);
  EXPECT_EQ(b1.build().to_lp(), b2.build().to_lp());
}

}  // namespace
}  // namespace dagsfc::core
