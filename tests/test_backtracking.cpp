#include "core/backtracking.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

MbbeOptions mbbe_options(std::size_t x_max, std::size_t x_d) {
  MbbeOptions opts;
  opts.x_max = x_max;
  opts.x_d = x_d;
  return opts;
}

TEST(Bbe, SolvesCanonicalFixtureWithKnownCost) {
  // Hand trace (see DESIGN.md interpretation): the forward search from f1@1
  // stops after one ring ({0,2,5} covers f2, f3, merger@5), so the only
  // merger candidate is node 5 and the best reachable candidate is
  // f2@5, f3@2, merger@5 at total cost 40.
  auto fx = test::canonical_fixture();
  const BbeEmbedder bbe;
  Rng rng(1);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_DOUBLE_EQ(r.cost, 40.0);
  const Evaluator ev(*fx->index);
  EXPECT_TRUE(ev.validate(*r.solution).empty());
  EXPECT_EQ(r.solution->placement[0], 1u);   // f1
  EXPECT_EQ(r.solution->placement[3], 5u);   // merger found in ring 1
}

TEST(Mbbe, MatchesBbeOnCanonicalFixture) {
  // The paper's observation: MBBE usually selects the same links/VNFs.
  auto fx = test::canonical_fixture();
  const MbbeEmbedder mbbe;
  Rng rng(1);
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_DOUBLE_EQ(r.cost, 40.0);
}

TEST(Bbe, SingleLayerSingleVnf) {
  test::NetBuilder b(3, 1);
  b.link(0, 1, 2.0).link(1, 2, 3.0);
  b.put(1, 1, 7.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 2, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(2);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // 7 rental + 2 (0-1) + 3 (1-2).
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
}

TEST(Bbe, PrefersCheaperOfTwoHosts) {
  test::NetBuilder b(4, 1);
  b.link(0, 1, 1.0).link(0, 2, 1.0).link(1, 3, 1.0).link(2, 3, 1.0);
  b.put(1, 1, 20.0);
  b.put(2, 1, 10.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 3, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(3);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.solution->placement[0], 2u);
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
}

TEST(Bbe, SourceHostingVnfGivesZeroLengthInterPath) {
  test::NetBuilder b(2, 1);
  b.link(0, 1, 5.0);
  b.put(0, 1, 3.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 1, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(4);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.cost, 8.0);  // 3 + final hop 5
  EXPECT_TRUE(r.solution->inter_paths[0].edges.empty());
}

TEST(Bbe, FailsWhenLayerTypeUnreachable) {
  test::NetBuilder b(3, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0);  // f2 missing everywhere
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 2, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(5);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("layer 2"), std::string::npos);
}

TEST(Bbe, FailsWhenNoMergerDeployed) {
  test::NetBuilder b(3, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0).put(1, 2, 1.0);  // parallel layer, but no merger anywhere
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1, 2}}}),
                               Flow{0, 2, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(6);
  EXPECT_FALSE(bbe.solve_fresh(*fx->index, rng).ok());
}

TEST(Bbe, RespectsLedgerResiduals) {
  auto fx = test::canonical_fixture();
  const BbeEmbedder bbe;
  Rng rng(7);
  net::CapacityLedger ledger(fx->network);
  // Exhaust the merger at node 5: BBE must fall back to merger@3.
  ledger.consume_instance(*fx->network.find_instance(5, fx->network.catalog().merger()),
                          100.0);
  const auto r = bbe.solve(*fx->index, ledger, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_EQ(r.solution->placement[3], 3u);
}

TEST(Mbbe, XdOneStillSolves) {
  auto fx = test::canonical_fixture();
  MbbeOptions opts;
  opts.x_d = 1;
  const MbbeEmbedder mbbe(opts);
  Rng rng(8);
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
}

TEST(Mbbe, TinyXmaxFallsBackToUncappedSearch) {
  // X_max=1 freezes the capped forward search at the start node, which
  // hosts nothing; the engine's uncapped retry pass must still solve the
  // instance ("MBBE always results in a solution").
  auto fx = test::canonical_fixture();
  MbbeOptions opts;
  opts.x_max = 1;
  const MbbeEmbedder mbbe(opts);
  Rng rng(9);
  const auto r = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_DOUBLE_EQ(r.cost, 40.0);  // same result as the unconstrained run
}

TEST(Mbbe, InvalidOptionsRejected) {
  EXPECT_THROW(MbbeEmbedder(mbbe_options(0, 4)), ContractViolation);
  EXPECT_THROW(MbbeEmbedder(mbbe_options(50, 0)), ContractViolation);
}

TEST(Mbbe, ExpandsFewerSubSolutionsThanBbe) {
  auto fx = test::canonical_fixture();
  const BbeEmbedder bbe;
  const MbbeEmbedder mbbe(mbbe_options(50, 1));
  Rng rng(10);
  const auto rb = bbe.solve_fresh(*fx->index, rng);
  const auto rm = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(rb.ok() && rm.ok());
  EXPECT_LE(rm.expanded_sub_solutions, rb.expanded_sub_solutions);
}

TEST(Engine, MulticastDiscountExploitedOnSharedInterPath) {
  // Both parallel VNFs sit behind the same expensive bridge; the layer's
  // inter multicast must charge the bridge once.
  test::NetBuilder b(5, 2);
  b.link(0, 1, 10.0);             // the bridge
  b.link(1, 2, 1.0).link(1, 3, 1.0).link(2, 4, 1.0).link(3, 4, 1.0);
  b.put(2, 1, 5.0).put(3, 2, 5.0);
  b.put(4, b.merger(), 1.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1, 2}}}),
                               Flow{0, 4, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(11);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // VNF 5+5+1=11; links: bridge 10 once + 1-2,1-3 inter (2) + inner
  // 2-4,3-4 (2) + final at 4 (0).
  EXPECT_DOUBLE_EQ(r.cost, 25.0);
}

TEST(Engine, DestinationHostingMergerGivesZeroFinalHop) {
  test::NetBuilder b(3, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(0, 2, 1.0);
  b.put(1, 1, 2.0).put(1, 2, 2.0);
  b.put(2, b.merger(), 1.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1, 2}}}),
                               Flow{0, 2, 1.0, 1.0});
  const BbeEmbedder bbe;
  Rng rng(12);
  const auto r = bbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  const auto [dfirst, dlast] = fx->index->inter_group_range(1);
  ASSERT_EQ(dlast - dfirst, 1u);
  EXPECT_TRUE(r.solution->inter_paths[dfirst].edges.empty());
}

TEST(Engine, AlternativeRealPathsEscapeTheBfsTreePath) {
  // The BFS tree discovers node 1 through the expensive direct link, so the
  // single-tree-path BBE pays 10 for the meta-path; enumerating the paper's
  // alternative real-paths (ρ over P^a_b) finds the cheap detour 0-2-1.
  test::NetBuilder b(3, 1);
  b.link(0, 1, 10.0).link(0, 2, 1.0).link(2, 1, 1.0);
  b.put(1, 1, 5.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 1, 1.0, 1.0});
  Rng rng(20);
  const BbeEmbedder single_path;
  const auto r1 = single_path.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1.cost, 15.0);

  BacktrackingOptions opts;
  opts.paths_per_meta_path = 3;
  const BbeEmbedder multi_path(opts);
  const auto r3 = multi_path.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r3.ok());
  EXPECT_DOUBLE_EQ(r3.cost, 7.0);
  EXPECT_GT(r3.expanded_sub_solutions, r1.expanded_sub_solutions);
}

TEST(Engine, PathCombosEnumeratedForParallelLayers) {
  // Parallel layer with two routes per inner meta-path: with combos capped
  // at 1 only the tree paths are used; with more combos the engine may mix
  // alternatives. Costs must never get worse as the cap grows.
  auto fx = test::canonical_fixture();
  BacktrackingOptions narrow;
  narrow.paths_per_meta_path = 2;
  narrow.max_path_combos = 1;
  BacktrackingOptions wide = narrow;
  wide.max_path_combos = 16;
  Rng rng(21);
  const BbeEmbedder n_engine(narrow);
  const BbeEmbedder w_engine(wide);
  const auto rn = n_engine.solve_fresh(*fx->index, rng);
  const auto rw = w_engine.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(rn.ok() && rw.ok());
  EXPECT_LE(rw.cost, rn.cost + 1e-9);
  EXPECT_GE(rw.expanded_sub_solutions, rn.expanded_sub_solutions);
}

TEST(Engine, MultiPathMbbeNeverWorseThanSinglePath) {
  auto fx = test::canonical_fixture();
  Rng rng(22);
  const MbbeEmbedder base;
  BacktrackingOptions opts;
  opts.min_cost_path_instantiation = true;
  opts.x_max = 50;
  opts.x_d = 4;
  opts.paths_per_meta_path = 4;
  const BbeEmbedder multi(opts);
  const auto rb = base.solve_fresh(*fx->index, rng);
  const auto rm = multi.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(rb.ok() && rm.ok());
  EXPECT_LE(rm.cost, rb.cost + 1e-9);
}

TEST(Engine, SolveFreshEqualsSolveWithNominalLedger) {
  auto fx = test::canonical_fixture();
  const MbbeEmbedder mbbe;
  Rng rng(13);
  net::CapacityLedger ledger(fx->network);
  const auto a = mbbe.solve_fresh(*fx->index, rng);
  const auto b2 = mbbe.solve(*fx->index, ledger, rng);
  ASSERT_TRUE(a.ok() && b2.ok());
  EXPECT_DOUBLE_EQ(a.cost, b2.cost);
  EXPECT_EQ(a.solution->placement, b2.solution->placement);
}

}  // namespace
}  // namespace dagsfc::core
