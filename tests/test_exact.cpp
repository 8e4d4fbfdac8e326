#include "oracles/exact.hpp"

#include <gtest/gtest.h>

#include "core/layered.hpp"
#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

TEST(Exact, FindsTheHandVerifiedOptimum) {
  // Enumerated by hand on the canonical fixture: f1@1, f2@5, f3@3,
  // merger@3 at total cost 35 (see test_solution.cpp for the arithmetic).
  auto fx = test::canonical_fixture();
  const ExactEmbedder exact;
  Rng rng(1);
  const auto r = exact.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_DOUBLE_EQ(r.cost, 35.0);
  EXPECT_EQ(r.solution->placement,
            (std::vector<graph::NodeId>{1, 5, 3, 3}));
  const Evaluator ev(*fx->index);
  EXPECT_TRUE(ev.validate(*r.solution).empty());
}

TEST(Exact, SingleVnfChainIsShortestPathPlusRental) {
  test::NetBuilder b(4, 1);
  b.link(0, 1, 2.0).link(1, 2, 2.0).link(2, 3, 2.0).link(0, 3, 9.0);
  b.put(2, 1, 5.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 3, 1.0, 1.0});
  const ExactEmbedder exact;
  Rng rng(2);
  const auto r = exact.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.cost, 11.0);  // 5 + (0-1-2)=4 + (2-3)=2
}

TEST(Exact, ChoosesSteinerPointForMulticast) {
  // Terminals {start, f1-node, f2-node} on a triangle with a cheap hub:
  // the inter-layer multicast must route through the hub (cost 3 < 6).
  test::NetBuilder b(5, 2);
  b.link(0, 1, 3.0).link(0, 2, 3.0).link(1, 2, 3.0);
  b.link(0, 3, 1.0).link(1, 3, 1.0).link(2, 3, 1.0);
  b.link(2, 4, 1.0);
  b.put(1, 1, 1.0).put(2, 2, 1.0);
  b.put(2, b.merger(), 1.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1, 2}}}),
                               Flow{0, 4, 1.0, 1.0});
  const ExactEmbedder exact;
  Rng rng(3);
  const auto r = exact.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // VNF 1+1+1 = 3; inter Steiner {0,1,2} via hub = 3; inner 1→2 cheapest is
  // 1-3-2 = 2; final 2-4 = 1. Total 9.
  EXPECT_DOUBLE_EQ(r.cost, 9.0);
}

TEST(Exact, FlowSizeScalesOptimalCost) {
  auto fx = test::canonical_fixture();
  fx->problem.flow.size = 2.0;
  const ModelIndex idx(fx->problem);
  const ExactEmbedder exact;
  Rng rng(4);
  const auto r = exact.solve(idx, net::CapacityLedger(fx->network), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.cost, 70.0);
}

TEST(Exact, ReportsUnreachableLayer) {
  test::NetBuilder b(3, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0);  // f2 missing
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 2, 1.0, 1.0});
  const ExactEmbedder exact;
  Rng rng(5);
  const auto r = exact.solve_fresh(*fx->index, rng);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(Exact, RefusesOversizedInstances) {
  auto fx = test::canonical_fixture();
  ExactOptions opts;
  opts.max_work = 1;  // absurdly small budget
  const ExactEmbedder exact(opts);
  Rng rng(6);
  const auto r = exact.solve_fresh(*fx->index, rng);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("too large"), std::string::npos);

  // LAYERED refuses through the same work estimate, so at every budget the
  // two engines refuse the same instances; the sweep crosses the fixture's
  // estimate, so both outcomes occur.
  std::size_t refusals = 0;
  std::size_t budgets = 0;
  for (std::size_t budget = 1; budget <= (1u << 16); budget *= 2, ++budgets) {
    SCOPED_TRACE("max_work " + std::to_string(budget));
    ExactOptions eo;
    eo.max_work = budget;
    LayeredOptions lo;
    lo.max_work = budget;
    Rng r1(6);
    Rng r2(6);
    const auto e = ExactEmbedder(eo).solve_fresh(*fx->index, r1);
    const auto l = LayeredEmbedder(lo).solve_fresh(*fx->index, r2);
    const bool e_refused =
        e.failure_reason.find("too large") != std::string::npos;
    const bool l_refused =
        l.failure_reason.find("too large") != std::string::npos;
    EXPECT_EQ(e_refused, l_refused);
    if (e_refused) ++refusals;
  }
  EXPECT_GT(refusals, 0u);
  EXPECT_LT(refusals, budgets);
}

TEST(Exact, FlagsBindingCapacities) {
  // The unconstrained optimum needs the f1 instance twice, but its capacity
  // only allows one use — the solver must refuse rather than return an
  // infeasible "optimum".
  test::NetBuilder b(3, 1);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0, /*capacity=*/1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{1}}}),
      Flow{0, 2, 1.0, 1.0});
  const ExactEmbedder exact;
  Rng rng(7);
  const auto r = exact.solve_fresh(*fx->index, rng);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("capacity"), std::string::npos);
}

TEST(Exact, ScreensInstancesBelowFlowRate) {
  // A cheaper instance that cannot process the flow rate must be skipped in
  // favor of a feasible one.
  test::NetBuilder b(3, 1);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0, /*capacity=*/0.5);   // too small for rate 1.0
  b.put(2, 1, 10.0, /*capacity=*/5.0);
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{1}}}),
                               Flow{0, 2, 1.0, 1.0});
  const ExactEmbedder exact;
  Rng rng(8);
  const auto r = exact.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.solution->placement[0], 2u);
}

}  // namespace
}  // namespace dagsfc::core
