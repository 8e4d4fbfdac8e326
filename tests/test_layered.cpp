/// Differential battery for core::LayeredEmbedder, the joint
/// placement+routing search over the implicit layered product graph.
///
/// The layered solver claims optimality for the uncapacitated objective —
/// the same claim ExactEmbedder makes by per-layer dynamic programming.
/// Two independent algorithms arriving at the same optimum is the strongest
/// oracle this library has, so the battery holds LAYERED to:
///
///   * cost bitwise-equal to EXACT on every corpus instance where the exact
///     solver runs, and on 200 seeded random instances;
///   * never costlier than the BBE/MBBE heuristics anywhere (their
///     solutions are feasible points of the same objective);
///   * every returned solution passing the independent SolutionValidator
///     (admissibility + bitwise cost recomputation);
///   * indifference to a dirty caller workspace, like every flat-tier
///     search (mirrors test_search_flat.cpp);
///   * a truthful trace: LayeredLevel/LayeredGadget decision events plus a
///     cost-event envelope whose sum reproduces the reported cost bitwise.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/backtracking.hpp"
#include "core/delay.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "graph/workspace.hpp"
#include "net/io.hpp"
#include "oracles/exact.hpp"
#include "sfc/io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

core::SolveResult solve_fresh(const core::Embedder& algo,
                              const core::ModelIndex& index,
                              std::uint64_t seed,
                              graph::SearchWorkspace* ws = nullptr) {
  net::CapacityLedger ledger(index.problem().net());
  Rng rng(seed);
  return algo.solve(index, ledger, rng, nullptr, ws);
}

void expect_valid(const core::ModelIndex& index,
                  const core::SolveResult& result) {
  const core::SolutionValidator validator(index);
  const net::CapacityLedger fresh(index.problem().net());
  const auto audit = validator.check(result, fresh);
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

/// The whole cross-embedder contract on one instance: validity of the
/// layered solution, bitwise agreement with EXACT, dominance over BBE/MBBE.
/// Returns whether the exact oracle was available on this instance.
bool run_cross_embedder(const core::ModelIndex& index, std::uint64_t seed) {
  const core::LayeredEmbedder layered{
      core::LayeredOptions{.delay_budget_ms = std::nullopt,
                           .delay_model = {},
                           .max_work = 50'000'000,
                           .max_labels = 2'000'000}};
  const core::ExactEmbedder exact{core::ExactOptions{50'000'000}};
  const core::BbeEmbedder bbe;
  const core::MbbeEmbedder mbbe;

  const auto lay = solve_fresh(layered, index, seed);
  expect_valid(index, lay);

  const auto ex = solve_fresh(exact, index, seed);
  if (ex.ok()) {
    EXPECT_TRUE(lay.ok()) << lay.failure_reason;
    if (lay.ok()) {
      EXPECT_EQ(lay.cost, ex.cost)  // bit-identical, not approximate
          << "layered diverged from the exact optimum";
    }
  }
  // The heuristics respect capacities *during* search, so they may embed
  // instances whose uncapacitated optimum is infeasible (where LAYERED,
  // like EXACT, refuses post-hoc). Dominance is claimed whenever LAYERED
  // does return: its solution is the uncapacitated optimum, and every
  // heuristic solution is a feasible point of the same objective.
  for (const core::Embedder* heuristic :
       std::initializer_list<const core::Embedder*>{&bbe, &mbbe}) {
    const auto h = solve_fresh(*heuristic, index, seed);
    if (h.ok() && lay.ok()) {
      EXPECT_LE(lay.cost, h.cost)
          << "layered costlier than " << heuristic->name();
    }
  }
  return ex.ok();
}

// ---------------------------------------------------------------------------
// Corpus instances.

class LayeredCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(LayeredCorpus, MatchesExactBeatsHeuristics) {
  const std::string dir = std::string(DAGSFC_CORPUS_DIR) + "/";
  net::Network network =
      net::network_from_text(slurp(dir + GetParam() + std::string(".net.txt")));
  const sfc::SfcFile file =
      sfc::sfc_from_text(slurp(dir + GetParam() + std::string(".sfc.txt")));
  ASSERT_TRUE(file.flow.has_value());

  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &file.dag;
  problem.flow = core::Flow{file.flow->source, file.flow->destination,
                            file.flow->rate, file.flow->size};
  const core::ModelIndex index(problem);
  run_cross_embedder(index, /*seed=*/1);
}

INSTANTIATE_TEST_SUITE_P(Instances, LayeredCorpus,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// ---------------------------------------------------------------------------
// 200 seeded random instances.

TEST(LayeredDifferential, TwoHundredRandomInstances) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  Rng seeder(0x1a9e7edb17ull);
  int exact_agreements = 0;
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    if (run_cross_embedder(index, /*seed=*/3000 + i)) ++exact_agreements;
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  // The oracle must actually have had teeth on a healthy share of draws.
  EXPECT_GE(exact_agreements, 100);
}

// ---------------------------------------------------------------------------
// Canonical fixture: the known-by-hand instance.

TEST(Layered, CanonicalFixtureOptimal) {
  auto fx = test::canonical_fixture();
  const core::LayeredEmbedder layered;
  const core::ExactEmbedder exact;
  const auto lay = solve_fresh(layered, *fx->index, 7);
  const auto ex = solve_fresh(exact, *fx->index, 7);
  ASSERT_TRUE(lay.ok()) << lay.failure_reason;
  ASSERT_TRUE(ex.ok()) << ex.failure_reason;
  EXPECT_EQ(lay.cost, ex.cost);
  EXPECT_EQ(lay.candidate_solutions, 1u);
  expect_valid(*fx->index, lay);
}

// ---------------------------------------------------------------------------
// Workspace hygiene: a dirty caller workspace changes nothing, including
// one previously used by a *different* solver and by prior layered solves.

TEST(Layered, SharedDirtyWorkspaceChangesNothing) {
  auto fx = test::canonical_fixture();
  const core::LayeredEmbedder layered;
  const core::MbbeEmbedder mbbe;
  graph::SearchWorkspace ws;

  (void)solve_fresh(mbbe, *fx->index, 3, &ws);  // dirty the workspace
  const auto first = solve_fresh(layered, *fx->index, 7, &ws);
  const auto second = solve_fresh(layered, *fx->index, 7, &ws);
  const auto fresh = solve_fresh(layered, *fx->index, 7);

  ASSERT_TRUE(fresh.ok()) << fresh.failure_reason;
  for (const auto* r : {&first, &second}) {
    ASSERT_TRUE(r->ok());
    EXPECT_EQ(r->cost, fresh.cost);
    EXPECT_EQ(r->solution->placement, fresh.solution->placement);
    EXPECT_EQ(r->expanded_sub_solutions, fresh.expanded_sub_solutions);
  }
}

// ---------------------------------------------------------------------------
// Trace contract: decision events present, cost envelope reproduces the
// reported cost bitwise (the solve() envelope adds Cost events).

TEST(Layered, TraceEventsAndReconstructedCost) {
  auto fx = test::canonical_fixture();
  const core::LayeredEmbedder layered;
  net::CapacityLedger ledger(fx->network);
  Rng rng(7);
  core::EmbeddingTrace trace;
  const auto r = layered.solve(*fx->index, ledger, rng, &trace);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_EQ(trace.reconstructed_cost(), r.cost);  // bitwise

  std::size_t levels = 0;
  std::size_t gadgets = 0;
  for (const auto& e : trace.events()) {
    if (e.kind == core::TraceEventKind::LayeredLevel) ++levels;
    if (e.kind == core::TraceEventKind::LayeredGadget) ++gadgets;
  }
  // One LayeredLevel summary per level (ω + 1), and the parallel layer must
  // have fired at least one gadget.
  EXPECT_EQ(levels, fx->dag.num_layers() + 1);
  EXPECT_GE(gadgets, 1u);
}

// ---------------------------------------------------------------------------
// Delay budgets (the scalar/bi-criteria seam; metamorphic relations live in
// test_metamorphic.cpp).

TEST(Layered, GenerousBudgetKeepsTheOptimum) {
  auto fx = test::canonical_fixture();
  const core::LayeredEmbedder unconstrained;
  const auto base = solve_fresh(unconstrained, *fx->index, 7);
  ASSERT_TRUE(base.ok()) << base.failure_reason;

  const core::Evaluator evaluator(*fx->index);
  const core::DelayModel model;
  const double base_delay =
      core::end_to_end_delay(evaluator, *base.solution, model);

  core::LayeredOptions opts;
  // Admits the optimum; the hair of slack absorbs summation-order ulps
  // between the label engine's hop-by-hop accumulation and the per-layer
  // sums of end_to_end_delay.
  opts.delay_budget_ms = base_delay + 1e-6;
  opts.delay_model = model;
  const core::LayeredEmbedder budgeted{opts};
  const auto r = solve_fresh(budgeted, *fx->index, 7);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  expect_valid(*fx->index, r);
  EXPECT_NEAR(r.cost, base.cost, 1e-9);
  EXPECT_LE(core::end_to_end_delay(evaluator, *r.solution, model),
            base_delay + 1e-9);
}

TEST(Layered, ImpossibleBudgetFailsCleanly) {
  auto fx = test::canonical_fixture();
  core::LayeredOptions opts;
  opts.delay_budget_ms = 1e-3;  // below even one hop of latency
  const core::LayeredEmbedder layered{opts};
  const auto r = solve_fresh(layered, *fx->index, 7);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("delay budget"), std::string::npos)
      << r.failure_reason;
}

TEST(Layered, TightBudgetTradesCostForDelay) {
  // Chain with a cheap-but-long and an expensive-but-short option:
  //   0 -1- 1 -1- 2 -1- 3 (f1 at 1 cheaply, at 3 dearly; dest 4 next to 3)
  // plus a long cheap detour so the unconstrained optimum takes more hops.
  test::NetBuilder b(7, 1);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(2, 3, 1.0).link(3, 4, 1.0);
  b.link(0, 5, 1.0).link(5, 6, 1.0).link(6, 4, 1.0);
  b.put(3, 1, 2.0);   // on the short 0-1-2-3-4 spine
  b.put(6, 1, 50.0);  // on the 0-5-6-4 shortcut
  sfc::DagSfc dag({sfc::Layer{{1}}});
  auto fx = test::make_fixture(b.build(), std::move(dag),
                               core::Flow{0, 4, 1.0, 1.0});

  const core::LayeredEmbedder unconstrained;
  const auto base = solve_fresh(unconstrained, *fx->index, 7);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.solution->placement[0], 3u);  // cheap rent wins, 4 hops

  core::LayeredOptions opts;
  opts.delay_budget_ms = 4.1;  // 3 hops + 1ms processing fits; 4 hops do not
  const core::LayeredEmbedder budgeted{opts};
  const auto r = solve_fresh(budgeted, *fx->index, 7);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  expect_valid(*fx->index, r);
  EXPECT_EQ(r.solution->placement[0], 6u);  // forced onto the short route
  EXPECT_GT(r.cost, base.cost);

  const core::Evaluator evaluator(*fx->index);
  EXPECT_LE(core::end_to_end_delay(evaluator, *r.solution, {}),
            *opts.delay_budget_ms + 1e-9);
}

}  // namespace
}  // namespace dagsfc
