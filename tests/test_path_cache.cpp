/// Tests for the footprint-invalidated shortest-path cache: PathCache unit
/// behavior (flip-gated eviction through the on_link_* hooks), ledger
/// integration, and the differential harness required by the cache's core
/// contract — every embedder produces bit-identical solutions with the
/// cache on and off, across the serialized corpus and 200 random seeded
/// instances. Also pins PathOracle::min_cost_paths, the batched fan-out
/// the cache-off path runs, to its per-target answers.

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "core/path_oracle.hpp"
#include "core/validator.hpp"
#include "graph/path_cache.hpp"
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

graph::Graph diamond() {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(2, 3, 2.0);
  return g;
}

// ---------------------------------------------------------------------------
// PathCache unit behavior

constexpr double kEps = 1e-9;

/// The cache's context convention: the flow rate, bit-cast.
std::uint64_t ctx(double rate) { return std::bit_cast<std::uint64_t>(rate); }

TEST(PathCache, TreeHitsOnRepeatAndSurvivesNonFlipDebits) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;

  const auto t1 = cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_misses, 1u);
  EXPECT_EQ(c.dijkstra_calls, 1u);
  const auto t2 = cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.dijkstra_calls, 1u);  // served from cache, not recomputed
  EXPECT_EQ(t1.get(), t2.get());    // same shared entry

  // A debit that leaves the edge usable at rate 1.0 is not a flip: the
  // usable-edge set — and therefore every cached result — is unchanged.
  cache.on_link_debit(0, 10.0, 5.0, kEps);
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 2u);
  EXPECT_EQ(cache.invalidation_stats().flips, 0u);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 0u);

  // Draining edge 0 below the rate flips it unusable; the tree from node 0
  // carries edge 0 in its parent footprint, so it must go.
  cache.on_link_debit(0, 5.0, 0.5, kEps);
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  const auto t3 = cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_misses, 2u);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(t1->dist[3], 2.0);  // held entry stays valid after eviction
}

TEST(PathCache, DebitFlipSparesTreesOutsideTheFootprint) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);  // parent edges {0, 1, 2}
  (void)cache.tree(g, 2, ctx(1.0), nullptr, ws, c);  // parent edges {0, 2, 3}
  ASSERT_EQ(cache.num_trees(), 2u);

  // Edge 1 (1–3) flips unusable: only the tree from node 0 routes through
  // it, so the tree from node 2 survives and keeps hitting.
  cache.on_link_debit(1, 1.0, 0.0, kEps);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  EXPECT_EQ(cache.num_trees(), 1u);
  (void)cache.tree(g, 2, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 1u);
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_misses, 3u);
}

TEST(PathCache, ContextSeparatesEntriesAndFlipsAreRateScoped) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  (void)cache.tree(g, 0, ctx(2.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_misses, 2u);  // different rates never share
  EXPECT_EQ(cache.num_trees(), 2u);

  // 2.5 → 1.5 flips edge 0 at rate 2.0 only; the rate-1.0 entry survives.
  cache.on_link_debit(0, 2.5, 1.5, kEps);
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.num_trees(), 1u);
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 1u);
}

TEST(PathCache, KPathsCachedPerEndpointAndK) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  const auto p1 = cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  ASSERT_EQ(p1->size(), 2u);
  EXPECT_EQ(c.yen_calls, 1u);
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.yen_calls, 1u);
  // Different k ⇒ miss.
  (void)cache.k_paths(g, 0, 3, 3, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.yen_calls, 2u);
}

TEST(PathCache, DebitFlipEvictsAllKPathListsAtThatRate) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  // Yen entries are evicted wholesale on a flip even when their paths avoid
  // the edge: a vanished edge can unmask equal-cost candidates, so keeping
  // "non-intersecting" lists would not be bit-exact.
  cache.on_link_debit(3, 1.0, 0.0, kEps);
  EXPECT_EQ(cache.invalidation_stats().yens_evicted, 1u);
  EXPECT_EQ(cache.num_k_paths(), 0u);
  // A non-flip debit, by contrast, spares them.
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  cache.on_link_debit(3, 10.0, 5.0, kEps);
  EXPECT_EQ(cache.num_k_paths(), 1u);
}

TEST(PathCache, CreditFlipEvictsEverythingAtThatRate) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);

  // A credit that keeps the edge unusable flips nothing.
  cache.on_link_credit(0, 0.2, 0.6, kEps);
  EXPECT_EQ(cache.invalidation_stats().flips, 0u);
  EXPECT_EQ(cache.num_trees(), 1u);
  EXPECT_EQ(cache.num_k_paths(), 1u);

  // Flipping an edge usable can improve paths anywhere — every rate-1.0
  // entry goes, footprints notwithstanding.
  cache.on_link_credit(0, 0.6, 2.0, kEps);
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.num_trees(), 0u);
  EXPECT_EQ(cache.num_k_paths(), 0u);
}

TEST(PathCache, EvictsEverythingWhenFull) {
  const graph::Graph g = diamond();
  graph::PathCache cache(/*max_entries=*/2);
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.tree(g, 0, ctx(1.0), nullptr, ws, c);
  (void)cache.tree(g, 1, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(cache.num_trees(), 2u);
  // All entries are current under event invalidation, so a full store is
  // simply wiped to make room.
  (void)cache.tree(g, 2, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(cache.num_trees(), 1u);
  // A held entry stays valid across eviction of its cache slot.
  const auto held = cache.tree(g, 1, ctx(1.0), nullptr, ws, c);
  (void)cache.tree(g, 3, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_EQ(held->source, 1u);
  EXPECT_EQ(held->dist[0], 1.0);
}

TEST(PathCache, CountersAggregateAndReportHitRate) {
  graph::PathQueryCounters a{10, 2, 5, 3, 6, 4, 1};
  graph::PathQueryCounters b{1, 1, 2, 1, 2, 0, 0};
  a += b;
  EXPECT_EQ(a.dijkstra_calls, 11u);
  EXPECT_EQ(a.yen_calls, 3u);
  EXPECT_EQ(a.bfs_calls, 7u);
  EXPECT_EQ(a.steiner_calls, 4u);
  EXPECT_EQ(a.cache_hits, 8u);
  EXPECT_EQ(a.cache_misses, 4u);
  EXPECT_EQ(a.evictions, 1u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 8.0 / 12.0);
  EXPECT_DOUBLE_EQ(graph::PathQueryCounters{}.hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Differential harness: cache on vs cache off, identical results everywhere.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_same_path(const graph::Path& a, const graph::Path& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.cost, b.cost);
}

/// Cache-on and cache-off solves must agree bit for bit: same outcome, same
/// cost, same placements, same real-paths, same search effort.
void expect_identical(const core::SolveResult& on,
                      const core::SolveResult& off) {
  ASSERT_EQ(on.ok(), off.ok()) << on.failure_reason << " vs "
                               << off.failure_reason;
  EXPECT_EQ(on.failure_reason, off.failure_reason);
  EXPECT_EQ(on.expanded_sub_solutions, off.expanded_sub_solutions);
  EXPECT_EQ(on.candidate_solutions, off.candidate_solutions);
  if (!on.ok()) return;
  EXPECT_EQ(on.cost, off.cost);  // bit-identical, not approximate
  ASSERT_TRUE(off.solution.has_value());
  EXPECT_EQ(on.solution->placement, off.solution->placement);
  ASSERT_EQ(on.solution->inter_paths.size(), off.solution->inter_paths.size());
  for (std::size_t i = 0; i < on.solution->inter_paths.size(); ++i) {
    expect_same_path(on.solution->inter_paths[i], off.solution->inter_paths[i]);
  }
  ASSERT_EQ(on.solution->inner_paths.size(), off.solution->inner_paths.size());
  for (std::size_t i = 0; i < on.solution->inner_paths.size(); ++i) {
    expect_same_path(on.solution->inner_paths[i], off.solution->inner_paths[i]);
  }
}

core::SolveResult solve_with(const core::Embedder& algo,
                             const core::ModelIndex& index, bool cache_on,
                             std::uint64_t rng_seed,
                             graph::PathQueryCounters* tally = nullptr) {
  net::CapacityLedger ledger(index.problem().net());
  ledger.set_cache_enabled(cache_on);
  Rng rng(rng_seed);
  core::SolveResult r = algo.solve(index, ledger, rng);
  if (tally != nullptr) *tally += r.path_queries;
  return r;
}

struct EmbedderSet {
  core::RanvEmbedder ranv;
  core::MinvEmbedder minv;
  core::BbeEmbedder bbe;
  core::MbbeEmbedder mbbe;
  core::ExactEmbedder exact{core::ExactOptions{50'000'000}};
  core::LayeredEmbedder layered{core::LayeredOptions{
      .delay_budget_ms = std::nullopt,
      .delay_model = {},
      .max_work = 50'000'000,
      .max_labels = 2'000'000}};

  [[nodiscard]] std::vector<const core::Embedder*> all() const {
    return {&ranv, &minv, &bbe, &mbbe, &exact, &layered};
  }
};

void run_differential(const core::ModelIndex& index, std::uint64_t seed,
                      graph::PathQueryCounters* on_tally) {
  const EmbedderSet set;
  const core::SolutionValidator validator(index);
  for (const core::Embedder* algo : set.all()) {
    SCOPED_TRACE(algo->name());
    const auto on = solve_with(*algo, index, true, seed, on_tally);
    const auto off = solve_with(*algo, index, false, seed);
    // The cache-off arm never touches the cache.
    EXPECT_EQ(off.path_queries.cache_hits, 0u);
    EXPECT_EQ(off.path_queries.cache_misses, 0u);
    expect_identical(on, off);
    // Independent admissibility oracle over the returned solution, with its
    // bitwise cost recomputation.
    const net::CapacityLedger fresh(index.problem().net());
    const auto audit = validator.check(on, fresh);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
  }
}

class CorpusDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusDifferential, CacheOnOffIdentical) {
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
  run_differential(index, /*seed=*/1, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Instances, CorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(PathCacheDifferential, TwoHundredRandomInstances) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  graph::PathQueryCounters on_tally;
  Rng seeder(0xd1ffe7e57ull);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    run_differential(index, /*seed=*/1000 + i, &on_tally);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  // The equivalence above must not be vacuous: the cached arm has to have
  // actually reused entries somewhere across the 200 instances.
  EXPECT_GT(on_tally.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Ledger integration

TEST(LedgerPathCache, CacheSurvivesNonFlipDebitsAndEvictsOnFlips) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  const core::MbbeEmbedder mbbe;
  Rng rng(1);

  const auto first = mbbe.solve(*fx->index, ledger, rng);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.path_queries.cache_misses, 0u);

  // Same ledger, unchanged residuals: the second solve reuses everything.
  const auto second = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_EQ(second.path_queries.cache_misses, 0u);
  EXPECT_GT(second.path_queries.cache_hits, 0u);
  expect_identical(second, first);

  // A debit that keeps link 0 usable at the flow rate (100 → 99, rate 1)
  // flips nothing: cached routes stay live across the mutation. The
  // epoch-keyed design this replaces dropped the whole cache here.
  ledger.consume_link(0, 1.0);
  const auto third = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_EQ(third.path_queries.cache_misses, 0u);
  EXPECT_GT(third.path_queries.cache_hits, 0u);
  expect_identical(third, first);

  // Draining the link below the rate is a flip: affected entries go and
  // the next solve recomputes.
  ledger.consume_link(0, 98.5);
  const auto fourth = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_GT(fourth.path_queries.cache_misses, 0u);
}

/// The MVCC-replica scenario: one long-lived cache-on ledger survives a
/// random stream of committed footprints (applies) and departures
/// (unapplies) between solves. After every mutation batch the next solve
/// must be bit-identical to a cache-off solve over the same residuals —
/// proving the event-driven invalidation evicted everything a mutation
/// could have affected (soundness) while whatever survived is still valid.
TEST(LedgerPathCache, InvalidationDifferentialAcrossCommitsAndDepartures) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 16;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;
  cfg.vnf_capacity = 6.0;
  cfg.link_capacity = 4.0;  // small: commits actually flip link usability
  Rng rng(0xcafe);
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);

  net::CapacityLedger live(scenario.network);  // cache on, never reset
  const core::MbbeEmbedder mbbe;

  struct Committed {
    core::ResourceUsage usage;
    double rate = 0.0;
  };
  std::vector<Committed> in_service;
  std::uint64_t total_hits = 0;

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    auto src = static_cast<graph::NodeId>(rng.index(cfg.network_size));
    auto dst = static_cast<graph::NodeId>(rng.index(cfg.network_size));
    if (dst == src) {
      dst = static_cast<graph::NodeId>((dst + 1) % cfg.network_size);
    }
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{src, dst, 1.0, 1.0};
    const core::ModelIndex index(problem);

    // Reference arm: identical residuals (copied from the live ledger),
    // cache off. The copy never shares the live cache, so the only thing
    // under test is whether the survivors in the live cache are stale.
    net::CapacityLedger fresh(live);
    fresh.set_cache_enabled(false);

    Rng on_rng(7000 + round);
    Rng off_rng(7000 + round);
    const auto on = mbbe.solve(index, live, on_rng);
    const auto off = mbbe.solve(index, fresh, off_rng);
    expect_identical(on, off);
    if (::testing::Test::HasFailure()) break;
    total_hits += on.path_queries.cache_hits;

    if (on.ok()) {
      // Commit: debits fire the footprint-scoped eviction hooks.
      core::ResourceUsage usage = core::Evaluator(index).usage(*on.solution);
      live.apply(usage.link_uses, usage.instance_uses, 1.0);
      in_service.push_back(Committed{std::move(usage), 1.0});
    }
    if (in_service.size() > 4) {
      // Departure: credits flip links back to usable; the conservative
      // credit eviction must keep the survivors coherent too.
      const std::size_t pick = rng.index(in_service.size());
      const Committed gone = in_service[pick];
      in_service[pick] = in_service.back();
      in_service.pop_back();
      live.unapply(gone.usage.link_uses, gone.usage.instance_uses, gone.rate);
    }
  }
  // Not vacuous: entries must actually have survived mutations and been
  // reused across rounds.
  EXPECT_GT(total_hits, 0u);
}

TEST(LedgerPathCache, CachingReducesDijkstraComputations) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 50;
  cfg.catalog_size = 6;
  cfg.sfc_size = 4;
  Rng rng(99);
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);
  const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
  core::EmbeddingProblem problem;
  problem.network = &scenario.network;
  problem.sfc = &dag;
  problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
  const core::ModelIndex index(problem);

  const core::MbbeEmbedder mbbe;
  const auto on = solve_with(mbbe, index, true, 1);
  const auto off = solve_with(mbbe, index, false, 1);
  expect_identical(on, off);
  EXPECT_GT(on.path_queries.cache_hits, 0u);
  EXPECT_LT(on.path_queries.dijkstra_calls, off.path_queries.dijkstra_calls);
}

// ---------------------------------------------------------------------------
// PathOracle-level batching: min_cost_paths == per-target queries, with one
// dijkstra_call for the whole fan-out.

void expect_same_opt_path(const std::optional<graph::Path>& a,
                          const std::optional<graph::Path>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_same_path(*a, *b);
}

TEST(Batched, PathOracleMinCostPathsMatchesPerTarget) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  ledger.set_cache_enabled(false);
  graph::SearchWorkspace ws;
  core::PathOracle batched(fx->network.topology(), ledger, 1.0, &ws);
  core::PathOracle single(fx->network.topology(), ledger, 1.0);

  const std::vector<graph::NodeId> targets{4, 2, 4, 0, 5};
  const auto got = batched.min_cost_paths(0, targets);
  ASSERT_EQ(got.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    expect_same_opt_path(got[i], single.min_cost_path(0, targets[i]));
  }
  // One batched pass, not |targets| early-exit runs.
  EXPECT_EQ(batched.counters().dijkstra_calls, 1u);
  EXPECT_EQ(single.counters().dijkstra_calls, targets.size());
}

}  // namespace
}  // namespace dagsfc
