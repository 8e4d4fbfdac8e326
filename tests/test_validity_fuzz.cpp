/// Validity fuzzing: a seeded generator drives every embedder in the
/// library — RANV, MINV, BBE, MBBE, EXACT, LAYERED — over random Waxman and
/// fat-tree instances, and every solution any of them returns must pass the
/// independent core::SolutionValidator (structure, layer order, deployment
/// sets, capacities, and the bitwise cost recomputation).
///
/// This is deliberately *not* a differential test: no solver is compared to
/// another, so it keeps finding bugs even on instances where they all
/// disagree or all fail. It also runs under ASan and TSan via the
/// `layered|validity` pass in scripts/check.sh, together with a
/// concurrent-solve hammer over one shared problem (cold CSR, shared
/// const embedders) that gives the sanitizer something to bite on.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "graph/topologies.hpp"
#include "graph/workspace.hpp"
#include "net/network.hpp"
#include "oracles/exact.hpp"
#include "sfc/generator.hpp"
#include "test_helpers.hpp"

namespace dagsfc {
namespace {

/// Scenario recipe over an arbitrary topology (the sim:: generator is tied
/// to the paper's random-graph model; the fuzzer wants structured WAN and
/// data-center shapes too): random link prices, per-node Bernoulli VNF
/// deployment with a force-deploy fallback so every category exists.
net::Network dress_topology(graph::Graph topo, Rng& rng,
                            std::size_t catalog_size, double deploy_ratio) {
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    topo.set_weight(e, rng.uniform_real(5.0, 40.0));
  }
  net::VnfCatalog catalog(catalog_size);
  net::Network network(std::move(topo), catalog, /*link_capacity=*/100.0);
  std::vector<net::VnfTypeId> all_types = catalog.regular_ids();
  all_types.push_back(catalog.merger());
  for (net::VnfTypeId t : all_types) {
    for (graph::NodeId v = 0; v < network.num_nodes(); ++v) {
      if (rng.bernoulli(deploy_ratio)) {
        (void)network.deploy(v, t, rng.uniform_real(50.0, 150.0), 100.0);
      }
    }
    if (network.nodes_with(t).empty()) {
      const auto v = static_cast<graph::NodeId>(rng.index(network.num_nodes()));
      (void)network.deploy(v, t, rng.uniform_real(50.0, 150.0), 100.0);
    }
  }
  return network;
}

struct FuzzStats {
  int solutions_checked = 0;
  int failures_reported = 0;
};

void fuzz_instance(graph::Graph topo, Rng& rng, FuzzStats& stats) {
  net::Network network =
      dress_topology(std::move(topo), rng, /*catalog_size=*/6,
                     /*deploy_ratio=*/rng.uniform_real(0.3, 0.7));

  sfc::RandomSfcOptions sfc_opts;
  sfc_opts.size = 2 + rng.index(3);  // 2..4 VNFs
  sfc_opts.max_layer_width = 3;
  const sfc::DagSfc dag =
      sfc::random_dag_sfc(rng, network.catalog(), sfc_opts);

  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &dag;
  const auto n = network.num_nodes();
  const auto src = static_cast<graph::NodeId>(rng.index(n));
  auto dst = static_cast<graph::NodeId>(rng.index(n));
  while (dst == src) dst = static_cast<graph::NodeId>(rng.index(n));
  problem.flow = core::Flow{src, dst, 1.0, 1.0};
  const core::ModelIndex index(problem);
  const core::SolutionValidator validator(index);

  const core::RanvEmbedder ranv;
  const core::MinvEmbedder minv;
  const core::BbeEmbedder bbe;
  const core::MbbeEmbedder mbbe;
  const core::ExactEmbedder exact;
  const core::LayeredEmbedder layered;
  const std::vector<const core::Embedder*> all = {&ranv, &minv,  &bbe,
                                                  &mbbe, &exact, &layered};

  for (const core::Embedder* algo : all) {
    SCOPED_TRACE(algo->name());
    net::CapacityLedger ledger(network);
    Rng solve_rng(rng.fork_seed());
    const auto result = algo->solve(index, ledger, solve_rng);
    if (!result.ok()) {
      // A refusal must come with a reason; silence is a bug.
      EXPECT_FALSE(result.failure_reason.empty());
      ++stats.failures_reported;
      continue;
    }
    const auto audit = validator.check(result, ledger);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    ++stats.solutions_checked;
  }
}

TEST(ValidityFuzz, WaxmanInstances) {
  Rng seeder(0x3a817a57ceedull);
  FuzzStats stats;
  for (int i = 0; i < 25; ++i) {
    SCOPED_TRACE("waxman instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    graph::WaxmanOptions wopts;
    wopts.num_nodes = 12 + rng.index(8);  // 12..19 nodes
    wopts.alpha = 0.7;
    wopts.beta = 0.4;
    fuzz_instance(graph::make_waxman(rng, wopts), rng, stats);
    if (::testing::Test::HasFailure()) break;
  }
  // The fuzz must actually exercise the validator, not dodge it via
  // universal refusals.
  EXPECT_GE(stats.solutions_checked, 50);
}

TEST(ValidityFuzz, FatTreeInstances) {
  Rng seeder(0xfa77ee5eedull);
  FuzzStats stats;
  for (int i = 0; i < 25; ++i) {
    SCOPED_TRACE("fat-tree instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    fuzz_instance(graph::make_fat_tree(4), rng, stats);  // 20 switches
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GE(stats.solutions_checked, 50);
}

// ---------------------------------------------------------------------------
// Concurrency: many threads solve the same shared problem with shared const
// embedders; per-thread ledgers/workspaces. First CSR build races on a cold
// graph. Every thread must observe bitwise-identical costs. Runs under TSan
// via scripts/check.sh.

TEST(ValidityFuzz, ConcurrentSolvesAgreeBitwise) {
  auto fx = test::canonical_fixture();
  const core::LayeredEmbedder layered;
  const core::ExactEmbedder exact;
  const core::SolutionValidator validator(*fx->index);

  constexpr int kThreads = 8;
  constexpr int kSolvesPerThread = 4;
  std::vector<double> layered_costs(kThreads, 0.0);
  std::vector<double> exact_costs(kThreads, 0.0);
  std::vector<char> valid(kThreads, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      graph::SearchWorkspace ws;
      bool all_valid = true;
      for (int s = 0; s < kSolvesPerThread; ++s) {
        net::CapacityLedger ledger(fx->network);
        Rng rng(7);
        const auto lay = layered.solve(*fx->index, ledger, rng, nullptr, &ws);
        net::CapacityLedger ledger2(fx->network);
        Rng rng2(7);
        const auto ex = exact.solve(*fx->index, ledger2, rng2, nullptr, &ws);
        if (!lay.ok() || !ex.ok()) {
          all_valid = false;
          break;
        }
        layered_costs[t] = lay.cost;
        exact_costs[t] = ex.cost;
        net::CapacityLedger fresh(fx->network);
        if (!validator.check(lay, fresh).ok()) all_valid = false;
      }
      valid[t] = all_valid ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(valid[t], 1) << "thread " << t;
    EXPECT_EQ(layered_costs[t], layered_costs[0]);
    EXPECT_EQ(exact_costs[t], exact_costs[0]);
    EXPECT_EQ(layered_costs[t], exact_costs[t]);
  }
}

}  // namespace
}  // namespace dagsfc
