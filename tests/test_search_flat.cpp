/// Differential tests for the flat search tier (CSR + SearchWorkspace +
/// EdgeMask) against the frozen seed implementations in graph::reference
/// (tests/oracles/). The tier's core contract is bit-identity: same
/// distances, same parents, same tie-breaks, same paths — for every
/// primitive, compared live against the seed kernels, and for every
/// embedder's end-to-end SolveResult, compared against digests recorded
/// from the seed kernels (embedders run on the flat tier only). Mirrors
/// tests/test_path_cache.cpp, which establishes the same contract for the
/// cache layer.
///
/// The Batched suite holds the batched tier to the same contract: one
/// multi-source layered pass equals k standalone runs, one multi-target
/// pass equals per-target early-exit runs, and the batched + future-cost
/// pruned Steiner DP equals the seed DP under random masks.
///
/// Also pins the CSR determinism contract (row order == insertion order)
/// and exercises the lazy concurrent CSR build; the Csr suite runs under
/// ThreadSanitizer in scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generator.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "net/io.hpp"
#include "oracles/exact.hpp"
#include "oracles/reference.hpp"
#include "sfc/io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

graph::Graph random_weighted_graph(std::size_t n, double degree,
                                   std::uint64_t seed) {
  Rng rng(seed);
  graph::RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = degree;
  graph::Graph g = random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(1.0, 10.0));
  }
  return g;
}

/// A random ~80%-permissive allow-set, expressed both ways: as the seed's
/// EdgeFilter and as the flat tier's EdgeMask over the same bits.
struct AllowSet {
  std::vector<char> allow;
  graph::EdgeMaskBuffer mask;
  graph::EdgeMask view;

  AllowSet(const graph::Graph& g, Rng& rng) {
    allow.resize(g.num_edges());
    mask.assign(g.num_edges(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      allow[e] = rng.uniform_real(0.0, 1.0) < 0.8 ? 1 : 0;
      if (allow[e]) mask.set(e);
    }
    view = mask.view();
  }
  [[nodiscard]] graph::EdgeFilter filter() const {
    return [this](graph::EdgeId e) { return allow[e] != 0; };
  }
};

void expect_same_path(const graph::Path& a, const graph::Path& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.cost, b.cost);  // bit-identical, not approximate
}

void expect_same_opt_path(const std::optional<graph::Path>& a,
                          const std::optional<graph::Path>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_same_path(*a, *b);
}

// ---------------------------------------------------------------------------
// Primitive-level differential: every kernel, random graphs, random masks.

TEST(FlatPrimitives, DijkstraTreesMatchReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 977);
    const AllowSet set(g, rng);
    for (graph::NodeId s = 0; s < 5; ++s) {
      const auto ref = graph::reference::dijkstra(g, s, set.filter());
      graph::dijkstra_into(g, s, ws, &set.view);
      const auto flat = graph::export_tree(ws, g.num_nodes());
      EXPECT_EQ(ref.source, flat.source);
      EXPECT_EQ(ref.dist, flat.dist);
      EXPECT_EQ(ref.parent, flat.parent);
      EXPECT_EQ(ref.parent_edge, flat.parent_edge);

      // Unfiltered arms, and the legacy entry point's flat dispatch.
      const auto ref_open = graph::reference::dijkstra(g, s);
      graph::dijkstra_into(g, s, ws);
      const auto flat_open = graph::export_tree(ws, g.num_nodes());
      EXPECT_EQ(ref_open.dist, flat_open.dist);
      EXPECT_EQ(ref_open.parent, flat_open.parent);
      const auto dispatched = graph::dijkstra(g, s, set.filter());
      EXPECT_EQ(ref.dist, dispatched.dist);
      EXPECT_EQ(ref.parent, dispatched.parent);
    }
  }
}

TEST(FlatPrimitives, PointToPointMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 1013);
    const AllowSet set(g, rng);
    for (int q = 0; q < 10; ++q) {
      const auto s = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      const auto t = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      expect_same_opt_path(
          graph::reference::min_cost_path(g, s, t, set.filter()),
          graph::min_cost_path(g, s, t, ws, &set.view));
      expect_same_opt_path(graph::reference::min_cost_path(g, s, t),
                           graph::min_cost_path(g, s, t, ws));
    }
  }
}

TEST(FlatPrimitives, YenMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(30, 4.0, seed);
    Rng rng(seed * 31337);
    const AllowSet set(g, rng);
    for (int q = 0; q < 4; ++q) {
      const auto s = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      const auto t = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      if (s == t) continue;
      const auto ref =
          graph::reference::k_shortest_paths(g, s, t, 5, set.filter());
      const auto flat = graph::k_shortest_paths(g, s, t, 5, &set.view,
                                                ws);
      ASSERT_EQ(ref.size(), flat.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_same_path(ref[i], flat[i]);
      }
      const auto ref_open = graph::reference::k_shortest_paths(g, s, t, 5);
      const auto flat_open = graph::k_shortest_paths(g, s, t, 5, nullptr, ws);
      ASSERT_EQ(ref_open.size(), flat_open.size());
      for (std::size_t i = 0; i < ref_open.size(); ++i) {
        expect_same_path(ref_open[i], flat_open[i]);
      }
    }
  }
}

TEST(FlatPrimitives, SteinerMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(25, 4.0, seed);
    Rng rng(seed * 7919);
    const AllowSet set(g, rng);
    std::vector<graph::NodeId> terminals;
    for (int i = 0; i < 4; ++i) {
      terminals.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
    }
    const auto ref = graph::reference::steiner_tree(g, terminals, set.filter());
    const auto flat = graph::steiner_tree(g, terminals, &set.view, ws);
    ASSERT_EQ(ref.has_value(), flat.has_value());
    if (ref) {
      EXPECT_EQ(ref->cost, flat->cost);
      EXPECT_EQ(ref->edges, flat->edges);
    }
    const auto ref_open = graph::reference::steiner_tree(g, terminals);
    const auto flat_open = graph::steiner_tree(g, terminals, nullptr, ws);
    ASSERT_EQ(ref_open.has_value(), flat_open.has_value());
    if (ref_open) {
      EXPECT_EQ(ref_open->cost, flat_open->cost);
      EXPECT_EQ(ref_open->edges, flat_open->edges);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched tier: one heap pass == k standalone passes, bitwise.

TEST(Batched, MultiSourceEqualsStandaloneRuns) {
  graph::SearchWorkspace batch_ws, solo_ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 7);
    const AllowSet set(g, rng);
    // Duplicate source on purpose: layers are independent even then.
    const std::vector<graph::NodeId> sources{0, 13, 7, 13, 29, 1};
    for (const graph::EdgeMask* mask : {(const graph::EdgeMask*)nullptr,
                                        &set.view}) {
      graph::multi_source_dijkstra_into(g, sources, batch_ws, mask);
      const graph::MultiSourceView bank(batch_ws, g, sources.size());
      ASSERT_EQ(bank.num_layers(), sources.size());
      for (std::size_t layer = 0; layer < sources.size(); ++layer) {
        graph::dijkstra_into(g, sources[layer], solo_ws, mask);
        const auto solo = graph::export_tree(solo_ws, g.num_nodes());
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_EQ(bank.reached(layer, v), solo.reached(v));
          EXPECT_EQ(bank.dist(layer, v), solo.dist[v]);
          EXPECT_EQ(bank.parent(layer, v), solo.parent[v]);
          EXPECT_EQ(bank.parent_edge(layer, v), solo.parent_edge[v]);
        }
      }
    }
  }
}

TEST(Batched, MultiTargetEqualsEarlyExitRuns) {
  graph::SearchWorkspace batch_ws, solo_ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    graph::Graph g = random_weighted_graph(40, 4.0, seed);
    const graph::NodeId isolated = g.add_node();  // guaranteed unreachable
    Rng rng(seed * 19);
    const AllowSet set(g, rng);
    // Duplicates and the source itself are both legal targets.
    const std::vector<graph::NodeId> targets{5, 22, 5, 0, 31, isolated};
    for (const graph::EdgeMask* mask : {(const graph::EdgeMask*)nullptr,
                                        &set.view}) {
      graph::dijkstra_into_targets(g, 0, targets, batch_ws, mask);
      for (const graph::NodeId t : targets) {
        expect_same_opt_path(graph::extract_path(batch_ws, t),
                             graph::min_cost_path(g, 0, t, solo_ws, mask));
      }
    }
  }
}

TEST(Batched, SteinerMatchesReferenceUnderMasks) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(24, 3.5, seed);
    Rng rng(seed * 131);
    const AllowSet set(g, rng);
    for (std::size_t k = 1; k <= 5; ++k) {
      std::vector<graph::NodeId> terms;
      for (std::size_t i = 0; i < k; ++i) {
        terms.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
      }
      const auto flat = graph::steiner_tree(g, terms, &set.view, ws);
      const auto ref = graph::reference::steiner_tree(g, terms, set.filter());
      ASSERT_EQ(flat.has_value(), ref.has_value());
      if (!flat) continue;
      EXPECT_EQ(flat->cost, ref->cost);  // bit-identical, not approximate
      auto fe = flat->edges;
      auto re = ref->edges;
      std::sort(fe.begin(), fe.end());
      std::sort(re.begin(), re.end());
      EXPECT_EQ(fe, re);
    }
  }
}

// ---------------------------------------------------------------------------
// CSR determinism and the lazy concurrent build.

TEST(Csr, RowOrderEqualsInsertionOrder) {
  // Edges added in a deliberately scrambled order; every CSR row must
  // replay its node's incidence list verbatim — the tie-break order every
  // deterministic search result depends on.
  graph::Graph g(6);
  g.add_edge(3, 1, 1.0);
  g.add_edge(0, 4, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(5, 3, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  const graph::CsrView view = g.csr();
  ASSERT_EQ(view.offsets.size(), g.num_nodes() + 1);
  ASSERT_EQ(view.incidence.size(), 2 * g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = view.row(v);
    const auto adj = g.neighbors(v);
    ASSERT_EQ(row.size(), adj.size()) << "node " << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].edge, adj[i].edge) << "node " << v << " slot " << i;
      EXPECT_EQ(row[i].neighbor, adj[i].neighbor);
    }
  }
}

TEST(Csr, MutationInvalidatesAndRebuilds) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.csr().row(0).size(), 1u);
  g.add_edge(0, 2, 1.0);  // invalidates the view built above
  const graph::CsrView rebuilt = g.csr();
  ASSERT_EQ(rebuilt.row(0).size(), 2u);
  EXPECT_EQ(rebuilt.row(0)[1].neighbor, 2u);
  const graph::NodeId n = g.add_node();
  EXPECT_EQ(g.csr().offsets.size(), g.num_nodes() + 1);
  EXPECT_TRUE(g.csr().row(n).empty());
}

TEST(Csr, ConcurrentFirstUseBuildsOnce) {
  // Many threads race the first csr() call on a quiescent graph; all must
  // observe the same complete view. Runs under TSan via scripts/check.sh.
  const graph::Graph g = random_weighted_graph(60, 5.0, 42);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::size_t> row_sums(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &row_sums, t] {
      const graph::CsrView view = g.csr();
      std::size_t sum = 0;
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        sum += view.row(v).size();
      }
      row_sums[t] = sum;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(row_sums[t], 2 * g.num_edges());
  }
}

// ---------------------------------------------------------------------------
// Embedder-level differential: flat tier vs seed implementations, end to
// end, mirroring the cache-on/off harness in test_path_cache.cpp.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_identical(const core::SolveResult& flat,
                      const core::SolveResult& ref) {
  ASSERT_EQ(flat.ok(), ref.ok())
      << flat.failure_reason << " vs " << ref.failure_reason;
  EXPECT_EQ(flat.failure_reason, ref.failure_reason);
  EXPECT_EQ(flat.expanded_sub_solutions, ref.expanded_sub_solutions);
  EXPECT_EQ(flat.candidate_solutions, ref.candidate_solutions);
  if (!flat.ok()) return;
  EXPECT_EQ(flat.cost, ref.cost);  // bit-identical, not approximate
  ASSERT_TRUE(ref.solution.has_value());
  EXPECT_EQ(flat.solution->placement, ref.solution->placement);
  ASSERT_EQ(flat.solution->inter_paths.size(),
            ref.solution->inter_paths.size());
  for (std::size_t i = 0; i < flat.solution->inter_paths.size(); ++i) {
    expect_same_path(flat.solution->inter_paths[i],
                     ref.solution->inter_paths[i]);
  }
  ASSERT_EQ(flat.solution->inner_paths.size(),
            ref.solution->inner_paths.size());
  for (std::size_t i = 0; i < flat.solution->inner_paths.size(); ++i) {
    expect_same_path(flat.solution->inner_paths[i],
                     ref.solution->inner_paths[i]);
  }
}

/// 64-bit FNV-1a over every SolveResult field the bit-identity contract
/// covers: outcome, refusal reason, search-effort counters, cost bits,
/// placement, and every path's nodes, edges and cost bits. Each
/// sequence is length-prefixed, so two results cannot collide by
/// concatenation.
class SolveDigest {
 public:
  void add(const core::SolveResult& r) {
    mix(r.ok() ? 1 : 0);
    mix_seq(r.failure_reason);
    mix(r.expanded_sub_solutions);
    mix(r.candidate_solutions);
    if (!r.ok()) return;
    mix(std::bit_cast<std::uint64_t>(r.cost));
    mix_seq(r.solution->placement);
    for (const auto* paths :
         {&r.solution->inter_paths, &r.solution->inner_paths}) {
      mix(paths->size());
      for (const graph::Path& p : *paths) {
        mix_seq(p.nodes);
        mix_seq(p.edges);
        mix(std::bit_cast<std::uint64_t>(p.cost));
      }
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  template <typename Seq>
  void mix_seq(const Seq& seq) {
    mix(seq.size());
    for (const auto v : seq) mix(static_cast<std::uint64_t>(v));
  }

  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

core::SolveResult solve_with(const core::Embedder& algo,
                             const core::ModelIndex& index, bool cache_on,
                             std::uint64_t rng_seed) {
  net::CapacityLedger ledger(index.problem().net());
  ledger.set_cache_enabled(cache_on);
  Rng rng(rng_seed);
  return algo.solve(index, ledger, rng);
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

/// Solves \p index with every embedder and folds each SolveResult into
/// \p digest: the cache-off arm always, the cache-on arm too when
/// \p with_cache_arms (and it must equal the cache-off one exactly).
void digest_embedders(const core::ModelIndex& index, std::uint64_t seed,
                      bool with_cache_arms, SolveDigest& digest) {
  const EmbedderSet set;
  const core::SolutionValidator validator(index);
  for (const core::Embedder* algo : set.all()) {
    SCOPED_TRACE(algo->name());
    const auto res = solve_with(*algo, index, false, seed);
    digest.add(res);
    // Every returned solution must pass the independent admissibility
    // oracle, including its bitwise cost recomputation.
    const net::CapacityLedger fresh(index.problem().net());
    const auto audit = validator.check(res, fresh);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    if (with_cache_arms) {
      const auto cached = solve_with(*algo, index, true, seed);
      expect_identical(cached, res);
      digest.add(cached);
    }
  }
}

// The embedder-level half of the bit-identity contract. These digests are
// the seed search's answers: they were recorded on a default x86-64 build
// (no -march=native) by running every embedder on the frozen seed kernels
// (graph::reference) and again on the flat kernels, which gave the same
// digests on every instance below. A mismatch means some embedder's answer
// moved off the seed search's answer.

struct CorpusDigest {
  const char* instance;
  std::uint64_t digest;
};

constexpr CorpusDigest kCorpusDigests[] = {
    {"ring12", 0xebd8e317c76b9855ull},
    {"leafspine14", 0xa465939d534eb2b1ull},
    {"waxman20", 0x20756cab29407b51ull},
    {"tightline5", 0x80d58d9536cd0765ull},
};

constexpr std::uint64_t kRandomInstancesDigest = 0x02be8114ffc93aafull;

class FlatCorpusDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatCorpusDifferential, FlatVsReferenceIdentical) {
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
  SolveDigest digest;
  digest_embedders(index, /*seed=*/1, /*with_cache_arms=*/true, digest);

  const auto* pinned =
      std::find_if(std::begin(kCorpusDigests), std::end(kCorpusDigests),
                   [](const CorpusDigest& d) {
                     return std::string(d.instance) == GetParam();
                   });
  ASSERT_NE(pinned, std::end(kCorpusDigests));
  EXPECT_EQ(digest.value(), pinned->digest)
      << "digest 0x" << std::hex << digest.value();
}

INSTANTIATE_TEST_SUITE_P(Instances, FlatCorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(FlatDifferential, TwoHundredRandomInstances) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  SolveDigest digest;
  Rng seeder(0xf1a75ea5c4ull);
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
    digest_embedders(index, /*seed=*/2000 + i, /*with_cache_arms=*/false,
                     digest);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  EXPECT_EQ(digest.value(), kRandomInstancesDigest)
      << "digest 0x" << std::hex << digest.value();
}

TEST(FlatDifferential, SharedWorkspaceAcrossSolvesChangesNothing) {
  auto fx = test::canonical_fixture();
  const core::MbbeEmbedder mbbe;
  graph::SearchWorkspace ws;

  net::CapacityLedger ledger(fx->network);
  Rng rng1(7);
  const auto with_ws = mbbe.solve(*fx->index, ledger, rng1, nullptr, &ws);
  net::CapacityLedger ledger2(fx->network);
  Rng rng2(7);
  const auto again = mbbe.solve(*fx->index, ledger2, rng2, nullptr, &ws);
  net::CapacityLedger ledger3(fx->network);
  Rng rng3(7);
  const auto fresh = mbbe.solve(*fx->index, ledger3, rng3);
  expect_identical(with_ws, fresh);
  expect_identical(again, fresh);  // a dirty workspace is as good as a new one
}

}  // namespace
}  // namespace dagsfc
