/// Before/after kernel suite for the flattened path-search hot path.
///
/// Every kernel runs twice on the same inputs: a `ref` arm through the
/// frozen seed implementations (graph::reference::*, std::function filters,
/// per-call allocations) and a `flat` arm through the CSR + workspace +
/// edge-mask tier. Both arms accumulate a checksum in the same order; the
/// checksums must match bitwise — the flat tier claims bit-identical
/// results, and this harness enforces the claim on every run.
///
/// The multi_source row measures the batched tier instead: there the `ref`
/// arm is the plain flat kernel run once per source and the `flat` arm is
/// the batched one-pass variant — so its speedup column reads "batching
/// over flat", not "flat over seed". Bit-identity is enforced the same way.
///
/// Timing: per (kernel, arm) the loop body runs `iters` times per rep and
/// the best-of-`reps` wall time is reported, which filters scheduler noise
/// without averaging away the steady state the workspace tier creates.
///
/// The topology is the paper's fig6b point (network-size sweep) at
/// --network-size nodes (default 200), so the reported SSSP speedup is the
/// one the embedders see on the figure-reproduction workload. The final
/// "JSON: " line is what scripts/bench_graph.sh records as
/// BENCH_micro_graph.json.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "oracles/reference.hpp"
#include "sim/scenario.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace dagsfc;

/// Keeps the accumulated checksum observable so the timed loops cannot be
/// dead-code-eliminated (same role as benchmark::DoNotOptimize).
volatile double g_sink = 0.0;

struct KernelResult {
  std::string name;
  std::size_t iters = 0;
  double ref_ns = 0.0;
  double flat_ns = 0.0;
  double ref_checksum = 0.0;
  double flat_checksum = 0.0;

  [[nodiscard]] double speedup() const {
    return flat_ns > 0.0 ? ref_ns / flat_ns : 0.0;
  }
};

/// Best-of-reps wall time of `body(iters)`; body returns its checksum.
template <typename Body>
std::pair<double, double> time_arm(std::size_t reps, std::size_t iters,
                                   Body&& body) {
  double checksum = 0.0;
  double best_ns = graph::kInfCost;
  for (std::size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    checksum = body(iters);
    const double ns = timer.elapsed_seconds() * 1e9 /
                      static_cast<double>(iters);
    if (ns < best_ns) best_ns = ns;
    g_sink = g_sink + checksum;
  }
  return {best_ns, checksum};
}

template <typename RefBody, typename FlatBody>
KernelResult run_kernel(const std::string& name, std::size_t reps,
                        std::size_t iters, RefBody&& ref, FlatBody&& flat) {
  KernelResult out;
  out.name = name;
  out.iters = iters;
  std::tie(out.ref_ns, out.ref_checksum) = time_arm(reps, iters, ref);
  std::tie(out.flat_ns, out.flat_checksum) = time_arm(reps, iters, flat);
  if (out.ref_checksum != out.flat_checksum) {
    std::cerr << "FATAL: checksum mismatch in kernel '" << name
              << "': ref=" << out.ref_checksum
              << " flat=" << out.flat_checksum
              << " — the flat search tier is NOT bit-identical\n";
    std::exit(1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("network-size", 200,
                   "substrate size (fig6b sweep point; paper uses 200)")
      .define_int("reps", 5, "timing repetitions; best-of-reps is reported")
      .define_int("seed", 0x5fcdaa11, "scenario RNG seed");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << "Before/after micro benches for the flat path-search tier."
              << "\n\n"
              << flags.usage(argv[0]);
    return 0;
  }
  const auto n = static_cast<std::size_t>(flags.get_int("network-size"));
  const auto reps = static_cast<std::size_t>(flags.get_int("reps"));

  sim::ExperimentConfig cfg;
  cfg.network_size = n;
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);
  const graph::Graph& g = scenario.network.topology();
  const graph::NodeId src = scenario.source;
  const graph::NodeId dst = scenario.destination;

  // Rotating source set: SSSP kernels sweep sources so neither arm can hide
  // behind a single hot cache line pattern.
  std::vector<graph::NodeId> sources;
  for (std::size_t i = 0; i < 16; ++i) {
    sources.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
  }
  std::vector<graph::NodeId> terminals;
  for (std::size_t i = 0; i < 5; ++i) {
    terminals.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
  }

  graph::SearchWorkspace ws;
  (void)g.csr();  // build once up front; every embedder solve amortizes this

  std::vector<KernelResult> results;

  // Repeated single-source shortest paths — the embedders' innermost loop.
  results.push_back(run_kernel(
      "sssp_tree", reps, 1000,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto t =
              graph::reference::dijkstra(g, sources[i % sources.size()]);
          for (const double d : t.dist) sum += d;
        }
        return sum;
      },
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          graph::dijkstra_into(g, sources[i % sources.size()], ws);
          for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
            sum += ws.dist(v);
          }
        }
        return sum;
      }));

  // Point-to-point query with early exit at the target.
  results.push_back(run_kernel(
      "p2p", reps, 1000,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto p = graph::reference::min_cost_path(
              g, sources[i % sources.size()], dst);
          if (p) sum += p->cost + static_cast<double>(p->nodes.size());
        }
        return sum;
      },
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto p =
              graph::min_cost_path(g, sources[i % sources.size()], dst, ws);
          if (p) sum += p->cost + static_cast<double>(p->nodes.size());
        }
        return sum;
      }));

  // Yen k-shortest: spur searches dominate; the flat arm reuses one spur
  // mask where the seed built a closure + two std::sets per candidate.
  results.push_back(run_kernel(
      "yen_k4", reps, 50,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          for (const auto& p :
               graph::reference::k_shortest_paths(g, src, dst, 4)) {
            sum += p.cost + static_cast<double>(p.nodes.size());
          }
        }
        return sum;
      },
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          for (const auto& p :
               graph::k_shortest_paths(g, src, dst, 4, nullptr, ws)) {
            sum += p.cost + static_cast<double>(p.nodes.size());
          }
        }
        return sum;
      }));

  // Batched SSSP: 8 independent full trees vs one layered-state heap pass
  // (what the Steiner base case runs).
  results.push_back(run_kernel(
      "multi_source_t8", reps, 100,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          for (std::size_t s = 0; s < 8; ++s) {
            graph::dijkstra_into(g, sources[s], ws);
            for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
              sum += ws.dist(v);
            }
          }
        }
        return sum;
      },
      [&](std::size_t iters) {
        const std::span<const graph::NodeId> batch(sources.data(), 8);
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          graph::multi_source_dijkstra_into(g, batch, ws);
          const graph::MultiSourceView bank(ws, g, 8);
          for (std::size_t s = 0; s < 8; ++s) {
            for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
              sum += bank.dist(s, v);
            }
          }
        }
        return sum;
      }));

  // Dreyfus–Wagner over 5 terminals; the DP dominates, the flat arm only
  // wins on its |T| embedded Dijkstras and the mask probes. Since the
  // batched + future-cost-pruned rewrite the flat arm also runs its base
  // case through multi_source_dijkstra_into and prunes DP cells against
  // the star upper bound.
  results.push_back(run_kernel(
      "steiner_t5", reps, 10,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto t = graph::reference::steiner_tree(g, terminals);
          if (t) sum += t->cost + static_cast<double>(t->edges.size());
        }
        return sum;
      },
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto t = graph::steiner_tree(g, terminals, nullptr, ws);
          if (t) sum += t->cost + static_cast<double>(t->edges.size());
        }
        return sum;
      }));

  // Path reconstruction from a solved search: exported-tree path_to vs
  // workspace extract_path (both use the hop-counted exact pre-size).
  const graph::ShortestPathTree ref_tree = graph::reference::dijkstra(g, src);
  graph::dijkstra_into(g, src, ws);
  results.push_back(run_kernel(
      "path_reconstruct", reps, 2000,
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto p =
              ref_tree.path_to(static_cast<graph::NodeId>(i % g.num_nodes()));
          if (p) sum += p->cost + static_cast<double>(p->nodes.size());
        }
        return sum;
      },
      [&](std::size_t iters) {
        double sum = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
          const auto p = graph::extract_path(
              ws, static_cast<graph::NodeId>(i % g.num_nodes()));
          if (p) sum += p->cost + static_cast<double>(p->nodes.size());
        }
        return sum;
      }));

  std::printf("== micro_graph: flat search tier vs seed ==\n");
  std::printf("topology: fig6b scenario, %zu nodes, %zu edges\n\n",
              g.num_nodes(), static_cast<std::size_t>(g.num_edges()));
  std::printf("%-18s %10s %12s %12s %9s\n", "kernel", "iters", "ref ns/op",
              "flat ns/op", "speedup");
  for (const KernelResult& k : results) {
    std::printf("%-18s %10zu %12.1f %12.1f %8.2fx\n", k.name.c_str(),
                k.iters, k.ref_ns, k.flat_ns, k.speedup());
  }
  std::printf("\nall checksums bit-identical between arms\n");

  std::ostringstream os;
  os << "{\"bench\":\"micro_graph\",\"network_size\":" << g.num_nodes()
     << ",\"num_edges\":" << g.num_edges() << ",\"reps\":" << reps
     << ",\"kernels\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& k = results[i];
    if (i) os << ",";
    os << "{\"name\":\"" << k.name << "\",\"iters\":" << k.iters
       << ",\"ref_ns_per_op\":" << k.ref_ns
       << ",\"flat_ns_per_op\":" << k.flat_ns
       << ",\"speedup\":" << k.speedup() << ",\"bit_identical\":true}";
  }
  os << "]}";
  std::cout << "\nJSON: " << os.str() << "\n";
  return 0;
}
