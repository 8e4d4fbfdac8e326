#pragma once
/// \file reference.hpp
/// The seed search implementations, preserved verbatim.
///
/// When the flat kernels (CSR + SearchWorkspace + EdgeMask) replaced these on
/// the hot path, the originals moved here instead of being deleted. They
/// serve two purposes:
///   1. Oracle for the kernel-level differential tests
///      (tests/test_search_flat.cpp, tests/test_search_workspace.cpp): flat
///      search must be bit-identical to these for every query. The
///      embedder-level half of that contract is pinned by digests recorded
///      from these kernels when embedders could still run on them.
///   2. The honest "before" arm of bench/micro_graph, so the recorded
///      speedups compare against the real seed code, not a strawman.
///
/// They live in the test-only dagsfc_test_oracles library; no production
/// code path can reach them. Do not "optimize" anything in this file — its
/// value is being a frozen baseline.

#include <optional>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/steiner.hpp"

namespace dagsfc::graph::reference {

/// Seed Dijkstra: fresh O(V) arrays + std::priority_queue per call.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        const EdgeFilter& filter = {});

/// Seed point-to-point query with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                const EdgeFilter& filter = {});

/// Seed Yen: fresh closure + std::sets per spur candidate.
[[nodiscard]] std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                                 NodeId target, std::size_t k,
                                                 const EdgeFilter& filter = {});

/// Seed Dreyfus–Wagner DP over the adjacency lists.
[[nodiscard]] std::optional<SteinerTree> steiner_tree(
    const Graph& g, const std::vector<NodeId>& terminals,
    const EdgeFilter& filter = {});

}  // namespace dagsfc::graph::reference
