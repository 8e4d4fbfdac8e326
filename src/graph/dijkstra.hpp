#pragma once
/// \file dijkstra.hpp
/// Min-cost path queries over link prices. Used by the RANV/MINV baselines,
/// by MBBE's strategy (2) (meta-path instantiation via minimum-cost paths on
/// the real-time network), and as the relaxation inside Yen's algorithm.
///
/// Two API tiers:
///   * Flat tier — dijkstra_into() and friends run over the graph's CSR view
///     with a caller-owned SearchWorkspace and an optional EdgeMask. Warm
///     calls are allocation-free; results live in the workspace until the
///     next search and can be exported on demand. This is what PathOracle
///     and the embedders use.
///   * Legacy tier — the original EdgeFilter signatures, kept for callers
///     that don't carry a workspace (ILP bound generation, one-off tests).
///     They materialize the filter into the per-thread workspace's scratch
///     mask and run the flat kernels. The frozen seed code they replaced
///     lives on in tests/oracles/ as the differential tests' reference.

#include <optional>
#include <span>
#include <vector>

#include "graph/edge_mask.hpp"
#include "graph/graph.hpp"
#include "graph/workspace.hpp"

namespace dagsfc::graph {

/// Single-source shortest path tree by edge weight (price).
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> dist;        // kInfCost if unreachable
  std::vector<NodeId> parent;      // kInvalidNode for source/unreached
  std::vector<EdgeId> parent_edge;

  [[nodiscard]] bool reached(NodeId v) const {
    return v < dist.size() && dist[v] < kInfCost;
  }
  /// Reconstructs the min-cost path source→target; nullopt if unreachable.
  [[nodiscard]] std::optional<Path> path_to(NodeId target) const;
};

// --- flat tier -----------------------------------------------------------

/// Dijkstra from \p source into \p ws. A null \p mask means all edges are
/// usable; \p stop_at = kInvalidNode means exhaust the graph, otherwise the
/// search stops once \p stop_at is settled (same early exit as the seed's
/// point-to-point query). On a warm workspace this performs no heap
/// allocation. The mask (when given) must cover g.num_edges() bits.
void dijkstra_into(const Graph& g, NodeId source, SearchWorkspace& ws,
                   const EdgeMask* mask = nullptr,
                   NodeId stop_at = kInvalidNode);

/// Copies the last search out of \p ws into an owning tree over \p n nodes
/// (pass g.num_nodes(); unreached slots get the kInfCost/kInvalid fill the
/// seed used).
[[nodiscard]] ShortestPathTree export_tree(const SearchWorkspace& ws,
                                           std::size_t n);

/// Reconstructs the path to \p target straight from \p ws — exactly
/// ShortestPathTree::path_to without materializing the tree.
[[nodiscard]] std::optional<Path> extract_path(const SearchWorkspace& ws,
                                               NodeId target);

/// Full search + export, for callers that want an owning tree.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        SearchWorkspace& ws,
                                        const EdgeMask* mask = nullptr);

/// Point-to-point min-cost path with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                SearchWorkspace& ws,
                                                const EdgeMask* mask = nullptr);

// --- batched tier --------------------------------------------------------

/// One prepared pass that runs |sources| independent SSSPs over a layered
/// state space (state = layer·|V| + node) — the Steiner base case would
/// otherwise run k separate searches, each paying its own prepare, mask
/// capture, and cold CSR streams. Layers run back to back over one slot bank, so the heap's
/// working set stays standalone-sized while the incidence/weight arrays and
/// the mask stay hot across layers. Layer i's results are bitwise identical
/// to a standalone dijkstra_into(g, sources[i], ws, mask): its loop is the
/// standalone loop with slot indices offset by layer·|V|. Read the result
/// bank through MultiSourceView; it stays valid until the next prepare of
/// \p ws.
void multi_source_dijkstra_into(const Graph& g, std::span<const NodeId> sources,
                                SearchWorkspace& ws,
                                const EdgeMask* mask = nullptr);

/// Layer-strided read view over a workspace filled by
/// multi_source_dijkstra_into. Parents are reported as node ids within the
/// layer (the stored state ids are translated back).
class MultiSourceView {
 public:
  MultiSourceView(const SearchWorkspace& ws, const Graph& g,
                  std::size_t num_layers)
      : ws_(&ws), n_(g.num_nodes()), layers_(num_layers) {}

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_; }
  [[nodiscard]] bool reached(std::size_t layer, NodeId v) const {
    return ws_->reached(state(layer, v));
  }
  [[nodiscard]] double dist(std::size_t layer, NodeId v) const {
    return ws_->dist(state(layer, v));
  }
  [[nodiscard]] NodeId parent(std::size_t layer, NodeId v) const {
    const NodeId p = ws_->parent(state(layer, v));
    return p == kInvalidNode
               ? kInvalidNode
               : static_cast<NodeId>(p - layer * n_);
  }
  [[nodiscard]] EdgeId parent_edge(std::size_t layer, NodeId v) const {
    return ws_->parent_edge(state(layer, v));
  }

 private:
  [[nodiscard]] NodeId state(std::size_t layer, NodeId v) const {
    DAGSFC_ASSERT(layer < layers_ && v < n_);
    return static_cast<NodeId>(layer * n_ + v);
  }

  const SearchWorkspace* ws_;
  std::size_t n_;
  std::size_t layers_;
};

/// One search from \p source that stops as soon as *every* node in
/// \p targets has been settled — the inter-layer multicast fan-outs route
/// all meta-paths sharing a source with one heap pass instead of
/// |targets| early-exit runs. Each extract_path(ws, t) afterwards is
/// bitwise identical to its individual min_cost_path: targets are finalized
/// when popped, and continuing past an earlier target cannot rewrite
/// anything already settled. Duplicate target entries are fine.
void dijkstra_into_targets(const Graph& g, NodeId source,
                           std::span<const NodeId> targets,
                           SearchWorkspace& ws, const EdgeMask* mask = nullptr);

// --- legacy tier ---------------------------------------------------------

/// Dijkstra from \p source over the whole graph (or the filtered subgraph).
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        const EdgeFilter& filter = {});

/// Point-to-point min-cost path with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                const EdgeFilter& filter = {});

}  // namespace dagsfc::graph
