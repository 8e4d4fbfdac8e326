#include "graph/dijkstra.hpp"

namespace dagsfc::graph {

std::optional<Path> ShortestPathTree::path_to(NodeId target) const {
  if (!reached(target)) return std::nullopt;
  // One parent walk to count hops, then exact-size fills backwards — no
  // push_back growth, no reverse.
  std::size_t hops = 0;
  for (NodeId v = target; v != source; v = parent[v]) ++hops;
  Path p;
  p.cost = dist[target];
  p.nodes.resize(hops + 1);
  p.edges.resize(hops);
  NodeId v = target;
  for (std::size_t i = hops; i > 0; --i) {
    p.nodes[i] = v;
    p.edges[i - 1] = parent_edge[v];
    v = parent[v];
  }
  p.nodes[0] = source;
  return p;
}

namespace {

/// The flat relaxation loop, templated on the edge-admission test so the
/// unfiltered instantiation carries no per-edge branch on a mask pointer.
/// The scan streams the CSR incidence and weight arrays in lockstep — the
/// only random access left per arc is the neighbor's fused dist/stamp slot.
///
/// Bit-identity with the seed's reference::run_dijkstra (tests/oracles/):
/// the loop structure (pop → stale check → stop check → relax on strict
/// improvement) is the same, CSR rows replay the adjacency lists in
/// insertion order, and the workspace heap pops in the same (dist, node)
/// lexicographic order as the seed's std::priority_queue. Since a node is
/// only re-pushed with a strictly smaller dist, all live heap entries are
/// distinct, so *any* correct min-heap pops the identical sequence —
/// neither the heap's layout nor its integer key encoding can change a
/// parent, a distance, or a tie-break.
template <typename Allow>
void run_flat(const Graph& g, NodeId source, SearchWorkspace& ws,
              const Allow& allow, NodeId stop_at) {
  DAGSFC_CHECK(g.has_node(source));
  const CsrView csr = g.csr();
  const std::uint32_t* const off = csr.offsets.data();
  const Incidence* const inc = csr.incidence.data();
  const double* const wt = csr.weights.data();
  ws.prepare(g);
  ws.start(source);
  while (!ws.heap_empty()) {
    const auto [d, v] = ws.heap_pop();
    if (d > ws.dist_unchecked(v)) continue;  // stale entry
    if (v == stop_at) break;
    const std::uint32_t row_end = off[v + 1];
    for (std::uint32_t s = off[v]; s != row_end; ++s) {
      const Incidence in = inc[s];
      if (!allow(in.edge)) continue;
      const double nd = d + wt[s];
      if (nd < ws.dist_if_live(in.neighbor)) {
        ws.relax(in.neighbor, nd, v, in.edge);
        ws.heap_push(nd, in.neighbor);
      }
    }
  }
}

}  // namespace

void dijkstra_into(const Graph& g, NodeId source, SearchWorkspace& ws,
                   const EdgeMask* mask, NodeId stop_at) {
  if (mask == nullptr) {
    run_flat(
        g, source, ws, [](EdgeId) { return true; }, stop_at);
  } else {
    DAGSFC_ASSERT(mask->num_edges() >= g.num_edges());
    const EdgeMask m = *mask;
    run_flat(
        g, source, ws, [m](EdgeId e) { return m.allows(e); }, stop_at);
  }
}

ShortestPathTree export_tree(const SearchWorkspace& ws, std::size_t n) {
  ShortestPathTree t;
  t.source = ws.source();
  t.dist.resize(n);
  t.parent.resize(n);
  t.parent_edge.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    t.dist[v] = ws.dist(v);
    t.parent[v] = ws.parent(v);
    t.parent_edge[v] = ws.parent_edge(v);
  }
  return t;
}

std::optional<Path> extract_path(const SearchWorkspace& ws, NodeId target) {
  if (!ws.reached(target)) return std::nullopt;
  const NodeId source = ws.source();
  std::size_t hops = 0;
  for (NodeId v = target; v != source; v = ws.parent(v)) ++hops;
  Path p;
  p.cost = ws.dist_unchecked(target);
  p.nodes.resize(hops + 1);
  p.edges.resize(hops);
  NodeId v = target;
  for (std::size_t i = hops; i > 0; --i) {
    p.nodes[i] = v;
    p.edges[i - 1] = ws.parent_edge(v);
    v = ws.parent(v);
  }
  p.nodes[0] = source;
  return p;
}

ShortestPathTree dijkstra(const Graph& g, NodeId source, SearchWorkspace& ws,
                          const EdgeMask* mask) {
  dijkstra_into(g, source, ws, mask);
  return export_tree(ws, g.num_nodes());
}

std::optional<Path> min_cost_path(const Graph& g, NodeId source, NodeId target,
                                  SearchWorkspace& ws, const EdgeMask* mask) {
  DAGSFC_CHECK(g.has_node(target));
  dijkstra_into(g, source, ws, mask, target);
  return extract_path(ws, target);
}

namespace {

/// The layered multi-source loop shared by the masked and unmasked
/// instantiations. State ids are layer·|V| + node; layers run back to back
/// over one prepared slot bank, so the heap's working set never exceeds a
/// single standalone search and the CSR/weight streams stay hot across
/// layers. Every layer's pass *is* the standalone loop — only the slot
/// indices carry the layer offset — so per-layer results are bitwise the
/// standalone run's by construction.
template <typename Allow>
void run_flat_multi(const Graph& g, std::span<const NodeId> sources,
                    SearchWorkspace& ws, const Allow& allow) {
  const std::size_t n = g.num_nodes();
  const std::size_t k = sources.size();
  DAGSFC_CHECK(k > 0);
  DAGSFC_CHECK_MSG(k * n < static_cast<std::size_t>(kInvalidNode),
                   "layered state space must fit the node id type");
  const CsrView csr = g.csr();
  const std::uint32_t* const off = csr.offsets.data();
  const Incidence* const inc = csr.incidence.data();
  const double* const wt = csr.weights.data();
  for (const NodeId s : sources) DAGSFC_CHECK(g.has_node(s));
  ws.prepare_states(k * n, 2 * g.num_edges() + 2);
  for (std::size_t layer = 0; layer < k; ++layer) {
    const NodeId layer_base = static_cast<NodeId>(layer * n);
    const auto sv = static_cast<NodeId>(layer_base + sources[layer]);
    ws.relax(sv, 0.0, kInvalidNode, kInvalidEdge);
    ws.heap_push(0.0, sv);
    while (!ws.heap_empty()) {
      const auto [d, sv2] = ws.heap_pop();
      if (d > ws.dist_unchecked(sv2)) continue;  // stale entry
      const auto v = static_cast<NodeId>(sv2 - layer_base);
      const std::uint32_t row_end = off[v + 1];
      for (std::uint32_t s = off[v]; s != row_end; ++s) {
        const Incidence in = inc[s];
        if (!allow(in.edge)) continue;
        const double nd = d + wt[s];
        const NodeId w = layer_base + in.neighbor;
        if (nd < ws.dist_if_live(w)) {
          ws.relax(w, nd, sv2, in.edge);
          ws.heap_push(nd, w);
        }
      }
    }
  }
}

}  // namespace

void multi_source_dijkstra_into(const Graph& g, std::span<const NodeId> sources,
                                SearchWorkspace& ws, const EdgeMask* mask) {
  if (mask == nullptr) {
    run_flat_multi(g, sources, ws, [](EdgeId) { return true; });
  } else {
    DAGSFC_ASSERT(mask->num_edges() >= g.num_edges());
    const EdgeMask m = *mask;
    run_flat_multi(g, sources, ws, [m](EdgeId e) { return m.allows(e); });
  }
}

namespace {

template <typename Allow>
void run_flat_targets(const Graph& g, NodeId source,
                      std::span<const NodeId> targets, SearchWorkspace& ws,
                      const Allow& allow) {
  DAGSFC_CHECK(g.has_node(source));
  const CsrView csr = g.csr();
  const std::uint32_t* const off = csr.offsets.data();
  const Incidence* const inc = csr.incidence.data();
  const double* const wt = csr.weights.data();
  // Pending = targets not yet settled. Small list, so the per-pop membership
  // scan beats any indexed structure; removing *all* matches of a popped
  // node also makes duplicate target entries harmless.
  std::vector<NodeId>& pending = ws.scratch_nodes();
  pending.assign(targets.begin(), targets.end());
  for (const NodeId t : pending) DAGSFC_CHECK(g.has_node(t));
  ws.prepare(g);
  ws.start(source);
  while (!ws.heap_empty() && !pending.empty()) {
    const auto [d, v] = ws.heap_pop();
    if (d > ws.dist_unchecked(v)) continue;  // stale entry
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i] == v) {
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    if (pending.empty()) break;  // last target settled; its row is moot
    const std::uint32_t row_end = off[v + 1];
    for (std::uint32_t s = off[v]; s != row_end; ++s) {
      const Incidence in = inc[s];
      if (!allow(in.edge)) continue;
      const double nd = d + wt[s];
      if (nd < ws.dist_if_live(in.neighbor)) {
        ws.relax(in.neighbor, nd, v, in.edge);
        ws.heap_push(nd, in.neighbor);
      }
    }
  }
}

}  // namespace

void dijkstra_into_targets(const Graph& g, NodeId source,
                           std::span<const NodeId> targets,
                           SearchWorkspace& ws, const EdgeMask* mask) {
  if (mask == nullptr) {
    run_flat_targets(g, source, targets, ws, [](EdgeId) { return true; });
  } else {
    DAGSFC_ASSERT(mask->num_edges() >= g.num_edges());
    const EdgeMask m = *mask;
    run_flat_targets(g, source, targets, ws,
                     [m](EdgeId e) { return m.allows(e); });
  }
}

ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          const EdgeFilter& filter) {
  SearchWorkspace& ws = thread_local_workspace();
  if (!filter) return dijkstra(g, source, ws);
  ws.scratch_mask().fill_from(g, filter);
  const EdgeMask mask = ws.scratch_mask().view();
  return dijkstra(g, source, ws, &mask);
}

std::optional<Path> min_cost_path(const Graph& g, NodeId source, NodeId target,
                                  const EdgeFilter& filter) {
  SearchWorkspace& ws = thread_local_workspace();
  if (!filter) return min_cost_path(g, source, target, ws);
  ws.scratch_mask().fill_from(g, filter);
  const EdgeMask mask = ws.scratch_mask().view();
  return min_cost_path(g, source, target, ws, &mask);
}

}  // namespace dagsfc::graph
