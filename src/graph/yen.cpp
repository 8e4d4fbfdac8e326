#include "graph/yen.hpp"

#include <algorithm>
#include <set>

namespace dagsfc::graph {

namespace {

/// Lexicographic tie-break so results are deterministic across platforms.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  }
};

}  // namespace

// Structurally the seed algorithm (see reference.cpp) with one change: the
// per-spur closure over fresh std::sets of banned edges/nodes becomes a
// word-copy of the base mask with the banned bits cleared. "Edge incident to
// a banned node" and "banned edge id" carve out exactly the edges the seed
// filter rejected, so every spur search sees the same admissible subgraph
// and the accepted paths are bit-identical.
std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                   NodeId target, std::size_t k,
                                   const EdgeMask* mask, SearchWorkspace& ws) {
  std::vector<Path> result;
  if (k == 0) return result;

  auto first = min_cost_path(g, source, target, ws, mask);
  if (!first) return result;
  result.push_back(std::move(*first));

  EdgeMaskBuffer& base = ws.base_mask();
  if (mask != nullptr) {
    base.copy_from(*mask);
  } else {
    base.assign(g.num_edges(), true);
  }
  EdgeMaskBuffer& spur = ws.spur_mask();
  const CsrView csr = g.csr();

  std::set<Path, PathLess> candidates;
  std::set<std::vector<NodeId>> known;  // dedupe by node sequence
  known.insert(result.front().nodes);

  while (result.size() < k) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) spawns a spur.
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const NodeId spur_node = prev.nodes[i];

      // Edges removed for this spur: (a) the i-th edge of every accepted
      // path sharing the root prefix, (b) edges internal to the root path so
      // the spur cannot revisit it — here "clear every edge incident to a
      // root-prefix node", which bans the same traversals the seed's
      // banned_nodes test did.
      spur.copy_from(base);
      for (const Path& p : result) {
        if (p.nodes.size() > i + 1 &&
            std::equal(p.nodes.begin(), p.nodes.begin() + i + 1,
                       prev.nodes.begin())) {
          spur.clear(p.edges[i]);
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        for (const Incidence& inc : csr.row(prev.nodes[j])) {
          spur.clear(inc.edge);
        }
      }

      const EdgeMask spur_mask = spur.view();
      auto spur_path = min_cost_path(g, spur_node, target, ws, &spur_mask);
      if (!spur_path) continue;

      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      total.edges.insert(total.edges.end(), spur_path->edges.begin(),
                         spur_path->edges.end());
      total.cost = g.path_cost(total);
      if (known.insert(total.nodes).second) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                   NodeId target, std::size_t k,
                                   const EdgeFilter& filter) {
  SearchWorkspace& ws = thread_local_workspace();
  if (!filter) return k_shortest_paths(g, source, target, k, nullptr, ws);
  ws.scratch_mask().fill_from(g, filter);
  const EdgeMask mask = ws.scratch_mask().view();
  return k_shortest_paths(g, source, target, k, &mask, ws);
}

}  // namespace dagsfc::graph
