// Frozen seed implementations — see reference.hpp for why these exist.
// This file is a verbatim copy of the original dijkstra.cpp / yen.cpp /
// steiner.cpp bodies; keep it byte-for-byte faithful to the seed logic.

#include "oracles/reference.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <set>
#include <utility>

namespace dagsfc::graph::reference {

namespace {

ShortestPathTree run_dijkstra(const Graph& g, NodeId source,
                              const EdgeFilter& filter,
                              std::optional<NodeId> stop_at) {
  DAGSFC_CHECK(g.has_node(source));
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(g.num_nodes(), kInfCost);
  t.parent.assign(g.num_nodes(), kInvalidNode);
  t.parent_edge.assign(g.num_nodes(), kInvalidEdge);

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  t.dist[source] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > t.dist[v]) continue;  // stale entry
    if (stop_at && v == *stop_at) break;
    for (const Incidence& inc : g.neighbors(v)) {
      if (filter && !filter(inc.edge)) continue;
      const double nd = d + g.edge(inc.edge).weight;
      if (nd < t.dist[inc.neighbor]) {
        t.dist[inc.neighbor] = nd;
        t.parent[inc.neighbor] = v;
        t.parent_edge[inc.neighbor] = inc.edge;
        pq.emplace(nd, inc.neighbor);
      }
    }
  }
  return t;
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          const EdgeFilter& filter) {
  return run_dijkstra(g, source, filter, std::nullopt);
}

std::optional<Path> min_cost_path(const Graph& g, NodeId source, NodeId target,
                                  const EdgeFilter& filter) {
  DAGSFC_CHECK(g.has_node(target));
  return run_dijkstra(g, source, filter, target).path_to(target);
}

namespace {

/// Lexicographic tie-break so results are deterministic across platforms.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  }
};

}  // namespace

std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                   NodeId target, std::size_t k,
                                   const EdgeFilter& filter) {
  std::vector<Path> result;
  if (k == 0) return result;

  auto first = reference::min_cost_path(g, source, target, filter);
  if (!first) return result;
  result.push_back(std::move(*first));

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
      // the spur cannot revisit it.
      std::set<EdgeId> banned_edges;
      for (const Path& p : result) {
        if (p.nodes.size() > i + 1 &&
            std::equal(p.nodes.begin(), p.nodes.begin() + i + 1,
                       prev.nodes.begin())) {
          banned_edges.insert(p.edges[i]);
        }
      }
      std::set<NodeId> banned_nodes(prev.nodes.begin(), prev.nodes.begin() + i);

      EdgeFilter spur_filter = [&](EdgeId e) {
        if (filter && !filter(e)) return false;
        if (banned_edges.count(e)) return false;
        const Edge& ed = g.edge(e);
        if (banned_nodes.count(ed.u) || banned_nodes.count(ed.v)) return false;
        return true;
      };

      auto spur = reference::min_cost_path(g, spur_node, target, spur_filter);
      if (!spur) continue;

      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.nodes.insert(total.nodes.end(), spur->nodes.begin(),
                         spur->nodes.end());
      total.edges.insert(total.edges.end(), spur->edges.begin(),
                         spur->edges.end());
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

namespace {

struct Choice {
  enum class Kind : std::uint8_t { None, Init, Merge, Extend };
  Kind kind = Kind::None;
  std::uint32_t split = 0;   // Merge: one proper subset S' (other is S\S')
  NodeId from = kInvalidNode;  // Extend: predecessor node u; Init: terminal
};

}  // namespace

std::optional<SteinerTree> steiner_tree(const Graph& g,
                                        const std::vector<NodeId>& terminals,
                                        const EdgeFilter& filter) {
  std::vector<NodeId> terms(terminals);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  for (NodeId t : terms) DAGSFC_CHECK(g.has_node(t));
  if (terms.empty()) return SteinerTree{};
  if (terms.size() == 1) return SteinerTree{};
  DAGSFC_CHECK_MSG(terms.size() <= 14, "too many Steiner terminals for DP");

  const std::size_t n = g.num_nodes();
  const std::size_t k = terms.size();
  const std::uint32_t full = (1u << k) - 1;

  // dp[S][v]: min weight of a tree containing node v and terminal subset S.
  std::vector<std::vector<double>> dp(full + 1,
                                      std::vector<double>(n, kInfCost));
  std::vector<std::vector<Choice>> how(full + 1, std::vector<Choice>(n));

  // Single-terminal base: dp[{i}][v] = shortest-path dist(t_i, v).
  std::vector<ShortestPathTree> term_sp;
  term_sp.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    term_sp.push_back(reference::dijkstra(g, terms[i], filter));
    const std::uint32_t bit = 1u << i;
    for (NodeId v = 0; v < n; ++v) {
      dp[bit][v] = term_sp[i].dist[v];
      how[bit][v] = Choice{Choice::Kind::Init, 0, terms[i]};
    }
  }

  using Item = std::pair<double, NodeId>;
  for (std::uint32_t S = 1; S <= full; ++S) {
    if ((S & (S - 1)) == 0) continue;  // singletons done above
    auto& row = dp[S];
    auto& hrow = how[S];
    // Merge two complementary sub-trees at v.
    for (std::uint32_t sub = (S - 1) & S; sub > 0; sub = (sub - 1) & S) {
      const std::uint32_t rest = S ^ sub;
      if (sub > rest) continue;  // each unordered split once
      const auto& a = dp[sub];
      const auto& b = dp[rest];
      for (NodeId v = 0; v < n; ++v) {
        if (a[v] == kInfCost || b[v] == kInfCost) continue;
        const double c = a[v] + b[v];
        if (c < row[v]) {
          row[v] = c;
          hrow[v] = Choice{Choice::Kind::Merge, sub, kInvalidNode};
        }
      }
    }
    // Dijkstra-style relaxation: grow the tree along cheap paths.
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (NodeId v = 0; v < n; ++v) {
      if (row[v] < kInfCost) pq.emplace(row[v], v);
    }
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > row[v]) continue;
      for (const Incidence& inc : g.neighbors(v)) {
        if (filter && !filter(inc.edge)) continue;
        const double nd = d + g.edge(inc.edge).weight;
        if (nd < row[inc.neighbor]) {
          row[inc.neighbor] = nd;
          hrow[inc.neighbor] = Choice{Choice::Kind::Extend, 0, v};
          pq.emplace(nd, inc.neighbor);
        }
      }
    }
  }

  const NodeId root = terms[0];
  if (dp[full][root] == kInfCost) return std::nullopt;

  // Reconstruct the edge set by unwinding the DP choices.
  std::set<EdgeId> edges;
  std::vector<std::pair<std::uint32_t, NodeId>> stack{{full, root}};
  auto add_tree_path = [&](const ShortestPathTree& sp, NodeId v) {
    while (v != sp.source) {
      edges.insert(sp.parent_edge[v]);
      v = sp.parent[v];
    }
  };
  while (!stack.empty()) {
    auto [S, v] = stack.back();
    stack.pop_back();
    const Choice& c = how[S][v];
    switch (c.kind) {
      case Choice::Kind::Init: {
        // Path from terminal c.from to v along that terminal's SP tree.
        std::size_t ti = 0;
        while (terms[ti] != c.from) ++ti;
        add_tree_path(term_sp[ti], v);
        break;
      }
      case Choice::Kind::Merge:
        stack.emplace_back(c.split, v);
        stack.emplace_back(S ^ c.split, v);
        break;
      case Choice::Kind::Extend: {
        const auto e = g.find_edge(c.from, v);
        DAGSFC_ASSERT(e.has_value());
        edges.insert(*e);
        stack.emplace_back(S, c.from);
        break;
      }
      case Choice::Kind::None:
        DAGSFC_CHECK_MSG(false, "Steiner reconstruction hit an unset cell");
    }
  }

  SteinerTree out;
  out.edges.assign(edges.begin(), edges.end());
  for (EdgeId e : out.edges) out.cost += g.edge(e).weight;
  // Deduplication can only make the reconstruction cheaper; the DP value is
  // optimal, so equality must hold (up to float noise).
  DAGSFC_ASSERT(out.cost <= dp[full][root] + 1e-9);
  return out;
}

}  // namespace dagsfc::graph::reference
