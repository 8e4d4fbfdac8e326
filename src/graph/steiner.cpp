#include "graph/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

namespace dagsfc::graph {

namespace {

// Backtrack cells, packed to one word so the (2^k × |V|) table is a single
// flat allocation-free scratch array: kind in the top two bits, a
// kind-specific aux field (merge split mask / base terminal index) in bits
// 32..61, and a 32-bit payload (the extend edge id) in the low word.
constexpr std::uint64_t kHowNone = 0;
constexpr std::uint64_t kHowInit = 1;
constexpr std::uint64_t kHowMerge = 2;
constexpr std::uint64_t kHowExtend = 3;

constexpr std::uint64_t pack_how(std::uint64_t kind, std::uint64_t aux,
                                 std::uint64_t payload) {
  return (kind << 62) | (aux << 32) | payload;
}
constexpr std::uint64_t how_kind(std::uint64_t h) { return h >> 62; }
constexpr std::uint32_t how_aux(std::uint64_t h) {
  return static_cast<std::uint32_t>((h >> 32) & 0x3fffffffu);
}
constexpr std::uint32_t how_payload(std::uint64_t h) {
  return static_cast<std::uint32_t>(h);
}

/// The float-safety guard pruning compares against: a candidate is dropped
/// only when value + fut exceeds UB by more than a 1e-9 relative slack. The
/// slack absorbs the last-ulp rounding differences between the bound
/// arithmetic (base-case distance sums) and the DP's own chained additions —
/// accumulated double error is ~1e-13 relative, orders of magnitude under
/// the slack — so a write the unpruned run needs can never be dropped, which
/// is load-bearing for bit-identity.
constexpr double prune_guard(double ub) noexcept { return ub + ub * 1e-9; }

}  // namespace

// The seed Dreyfus–Wagner DP (see reference.cpp) with two accelerations on
// top of the flat kernels; both leave the returned tree bit-identical to
// the seed's (checked by the cross-kernel battery in
// tests/test_search_flat.cpp):
//
//   1. Batched base case. The k single-terminal rows dp[{i}][·] used to be
//      k independent Dijkstra exhaustions; they are now one
//      multi_source_dijkstra_into() pass whose layer i is bitwise the
//      standalone search from terms[i] (see dijkstra.hpp), read back
//      through the workspace bank both for the rows and for the
//      reconstruction parent walks.
//
//   2. Future-cost pruning. UB is the cost of a real Steiner candidate: the
//      Takahashi–Matsuyama greedy tree (start at the root, repeatedly
//      attach the nearest remaining terminal along its shortest path to the
//      tree, priced straight off the base-case rows), capped by the star
//      bound Σ_{i>0} d(root, t_i) — so the optimum is ≤ UB, and usually
//      within a few percent of it. For a cell (S, v), any completion to
//      (full, root) is a walk v→root (extension edges, cost W ≥ d(v, root))
//      with the merged sub-trees hanging off walk nodes: a missing terminal
//      t ∉ S sits in a sub-tree merged at some walk node u, so
//        completion ≥ W + d(t, u) ≥ d(v, u) + d(u, root) + d(t, u)
//                   ≥ min_u [d(v, u) + d(root, u) + d(t, u)] =: futplus_t(v)
//      — a per-terminal field computed by one Dijkstra-style pass seeded
//      with d(root, u) + d(t, u) at every u (a min-convolution with the
//      graph metric; k−1 passes total, amortized across all 2^k subsets).
//      futplus_t ≥ max(d(root, ·), d(t, ·)) always and approaches their
//      *sum*, which is what makes the small-|S| rows (many missing
//      terminals, the bulk of the DP) actually prune. Then
//        fut(S, v) = max(d(root, v), max_{t∉S} futplus_t(v))
//      lower-bounds the remaining cost and any write with
//      value + fut > prune_guard(UB) can be dropped. Dropped work stays
//      dropped: extensions of a pruned cell re-fail the test (fut is
//      1-Lipschitz across edges in exact arithmetic), and a merge with a
//      pruned ingredient dp[sub][v] re-fails it in the superset S = sub∪rest
//      because fut(sub, v) ≤ dp[rest][v] + fut(S, v): for t missing from S,
//      futplus_t ≤ fut(S, v); for t ∈ rest, futplus_t(v) ≤ d(root, v) +
//      d(t, v) ≤ fut(S, v) + dp[rest][v] (every finite dp value is the cost
//      of a real tree, hence ≥ d(t, v) for its terminals, and fut ≥
//      d(root, v) by construction). Divergent values are thereby confined
//      to prunable cells, and a guard-passing write c is always accepted
//      identically in both runs: any prunable value p at the same cell
//      satisfies c + fut ≤ guard < p + fut, i.e. c < p, so the `c < row[v]`
//      acceptance test cannot be flipped by a prunable occupant. Every cell
//      of the optimal derivation chain satisfies value + fut ≤ optimum ≤ UB
//      outright — per-cell admissibility with prune_guard's 1e-9 relative
//      slack absorbing the float rounding, independent of any other cell's
//      fate — so the chain's writes, their acceptance order, and the
//      backtrack entries reconstruction reads are untouched.
std::optional<SteinerTree> steiner_tree(const Graph& g,
                                        const std::vector<NodeId>& terminals,
                                        const EdgeMask* mask,
                                        SearchWorkspace& ws) {
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
  const CsrView csr = g.csr();
  const Incidence* const arcs = csr.incidence.data();
  const double* const wt = csr.weights.data();

  // One batched pass replaces the k per-terminal exhaustions. The bank
  // (layer-strided slots in ws) stays valid for the whole call: the DP loop
  // below only reuses the workspace *heap*, never the slots.
  multi_source_dijkstra_into(g, terms, ws, mask);
  const MultiSourceView bank(ws, g, k);

  // Flat scratch layout: dp rows (full+1)·n, then the per-subset future
  // bound row (n), then a dense copy of the bank distances (k·n) so the DP
  // inner loops read plain doubles instead of stamp-checked slots, then the
  // per-terminal futplus fields (k·n; row 0 unused — the root's attachment
  // bound is the d(root, ·) base term).
  std::vector<double>& f64 = ws.scratch_f64();
  f64.assign((full + 1) * n + n + 2 * k * n, kInfCost);
  double* const dp = f64.data();
  double* const fut = dp + (full + 1) * n;
  double* const term_dist = fut + n;
  double* const futplus = term_dist + k * n;
  std::vector<std::uint64_t>& how = ws.scratch_u64();
  how.assign((full + 1) * n, pack_how(kHowNone, 0, 0));

  for (std::size_t i = 0; i < k; ++i) {
    double* const row = dp + static_cast<std::size_t>(1u << i) * n;
    double* const td = term_dist + i * n;
    const std::uint64_t h = pack_how(kHowInit, i, 0);
    std::uint64_t* const hrow = how.data() + static_cast<std::size_t>(1u << i) * n;
    for (NodeId v = 0; v < n; ++v) {
      const double d = bank.dist(i, v);
      td[v] = d;
      row[v] = d;
      hrow[v] = h;
    }
  }

  // Star upper bound rooted at terms[0]; +inf when a terminal is cut off,
  // which turns the guard off (the DP then reports infeasible as before).
  const double* const dist_root = term_dist;
  double ub = 0.0;
  for (std::size_t i = 1; i < k; ++i) ub += dist_root[terms[i]];

  // Takahashi–Matsuyama greedy tree, usually far tighter than the star:
  // grow from the root, each round attaching the terminal closest to the
  // current tree along its shortest path (cost read from its base-case
  // row, nodes walked off the bank's parent chain). The overlap between
  // attach paths is not discounted, which only loosens the bound.
  if (ub < kInfCost) {
    std::vector<NodeId>& tree_nodes = ws.scratch_nodes();
    tree_nodes.assign(1, terms[0]);
    double tm = 0.0;
    std::uint32_t attached = 1;  // bitmask over terminal indices
    for (std::size_t round = 1; round < k; ++round) {
      double best_d = kInfCost;
      std::size_t best_i = 0;
      NodeId best_v = terms[0];
      for (std::size_t i = 1; i < k; ++i) {
        if ((attached >> i) & 1u) continue;
        const double* const td = term_dist + i * n;
        for (const NodeId v : tree_nodes) {
          if (td[v] < best_d) {
            best_d = td[v];
            best_i = i;
            best_v = v;
          }
        }
      }
      tm += best_d;
      attached |= 1u << best_i;
      for (NodeId v = best_v; v != terms[best_i];
           v = bank.parent(best_i, v)) {
        tree_nodes.push_back(bank.parent(best_i, v));
      }
    }
    if (tm < ub) ub = tm;
  }
  const double guard = prune_guard(ub);

  // futplus fields (see the file comment): one seeded relaxation pass per
  // non-root terminal. Only worth it when the guard is live and some subset
  // will actually read them (k ≥ 3 — for k = 2 the lone non-singleton
  // subset is `full`, whose fut is the d(root, ·) base term).
  const bool futplus_live = ub < kInfCost && k >= 3;
  if (futplus_live) {
    for (std::size_t i = 1; i < k; ++i) {
      double* const fp = futplus + i * n;
      const double* const td = term_dist + i * n;
      ws.heap_clear();
      for (NodeId v = 0; v < n; ++v) {
        fp[v] = dist_root[v] + td[v];
        ws.heap_push(fp[v], v);
      }
      while (!ws.heap_empty()) {
        const auto [d, v] = ws.heap_pop();
        if (d > fp[v]) continue;
        const std::uint32_t row_end = csr.offsets[v + 1];
        for (std::uint32_t s = csr.offsets[v]; s != row_end; ++s) {
          const Incidence inc = arcs[s];
          if (mask != nullptr && !mask->allows(inc.edge)) continue;
          const double nd = d + wt[s];
          if (nd < fp[inc.neighbor]) {
            fp[inc.neighbor] = nd;
            ws.heap_push(nd, inc.neighbor);
          }
        }
      }
    }
  }

  for (std::uint32_t S = 1; S <= full; ++S) {
    if ((S & (S - 1)) == 0) continue;  // singletons done above
    double* const row = dp + static_cast<std::size_t>(S) * n;
    std::uint64_t* const hrow = how.data() + static_cast<std::size_t>(S) * n;
    // Future bound for this subset; without live futplus fields (guard off
    // or k = 2) the plain distance fields keep the same shape for free.
    for (NodeId v = 0; v < n; ++v) fut[v] = dist_root[v];
    const double* const attach = futplus_live ? futplus : term_dist;
    for (std::size_t i = 1; i < k; ++i) {
      if ((S >> i) & 1u) continue;
      const double* const td = attach + i * n;
      for (NodeId v = 0; v < n; ++v) {
        if (td[v] > fut[v]) fut[v] = td[v];
      }
    }
    // Merge two complementary sub-trees at v.
    for (std::uint32_t sub = (S - 1) & S; sub > 0; sub = (sub - 1) & S) {
      const std::uint32_t rest = S ^ sub;
      if (sub > rest) continue;  // each unordered split once
      const double* const a = dp + static_cast<std::size_t>(sub) * n;
      const double* const b = dp + static_cast<std::size_t>(rest) * n;
      for (NodeId v = 0; v < n; ++v) {
        if (a[v] == kInfCost || b[v] == kInfCost) continue;
        const double c = a[v] + b[v];
        if (c < row[v] && c + fut[v] <= guard) {
          row[v] = c;
          hrow[v] = pack_how(kHowMerge, sub, 0);
        }
      }
    }
    // Dijkstra-style relaxation: grow the tree along cheap paths. The dist
    // array is the DP row, so only the heap comes from the workspace. Every
    // finite cell already passed the guard (all non-singleton writes are
    // guard-tested against this subset's fut), so seeding needs no re-test
    // — the guard's work here is keeping cells *out* of the row entirely.
    ws.heap_clear();
    for (NodeId v = 0; v < n; ++v) {
      if (row[v] < kInfCost) ws.heap_push(row[v], v);
    }
    while (!ws.heap_empty()) {
      const auto [d, v] = ws.heap_pop();
      if (d > row[v]) continue;
      const std::uint32_t row_end = csr.offsets[v + 1];
      for (std::uint32_t s = csr.offsets[v]; s != row_end; ++s) {
        const Incidence inc = arcs[s];
        if (mask != nullptr && !mask->allows(inc.edge)) continue;
        const double nd = d + wt[s];
        if (nd < row[inc.neighbor] && nd + fut[inc.neighbor] <= guard) {
          row[inc.neighbor] = nd;
          hrow[inc.neighbor] = pack_how(kHowExtend, 0, inc.edge);
          ws.heap_push(nd, inc.neighbor);
        }
      }
    }
  }

  const NodeId root = terms[0];
  if (dp[static_cast<std::size_t>(full) * n + root] == kInfCost) {
    return std::nullopt;
  }

  // Reconstruct the edge set by unwinding the DP choices.
  std::set<EdgeId> edges;
  std::vector<std::pair<std::uint32_t, NodeId>> stack{{full, root}};
  auto add_bank_path = [&](std::size_t layer, NodeId v) {
    // Walk layer `layer`'s parent chain from v back to terms[layer].
    while (v != terms[layer]) {
      edges.insert(bank.parent_edge(layer, v));
      v = bank.parent(layer, v);
    }
  };
  while (!stack.empty()) {
    auto [S, v] = stack.back();
    stack.pop_back();
    const std::uint64_t h = how[static_cast<std::size_t>(S) * n + v];
    switch (how_kind(h)) {
      case kHowInit:
        add_bank_path(how_aux(h), v);
        break;
      case kHowMerge: {
        const std::uint32_t sub = how_aux(h);
        stack.emplace_back(sub, v);
        stack.emplace_back(S ^ sub, v);
        break;
      }
      case kHowExtend: {
        const EdgeId e = how_payload(h);
        edges.insert(e);
        const Edge& edge = g.edge(e);
        stack.emplace_back(S, edge.u == v ? edge.v : edge.u);
        break;
      }
      default:
        DAGSFC_CHECK_MSG(false, "Steiner reconstruction hit an unset cell");
    }
  }

  SteinerTree out;
  out.edges.assign(edges.begin(), edges.end());
  for (EdgeId e : out.edges) out.cost += g.edge(e).weight;
  // Deduplication can only make the reconstruction cheaper; the DP value is
  // optimal, so equality must hold (up to float noise).
  DAGSFC_ASSERT(out.cost <=
                dp[static_cast<std::size_t>(full) * n + root] + 1e-9);
  return out;
}

std::optional<SteinerTree> steiner_tree(const Graph& g,
                                        const std::vector<NodeId>& terminals,
                                        const EdgeFilter& filter) {
  SearchWorkspace& ws = thread_local_workspace();
  if (!filter) return steiner_tree(g, terminals, nullptr, ws);
  ws.scratch_mask().fill_from(g, filter);
  const EdgeMask mask = ws.scratch_mask().view();
  return steiner_tree(g, terminals, &mask, ws);
}

}  // namespace dagsfc::graph
