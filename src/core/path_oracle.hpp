#pragma once
/// \file path_oracle.hpp
/// The one gateway through which embedders ask shortest-path questions.
///
/// A PathOracle binds the topology, the residual ledger and the flow rate,
/// restricts every query to the links with enough residual capacity, and
/// routes each query through the ledger's graph::PathCache when one is
/// enabled — falling back to direct computation otherwise. Either way it
/// tallies graph::PathQueryCounters, which the embedders surface on
/// SolveResult.
///
/// The oracle also owns the per-solve machinery the flat kernels want: a
/// SearchWorkspace (caller-supplied so a worker thread can reuse one across
/// solves, or embedded as a fallback) and an epoch-keyed usable-edge mask —
/// link_can_carry is re-evaluated per edge only when the ledger epoch
/// moves, not per probe.
///
/// Cached and uncached answers are bit-identical by construction: a cached
/// point-to-point path is read out of the full Dijkstra tree, whose parent
/// chain for any target equals the early-exit run's (targets are finalized
/// when popped; later relaxations cannot improve them), and cached Yen
/// results are the same deterministic k_shortest_paths() output. Answers
/// are also bit-identical to the seed search the flat kernels replaced —
/// tests/test_search_flat.cpp holds every kernel to the frozen copy in
/// tests/oracles/ and every embedder to digests recorded from it.

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/path_cache.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "net/ledger.hpp"

namespace dagsfc::core {

using graph::NodeId;

class PathOracle {
 public:
  /// \p ws lets the caller lend a long-lived workspace (per worker thread);
  /// when null the oracle uses an embedded one, so warm reuse then spans one
  /// solve instead of many.
  explicit PathOracle(const graph::Graph& g, const net::CapacityLedger& ledger,
                      double rate, graph::SearchWorkspace* ws = nullptr)
      : g_(&g),
        ledger_(&ledger),
        rate_(rate),
        ws_(ws != nullptr ? ws : &own_ws_) {}

  PathOracle(const PathOracle&) = delete;
  PathOracle& operator=(const PathOracle&) = delete;

  /// The workspace queries run through — for callers (ring searches) that
  /// share the oracle's buffers.
  [[nodiscard]] graph::SearchWorkspace& workspace() noexcept { return *ws_; }

  /// Min-cost tree from \p source over usable links.
  [[nodiscard]] std::shared_ptr<const graph::ShortestPathTree> tree(
      NodeId source);

  /// Min-cost path a → b over usable links; nullopt when unreachable.
  [[nodiscard]] std::optional<graph::Path> min_cost_path(NodeId a, NodeId b);

  /// Batched: min-cost paths a → targets[i], element i of the result
  /// matching target i (nullopt where unreachable). Bit-identical to
  /// calling min_cost_path per target — with a cache it reads one tree,
  /// without one it runs a single multi-target pass (dijkstra_into_targets)
  /// whose settled parents equal each early-exit run's. The baselines route
  /// all meta-paths sharing a source through this.
  [[nodiscard]] std::vector<std::optional<graph::Path>> min_cost_paths(
      NodeId a, std::span<const NodeId> targets);

  /// Yen's k cheapest paths a → b over usable links.
  [[nodiscard]] std::vector<graph::Path> k_shortest(NodeId a, NodeId b,
                                                    std::size_t k);

  /// Yen under a caller-supplied filter (e.g. restricted to a search-tree
  /// node set). Never cached — the filter's identity is not keyable — but
  /// still counted.
  [[nodiscard]] std::vector<graph::Path> k_shortest_filtered(
      NodeId a, NodeId b, std::size_t k, const graph::EdgeFilter& filter);

  /// Minimum Steiner tree over usable links (the exact-class solvers'
  /// multicast pricing). Counted in PathQueryCounters::steiner_calls.
  [[nodiscard]] std::optional<graph::SteinerTree> steiner(
      const std::vector<NodeId>& terminals);

  /// Tallies one BFS ring search run by the caller through workspace() —
  /// the backtracking engine's forward/backward expansions, which don't
  /// route through the oracle's query methods but should still show up in
  /// the solver's path-work accounting.
  void note_bfs() noexcept { ++counters_.bfs_calls; }

  [[nodiscard]] const graph::PathQueryCounters& counters() const noexcept {
    return counters_;
  }

 private:
  /// Everything the usable-links mask depends on besides the ledger epoch,
  /// folded into the cache key so flows of different rates never share
  /// entries.
  [[nodiscard]] std::uint64_t context() const noexcept {
    return std::bit_cast<std::uint64_t>(rate_);
  }

  /// The usable-links mask, rebuilt from link_can_carry only when the
  /// ledger epoch has moved since the last query.
  [[nodiscard]] const graph::EdgeMask* usable_mask();

  /// usable_mask(), except it returns nullptr when no edge is currently
  /// masked out — the kernels then skip the per-arc bit test. Same
  /// admissible edge set either way.
  [[nodiscard]] const graph::EdgeMask* effective_mask();

  const graph::Graph* g_;
  const net::CapacityLedger* ledger_;
  double rate_;
  graph::PathQueryCounters counters_;

  graph::SearchWorkspace own_ws_;
  graph::SearchWorkspace* ws_;

  graph::EdgeMaskBuffer usable_mask_;
  graph::EdgeMask usable_view_;
  std::uint64_t mask_epoch_ = 0;
  bool mask_ready_ = false;
  bool mask_full_ = false;  // no cleared bits in the current usable mask
  graph::EdgeMaskBuffer filtered_mask_;  // k_shortest_filtered scratch
};

}  // namespace dagsfc::core
