#pragma once
/// \file path_cache.hpp
/// Footprint-invalidated memoization of shortest-path computations.
///
/// The embedders spend most of their time re-running Dijkstra and Yen
/// between the same endpoints while the residual network has not changed:
/// BBE/MBBE re-derive the min-cost tree of a sub-solution's end node once
/// per parent, the layered solver reads a Dijkstra tree per merger
/// candidate of every parallel layer, and the baselines route every
/// meta-path from scratch. A PathCache memoizes those results keyed by
/// (context, endpoints, k), where context is the flow rate bit-cast to
/// uint64 — the one extra input the usability filter depends on — so flows
/// of different rates never share entries.
///
/// ## Invalidation contract
///
/// Entries are kept alive by events, not by version keys: the owner (a
/// net::CapacityLedger) forwards every link-residual change through
/// on_link_debit() / on_link_credit() with the residual before and after.
/// A change matters to the cached entries of rate r only when it flips the
/// edge's usability at that rate (usable ⇔ residual ≥ r − eps); anything
/// short of a flip leaves the rate-r usable-edge set — and therefore every
/// rate-r result — untouched, so most commits evict nothing.
///
/// When a debit DOES flip an edge e unusable at rate r:
///   * Tree entries at rate r whose parent-edge footprint avoids e are
///     kept; the rest are evicted. This is exact, not heuristic: Dijkstra's
///     effective pops happen in (final-dist, node) order and the final
///     parent of each node is the first relaxation to reach its final
///     distance, so a recompute without e — an edge no surviving tree
///     parent uses — reproduces every dist/parent/parent_edge bitwise.
///   * Yen entries at rate r are evicted wholesale. Intersection-only
///     eviction would be wrong for k-paths: a spur path using e can mask
///     an equal-cost e-free alternative from the candidate pool, so a
///     result that never mentions e may still change when e disappears.
/// A credit that flips e usable evicts every rate-r entry of both kinds —
/// a newly usable edge can improve (or lexicographically re-rank) paths
/// anywhere. Instance-capacity changes never reach the cache; edge
/// usability depends only on link residuals.
///
/// Entries are shared_ptr-owned so callers can hold results across later
/// cache calls without being invalidated by eviction. The cache is NOT
/// thread-safe; it is owned per-CapacityLedger, and ledgers are not shared
/// across threads.

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace dagsfc::graph {

/// Observability counters for the solver path queries. The `*_calls`
/// fields count actual computations (cache misses included, hits
/// excluded); hits/misses/evictions count cache events only. `bfs_calls`
/// tallies the backtracking engine's ring searches and `steiner_calls` the
/// exact-class solvers' multicast pricing, so the inter-layer path work is
/// visible alongside the Dijkstra/Yen unicast work.
struct PathQueryCounters {
  std::size_t dijkstra_calls = 0;
  std::size_t yen_calls = 0;
  std::size_t bfs_calls = 0;
  std::size_t steiner_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t evictions = 0;

  PathQueryCounters& operator+=(const PathQueryCounters& o) {
    dijkstra_calls += o.dijkstra_calls;
    yen_calls += o.yen_calls;
    bfs_calls += o.bfs_calls;
    steiner_calls += o.steiner_calls;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    evictions += o.evictions;
    return *this;
  }

  /// hits / (hits + misses); 0 when the cache was never consulted.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t n = cache_hits + cache_misses;
    return n ? static_cast<double>(cache_hits) / static_cast<double>(n) : 0.0;
  }
};

/// Tallies of the event-driven invalidation path, for tests and telemetry.
/// `flips` counts (mutation, cached-rate) pairs where the edge's usability
/// actually flipped — the only events that evict anything.
struct InvalidationStats {
  std::size_t link_debits = 0;
  std::size_t link_credits = 0;
  std::size_t flips = 0;
  std::size_t trees_evicted = 0;
  std::size_t yens_evicted = 0;
};

class PathCache {
 public:
  /// \p max_entries bounds trees and k-path lists separately; when an
  /// insert would exceed the bound the store is cleared (entries are all
  /// current under event invalidation, so there is no stale tier to shed
  /// first).
  explicit PathCache(std::size_t max_entries = 1024)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// Full Dijkstra tree from \p source over the edges \p mask allows (null
  /// ⇒ all edges). Computes on miss, through \p ws. \p context must be the
  /// flow rate bit-cast to uint64 — the invalidation hooks decode it to
  /// evaluate usability flips. The caller guarantees the mask matches the
  /// current residual state and that every later residual change is
  /// forwarded via the on_link_* hooks — exactly what CapacityLedger does.
  [[nodiscard]] std::shared_ptr<const ShortestPathTree> tree(
      const Graph& g, NodeId source, std::uint64_t context,
      const EdgeMask* mask, SearchWorkspace& ws, PathQueryCounters& c);

  /// Yen's k cheapest loopless paths source → target over the edges \p mask
  /// allows; same contract as tree().
  [[nodiscard]] std::shared_ptr<const std::vector<Path>> k_paths(
      const Graph& g, NodeId source, NodeId target, std::size_t k,
      std::uint64_t context, const EdgeMask* mask, SearchWorkspace& ws,
      PathQueryCounters& c);

  /// Residual-change notifications (see the invalidation contract above).
  /// \p eps is the owner's feasibility tolerance: usable ⇔ residual ≥
  /// rate − eps, evaluated with the same expression the ledger uses so the
  /// cache and the admission checks never disagree on a flip.
  void on_link_debit(EdgeId e, double before, double after, double eps);
  void on_link_credit(EdgeId e, double before, double after, double eps);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] std::size_t num_k_paths() const noexcept {
    return yens_.size();
  }
  [[nodiscard]] const InvalidationStats& invalidation_stats() const noexcept {
    return inval_;
  }

  void clear() {
    trees_.clear();
    yens_.clear();
    tree_contexts_.clear();
    yen_contexts_.clear();
  }

 private:
  struct TreeKey {
    std::uint64_t context;
    NodeId source;
    auto operator<=>(const TreeKey&) const = default;
  };
  struct YenKey {
    std::uint64_t context;
    NodeId source;
    NodeId target;
    std::size_t k;
    auto operator<=>(const YenKey&) const = default;
  };
  /// A cached tree plus its parent-edge footprint (sorted, deduplicated)
  /// for the intersection test on debit flips.
  struct TreeEntry {
    std::shared_ptr<const ShortestPathTree> tree;
    std::vector<EdgeId> edges;
  };

  static bool usable(double residual, double rate, double eps) noexcept {
    return residual >= rate - eps;
  }
  static std::vector<EdgeId> footprint(const ShortestPathTree& t);

  /// Refcounted index of the distinct contexts present in one store,
  /// sorted by context bits. Mutation hooks consult it first: with no
  /// cached rate flipping (the overwhelmingly common case — e.g. every
  /// journal entry a replica replays during sync_from), the hook is
  /// O(distinct rates), touches no entries and allocates nothing. Only
  /// actual flips walk entries, and then only the flipped context's
  /// contiguous range of the (context-first ordered) map.
  using ContextIndex = std::vector<std::pair<std::uint64_t, std::size_t>>;
  static void index_add(ContextIndex& index, std::uint64_t context);
  static void index_remove(ContextIndex& index, std::uint64_t context,
                           std::size_t n);

  /// Appends the contexts of \p index whose usability of a residual change
  /// flipped in the given direction.
  static void flipped_contexts(const ContextIndex& index, double before,
                               double after, double eps, bool debit,
                               std::vector<std::uint64_t>& out);

  /// Evicts every tree / k-path entry cached under \p context.
  void evict_tree_context(std::uint64_t context);
  void evict_yen_context(std::uint64_t context);

  /// Clears \p store (and its context index) if one more insert would not
  /// fit under max_entries_.
  template <typename Store>
  void make_room(Store& store, ContextIndex& index, PathQueryCounters& c);

  std::size_t max_entries_;
  std::map<TreeKey, TreeEntry> trees_;
  std::map<YenKey, std::shared_ptr<const std::vector<Path>>> yens_;
  ContextIndex tree_contexts_;
  ContextIndex yen_contexts_;
  InvalidationStats inval_;
};

}  // namespace dagsfc::graph
