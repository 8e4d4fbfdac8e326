#pragma once
/// \file workspace.hpp
/// Reusable, generation-stamped working state for the search kernels.
///
/// The seed implementations re-allocated their entire working set per call:
/// three O(V) `assign`s plus a priority_queue per Dijkstra, fresh
/// seen/parent vectors per ring search, fresh closures and std::sets per
/// Yen spur. PR 1's counters show thousands of such calls per sweep, so the
/// allocator and the O(V) clears dominate small-instance solves.
///
/// A SearchWorkspace owns all of that state once and makes "clearing" O(1)
/// with generation stamps: every per-node slot carries the generation that
/// last wrote it, and a slot is live only when its stamp equals the current
/// generation. prepare() bumps the generation instead of touching V
/// entries; on the (once per 2^32 searches) wrap-around the stamp array is
/// zeroed for real. Dijkstra and BFS keep separate stamp sets so a ring
/// search and the path queries it interleaves with never clobber each
/// other; the Yen mask buffers are likewise dedicated so spur searches can
/// run over them while a base mask stays pinned.
///
/// Ownership: one workspace per solver instance or per worker thread —
/// PathOracle embeds a fallback one, the serve layer keeps one per worker,
/// the trial runner one per pool thread. Workspaces are not thread-safe and
/// never shared concurrently. Reusing a workspace never changes results:
/// every kernel fully re-initializes the slots it reads (that is the whole
/// point of the stamps), which is what keeps flat search bit-identical to
/// the seed implementation.
///
/// A warm call on a prepared workspace performs zero heap allocations
/// (asserted by tests/test_search_workspace.cpp via a counting operator
/// new): arrays only grow when the graph grows, and the heap buffer is
/// reserved for the worst-case 2|E|+1 pushes up front.

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/edge_mask.hpp"
#include "graph/graph.hpp"

namespace dagsfc::graph {

/// The flat kernels are the only search tier; the seed implementations
/// they replaced live in tests/oracles/ for the differential tests. This
/// shim survives only because perfbench/src/main.cpp still calls it; it goes
/// at the next change to the benchmark.
inline void set_flat_search_default(bool enabled) {
  DAGSFC_CHECK_MSG(enabled, "the seed search tier is test-only");
}

class SearchWorkspace;

/// Per-thread fallback workspace backing the legacy EdgeFilter entry points
/// (callers that don't carry their own — ILP bound generation, one-off
/// tests). Hot-path callers should own a workspace instead so reuse is
/// explicit and measurable.
[[nodiscard]] SearchWorkspace& thread_local_workspace();

class SearchWorkspace {
 public:
  /// Min-heap entry ordered by (key, node) — the same lexicographic order a
  /// std::priority_queue over pair<double, NodeId> pops in, which is what
  /// keeps tie-breaks (and therefore parents and paths) bit-identical to
  /// the seed binary heap.
  struct HeapItem {
    double key;
    NodeId node;
  };

  SearchWorkspace() = default;
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;
  SearchWorkspace(SearchWorkspace&&) = default;
  SearchWorkspace& operator=(SearchWorkspace&&) = default;

  // --- Dijkstra state ---------------------------------------------------

  /// Starts a new shortest-path search over \p g: bumps the generation (no
  /// per-node work), grows arrays only if the graph grew, clears the heap.
  void prepare(const Graph& g);

  /// Starts a new search over an abstract state space of \p num_states
  /// dense ids instead of the graph's nodes — e.g. the implicit layered
  /// product graph, where state = level·|V| + node. The slot/parent/heap
  /// machinery is shared with prepare(): the same stamps, the same strict
  /// (key, id) pop order, the same O(1) warm reuse. \p heap_reserve bounds
  /// the expected pushes (pass the per-level arc count times the level
  /// count); the heap still grows if a search exceeds it.
  void prepare_states(std::size_t num_states, std::size_t heap_reserve);

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] bool reached(NodeId v) const {
    return v < slots_.size() && slots_[v].stamp == generation_;
  }
  [[nodiscard]] double dist(NodeId v) const {
    return reached(v) ? slots_[v].dist : kInfCost;
  }
  [[nodiscard]] NodeId parent(NodeId v) const {
    return reached(v) ? parents_[v].parent : kInvalidNode;
  }
  [[nodiscard]] EdgeId parent_edge(NodeId v) const {
    return reached(v) ? parents_[v].edge : kInvalidEdge;
  }

  /// Kernel API: seeds the search at \p s (dist 0, no parent) and pushes it.
  void start(NodeId s) {
    source_ = s;
    relax(s, 0.0, kInvalidNode, kInvalidEdge);
    heap_clear();
    heap_push(0.0, s);
  }

  /// Kernel API: unconditional write + stamp of one node slot.
  void relax(NodeId v, double d, NodeId par, EdgeId via) {
    slots_[v] = Slot{d, generation_, 0};
    parents_[v] = ParentLink{par, via};
  }

  /// Kernel API: dist of a node known to be stamped (heap entries are).
  [[nodiscard]] double dist_unchecked(NodeId v) const {
    return slots_[v].dist;
  }

  /// Kernel API: dist if stamped this generation, else +inf. One fused
  /// 16-byte slot load and no bounds check — the relaxation loop's only
  /// random read (callers guarantee v < num_nodes via prepare()).
  [[nodiscard]] double dist_if_live(NodeId v) const {
    const Slot& s = slots_[v];
    return s.stamp == generation_ ? s.dist : kInfCost;
  }

  // --- min-heap (kernel API) ---------------------------------------------
  // Bottom-up binary heap over (key, node), with the key stored as its
  // IEEE-754 bit pattern: all keys the kernels produce are non-negative,
  // non-NaN doubles (sums of edge weights >= 0, or +inf), and for those the
  // unsigned integer order of the bit pattern equals numeric order — so
  // every sift comparison is one integer compare instead of two double
  // compares plus a tie-break branch. Pops are strictly in (key, node)
  // order (see HeapItem), so none of this can change a pop sequence.
  //
  // pop() walks the hole down to a leaf taking the smaller child (one
  // comparison per level), then bubbles the detached tail entry back up —
  // on Dijkstra's pop-heavy workload the tail is usually among the largest
  // keys, so it sinks (almost) all the way and the classic sift-down's
  // second comparison per level is pure overhead.

  void heap_clear() noexcept { heap_.clear(); }
  [[nodiscard]] bool heap_empty() const noexcept { return heap_.empty(); }

  void heap_push(double key, NodeId node) {
    const std::uint64_t kb = encode_key(key);
    std::size_t i = heap_.size();
    heap_.push_back(HeapEntry{kb, node, 0});
    while (i > 0) {
      const std::size_t up = (i - 1) >> 1;
      const HeapEntry p = heap_[up];
      if (p.key_bits < kb || (p.key_bits == kb && p.node <= node)) break;
      heap_[i] = p;
      i = up;
    }
    heap_[i] = HeapEntry{kb, node, 0};
  }

  HeapItem heap_pop() {
    const HeapEntry top = heap_.front();
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size > 0) {
      HeapEntry* const h = heap_.data();
      std::size_t i = 0;
      for (;;) {
        std::size_t c = 2 * i + 1;
        if (c >= size) break;
        c += static_cast<std::size_t>(c + 1 < size &&
                                      entry_less(h[c + 1], h[c]));
        h[i] = h[c];
        i = c;
      }
      while (i > 0) {
        const std::size_t up = (i - 1) >> 1;
        if (!entry_less(tail, h[up])) break;
        h[i] = h[up];
        i = up;
      }
      h[i] = tail;
    }
    return HeapItem{std::bit_cast<double>(top.key_bits), top.node};
  }

  // --- BFS state (ring searches) ----------------------------------------

  /// Starts a new BFS over \p g; independent stamps from the Dijkstra side.
  void bfs_prepare(const Graph& g);

  [[nodiscard]] bool bfs_seen(NodeId v) const {
    return v < bfs_stamp_.size() && bfs_stamp_[v] == bfs_generation_;
  }
  [[nodiscard]] NodeId bfs_parent(NodeId v) const {
    return bfs_seen(v) ? bfs_parent_[v] : kInvalidNode;
  }
  void bfs_mark(NodeId v, NodeId par) {
    bfs_parent_[v] = par;
    bfs_stamp_[v] = bfs_generation_;
  }

  std::vector<NodeId>& bfs_visited() noexcept { return bfs_visited_; }
  std::vector<NodeId>& bfs_ring() noexcept { return bfs_ring_; }
  std::vector<NodeId>& bfs_scratch() noexcept { return bfs_scratch_; }

  // --- Mask buffers (kernel API) ----------------------------------------
  // Dedicated buffers so their lifetimes cannot collide: `base` holds a
  // materialized caller filter for the duration of a Yen run, `spur` is
  // rewritten per spur candidate, `scratch` backs one-shot legacy calls.

  EdgeMaskBuffer& base_mask() noexcept { return base_mask_; }
  EdgeMaskBuffer& spur_mask() noexcept { return spur_mask_; }
  EdgeMaskBuffer& scratch_mask() noexcept { return scratch_mask_; }

  // --- scratch vectors (kernel API) -------------------------------------
  // Typed spare buffers for kernels that need more than the per-node slots:
  // the multi-target pass keeps its pending list in scratch_nodes(), the
  // Steiner DP lays its cost table in scratch_f64() and its packed
  // backtrack table in scratch_u64(). Each kernel owns them only for the
  // duration of one call (same non-reentrancy contract as the heap).

  std::vector<NodeId>& scratch_nodes() noexcept { return scratch_nodes_; }
  std::vector<double>& scratch_f64() noexcept { return scratch_f64_; }
  std::vector<std::uint64_t>& scratch_u64() noexcept { return scratch_u64_; }

  // --- test hooks --------------------------------------------------------

  [[nodiscard]] std::uint32_t generation() const noexcept {
    return generation_;
  }
  /// Forces the generation counter, so tests can exercise the wrap-around
  /// path without running 2^32 searches.
  void debug_set_generation(std::uint32_t gen) noexcept { generation_ = gen; }

 private:
  /// Per-node search state, fused into one 16-byte record so the relax
  /// loop's stamp check and dist compare are a single cache access.
  struct Slot {
    double dist;
    std::uint32_t stamp;
    std::uint32_t pad;
  };
  /// Parent pointer + the edge it came through, fused for one 8-byte store
  /// per relaxation.
  struct ParentLink {
    NodeId parent;
    EdgeId edge;
  };
  /// Internal heap entry: the key's bit pattern plus the node.
  struct HeapEntry {
    std::uint64_t key_bits;
    NodeId node;
    std::uint32_t pad;
  };

  /// Non-negative non-NaN doubles order identically to their bit patterns
  /// compared as unsigned integers (sign bit 0 ⇒ bigger exponent/mantissa
  /// ⇒ bigger value, and +inf sorts after every finite). Negative keys
  /// cannot arise: edge weights are checked >= 0 at add_edge/set_weight.
  static std::uint64_t encode_key(double key) {
    DAGSFC_ASSERT(key >= 0.0);
    return std::bit_cast<std::uint64_t>(key);
  }
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return a.key_bits != b.key_bits ? a.key_bits < b.key_bits
                                    : a.node < b.node;
  }

  // Dijkstra state, valid where a slot's stamp matches generation_.
  std::vector<Slot> slots_;
  std::vector<ParentLink> parents_;
  std::uint32_t generation_ = 0;
  NodeId source_ = kInvalidNode;

  std::vector<HeapEntry> heap_;

  // BFS arrays, independently stamped.
  std::vector<NodeId> bfs_parent_;
  std::vector<std::uint32_t> bfs_stamp_;
  std::uint32_t bfs_generation_ = 0;
  std::vector<NodeId> bfs_visited_;
  std::vector<NodeId> bfs_ring_;
  std::vector<NodeId> bfs_scratch_;

  EdgeMaskBuffer base_mask_;
  EdgeMaskBuffer spur_mask_;
  EdgeMaskBuffer scratch_mask_;

  std::vector<NodeId> scratch_nodes_;
  std::vector<double> scratch_f64_;
  std::vector<std::uint64_t> scratch_u64_;
};

}  // namespace dagsfc::graph
