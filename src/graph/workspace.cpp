#include "graph/workspace.hpp"

namespace dagsfc::graph {

SearchWorkspace& thread_local_workspace() {
  static thread_local SearchWorkspace ws;
  return ws;
}

void SearchWorkspace::prepare(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (slots_.size() < n) {
    // Growth value-initializes new slots (stamp 0), and the bump below
    // invalidates every pre-existing one.
    slots_.resize(n);
    parents_.resize(n);
  }
  ++generation_;
  if (generation_ == 0) {
    // uint32 wrap: stale slots could alias the new generation, so pay the
    // one O(V) clear per 2^32 searches.
    for (Slot& s : slots_) s.stamp = 0;
    generation_ = 1;
  }
  // Worst case pushes: one per successful relaxation, ≤ one per directed
  // arc (2|E|), plus the source. Reserving here is what makes warm calls
  // allocation-free.
  if (heap_.capacity() < 2 * g.num_edges() + 2) {
    heap_.reserve(2 * g.num_edges() + 2);
  }
  heap_.clear();
  source_ = kInvalidNode;
}

void SearchWorkspace::prepare_states(std::size_t num_states,
                                     std::size_t heap_reserve) {
  if (slots_.size() < num_states) {
    slots_.resize(num_states);
    parents_.resize(num_states);
  }
  ++generation_;
  if (generation_ == 0) {
    for (Slot& s : slots_) s.stamp = 0;
    generation_ = 1;
  }
  if (heap_.capacity() < heap_reserve) heap_.reserve(heap_reserve);
  heap_.clear();
  source_ = kInvalidNode;
}

void SearchWorkspace::bfs_prepare(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (bfs_stamp_.size() < n) {
    bfs_parent_.resize(n);
    bfs_stamp_.resize(n, 0);
  }
  ++bfs_generation_;
  if (bfs_generation_ == 0) {
    std::fill(bfs_stamp_.begin(), bfs_stamp_.end(), 0u);
    bfs_generation_ = 1;
  }
  bfs_visited_.clear();
  bfs_ring_.clear();
  bfs_scratch_.clear();
}

}  // namespace dagsfc::graph
