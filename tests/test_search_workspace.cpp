/// SearchWorkspace unit tests: the generation-stamp machinery (including
/// the 2^32 wrap-around), the heap's (key, node) pop order — the
/// property the bit-identity argument rests on — and the headline
/// allocation contract: a warm dijkstra_into() on a reused workspace
/// performs ZERO heap allocations, asserted through a counting global
/// operator new.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/generator.hpp"
#include "graph/workspace.hpp"
#include "oracles/reference.hpp"

namespace {
/// Counts every path into the global allocator. The counter is only read
/// as a delta around single-threaded regions, so other allocations (gtest
/// internals, etc.) between tests don't matter.
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dagsfc {
namespace {

graph::Graph random_weighted_graph(std::size_t n, double degree,
                                   std::uint64_t seed) {
  Rng rng(seed);
  graph::RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = degree;
  graph::Graph g = random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(1.0, 10.0));
  }
  return g;
}

// ---------------------------------------------------------------------------
// The acceptance criterion: zero heap allocations per warm Dijkstra.

TEST(WorkspaceAllocations, WarmDijkstraIsAllocationFree) {
  const graph::Graph g = random_weighted_graph(200, 6.0, 1);
  (void)g.csr();  // materialize the packed view outside the measured region
  graph::SearchWorkspace ws;
  graph::EdgeMaskBuffer mask;
  mask.assign(g.num_edges(), true);
  mask.clear(0);
  const graph::EdgeMask view = mask.view();

  // Warm-up: first call may size the workspace arrays and the heap buffer.
  graph::dijkstra_into(g, 0, ws);
  graph::dijkstra_into(g, 1, ws, &view);

  const std::size_t before = g_news.load();
  for (graph::NodeId s = 0; s < 64; ++s) {
    graph::dijkstra_into(g, s % static_cast<graph::NodeId>(g.num_nodes()), ws);
    graph::dijkstra_into(g, s % static_cast<graph::NodeId>(g.num_nodes()), ws,
                         &view);
    graph::dijkstra_into(g, 0, ws, nullptr, /*stop_at=*/s);
  }
  EXPECT_EQ(g_news.load(), before)
      << "a warm dijkstra_into call touched the heap";
}

TEST(WorkspaceAllocations, WorkspaceSurvivesGraphGrowthByReallocatingOnce) {
  graph::Graph g = random_weighted_graph(50, 4.0, 2);
  graph::SearchWorkspace ws;
  graph::dijkstra_into(g, 0, ws);
  // Grow the graph: the next search may allocate (arrays resize)…
  const graph::NodeId n = g.add_node();
  g.add_edge(n, 0, 1.0);
  graph::dijkstra_into(g, n, ws);
  EXPECT_EQ(ws.dist(0), 1.0);
  // …but only once: further warm calls are allocation-free again.
  const std::size_t before = g_news.load();
  for (int i = 0; i < 16; ++i) graph::dijkstra_into(g, 0, ws);
  EXPECT_EQ(g_news.load(), before);
}

// ---------------------------------------------------------------------------
// Generation stamps.

TEST(WorkspaceStamps, StaleSlotsFromEarlierSearchesAreInvisible) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  graph::SearchWorkspace ws;
  graph::dijkstra_into(g, 0, ws);
  EXPECT_EQ(ws.dist(3), 3.0);

  // Early-exit search from the far end: nodes past the stop are unstamped,
  // so the old generation's values must not bleed through.
  graph::dijkstra_into(g, 3, ws, nullptr, /*stop_at=*/2);
  EXPECT_EQ(ws.dist(3), 0.0);
  EXPECT_EQ(ws.dist(2), 1.0);
  EXPECT_EQ(ws.dist(0), graph::kInfCost);  // not reached this generation
  EXPECT_EQ(ws.parent(0), graph::kInvalidNode);
  EXPECT_FALSE(ws.reached(0));
}

TEST(WorkspaceStamps, GenerationWraparoundResetsCleanly) {
  const graph::Graph g = random_weighted_graph(30, 4.0, 3);
  graph::SearchWorkspace ws;
  // Stamp every node at a pre-wrap generation…
  graph::dijkstra_into(g, 0, ws);
  const auto want = graph::reference::dijkstra(g, 5);
  // …then force the counter to the wrap point. prepare() must zero the
  // stamp array instead of letting old stamps alias generation 1, 2, …
  ws.debug_set_generation(std::numeric_limits<std::uint32_t>::max());
  graph::dijkstra_into(g, 5, ws);
  EXPECT_EQ(ws.generation(), 1u);
  const auto got = graph::export_tree(ws, g.num_nodes());
  EXPECT_EQ(want.dist, got.dist);
  EXPECT_EQ(want.parent, got.parent);
  // And the generations right after the wrap stay self-consistent.
  for (graph::NodeId s = 0; s < 5; ++s) {
    graph::dijkstra_into(g, s, ws);
    const auto ref = graph::reference::dijkstra(g, s);
    EXPECT_EQ(ref.dist, graph::export_tree(ws, g.num_nodes()).dist);
  }
}

TEST(WorkspaceStamps, BfsAndDijkstraStampsAreIndependent) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  graph::SearchWorkspace ws;
  graph::dijkstra_into(g, 0, ws);
  ws.bfs_prepare(g);
  ws.bfs_mark(2, graph::kInvalidNode);
  // The BFS marks don't disturb the Dijkstra view and vice versa.
  EXPECT_EQ(ws.dist(2), 2.0);
  EXPECT_TRUE(ws.bfs_seen(2));
  EXPECT_FALSE(ws.bfs_seen(0));
  graph::dijkstra_into(g, 2, ws);
  EXPECT_TRUE(ws.bfs_seen(2));  // still marked; separate generation space
  EXPECT_EQ(ws.dist(0), 2.0);
}

// ---------------------------------------------------------------------------
// The workspace heap (bottom-up binary sift over bit-cast integer keys):
// pops strictly in (key, node) order — the exact order
// std::priority_queue<pair<double, NodeId>, greater<>> pops, which is what
// makes flat search bit-identical to the seed. The layout and the key
// encoding are free to change; this pop order is the contract.

TEST(WorkspaceHeap, PopsInKeyThenNodeOrder) {
  graph::Graph g(1);
  graph::SearchWorkspace ws;
  ws.prepare(g);

  Rng rng(99);
  std::vector<graph::SearchWorkspace::HeapItem> items;
  for (int i = 0; i < 500; ++i) {
    // Coarse keys so ties on key (node tie-break) are common.
    items.push_back({static_cast<double>(rng.index(20)),
                     static_cast<graph::NodeId>(rng.index(50))});
  }
  ws.heap_clear();
  for (const auto& it : items) ws.heap_push(it.key, it.node);
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    return a.key != b.key ? a.key < b.key : a.node < b.node;
  });
  for (const auto& want : items) {
    ASSERT_FALSE(ws.heap_empty());
    const auto got = ws.heap_pop();
    EXPECT_EQ(want.key, got.key);
    EXPECT_EQ(want.node, got.node);
  }
  EXPECT_TRUE(ws.heap_empty());
}

TEST(WorkspaceHeap, InterleavedPushPopMatchesPriorityQueue) {
  graph::Graph g(1);
  graph::SearchWorkspace ws;
  ws.prepare(g);
  std::priority_queue<std::pair<double, graph::NodeId>,
                      std::vector<std::pair<double, graph::NodeId>>,
                      std::greater<>>
      pq;
  Rng rng(7);
  ws.heap_clear();
  for (int round = 0; round < 2000; ++round) {
    if (pq.empty() || rng.index(3) != 0) {
      const auto key = static_cast<double>(rng.index(10));
      const auto node = static_cast<graph::NodeId>(rng.index(30));
      ws.heap_push(key, node);
      pq.emplace(key, node);
    } else {
      const auto [want_key, want_node] = pq.top();
      pq.pop();
      const auto got = ws.heap_pop();
      ASSERT_EQ(want_key, got.key);
      ASSERT_EQ(want_node, got.node);
    }
  }
  while (!pq.empty()) {
    const auto [want_key, want_node] = pq.top();
    pq.pop();
    const auto got = ws.heap_pop();
    ASSERT_EQ(want_key, got.key);
    ASSERT_EQ(want_node, got.node);
  }
  EXPECT_TRUE(ws.heap_empty());
}

}  // namespace
}  // namespace dagsfc
