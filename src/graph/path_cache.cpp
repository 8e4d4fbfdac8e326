#include "graph/path_cache.hpp"

#include <algorithm>

#include "graph/yen.hpp"

namespace dagsfc::graph {

void PathCache::index_add(ContextIndex& index, std::uint64_t context) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), context,
      [](const auto& p, std::uint64_t c) { return p.first < c; });
  if (it != index.end() && it->first == context) {
    ++it->second;
  } else {
    index.insert(it, {context, 1});
  }
}

void PathCache::index_remove(ContextIndex& index, std::uint64_t context,
                             std::size_t n) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), context,
      [](const auto& p, std::uint64_t c) { return p.first < c; });
  if (it == index.end() || it->first != context) return;
  it->second = it->second > n ? it->second - n : 0;
  if (it->second == 0) index.erase(it);
}

void PathCache::flipped_contexts(const ContextIndex& index, double before,
                                 double after, double eps, bool debit,
                                 std::vector<std::uint64_t>& out) {
  for (const auto& [context, count] : index) {
    const double rate = std::bit_cast<double>(context);
    const bool flip =
        debit ? usable(before, rate, eps) && !usable(after, rate, eps)
              : !usable(before, rate, eps) && usable(after, rate, eps);
    if (flip) out.push_back(context);
  }
}

template <typename Store>
void PathCache::make_room(Store& store, ContextIndex& index,
                          PathQueryCounters& c) {
  if (store.size() < max_entries_) return;
  c.evictions += store.size();
  store.clear();
  index.clear();
}

std::vector<EdgeId> PathCache::footprint(const ShortestPathTree& t) {
  std::vector<EdgeId> edges;
  edges.reserve(t.parent_edge.size());
  for (NodeId v = 0; v < t.parent.size(); ++v) {
    if (t.parent[v] != kInvalidNode) edges.push_back(t.parent_edge[v]);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::shared_ptr<const ShortestPathTree> PathCache::tree(
    const Graph& g, NodeId source, std::uint64_t context,
    const EdgeMask* mask, SearchWorkspace& ws, PathQueryCounters& c) {
  const TreeKey key{context, source};
  if (auto it = trees_.find(key); it != trees_.end()) {
    ++c.cache_hits;
    return it->second.tree;
  }
  ++c.cache_misses;
  ++c.dijkstra_calls;
  auto entry =
      std::make_shared<const ShortestPathTree>(dijkstra(g, source, ws, mask));
  make_room(trees_, tree_contexts_, c);
  trees_.emplace(key, TreeEntry{entry, footprint(*entry)});
  index_add(tree_contexts_, context);
  return entry;
}

std::shared_ptr<const std::vector<Path>> PathCache::k_paths(
    const Graph& g, NodeId source, NodeId target, std::size_t k,
    std::uint64_t context, const EdgeMask* mask, SearchWorkspace& ws,
    PathQueryCounters& c) {
  const YenKey key{context, source, target, k};
  if (auto it = yens_.find(key); it != yens_.end()) {
    ++c.cache_hits;
    return it->second;
  }
  ++c.cache_misses;
  ++c.yen_calls;
  auto entry = std::make_shared<const std::vector<Path>>(
      k_shortest_paths(g, source, target, k, mask, ws));
  make_room(yens_, yen_contexts_, c);
  yens_.emplace(key, entry);
  index_add(yen_contexts_, context);
  return entry;
}

void PathCache::evict_tree_context(std::uint64_t context) {
  auto it = trees_.lower_bound(TreeKey{context, 0});
  std::size_t n = 0;
  while (it != trees_.end() && it->first.context == context) {
    it = trees_.erase(it);
    ++n;
  }
  inval_.trees_evicted += n;
  index_remove(tree_contexts_, context, n);
}

void PathCache::evict_yen_context(std::uint64_t context) {
  auto it = yens_.lower_bound(YenKey{context, 0, 0, 0});
  std::size_t n = 0;
  while (it != yens_.end() && it->first.context == context) {
    it = yens_.erase(it);
    ++n;
  }
  inval_.yens_evicted += n;
  index_remove(yen_contexts_, context, n);
}

void PathCache::on_link_debit(EdgeId e, double before, double after,
                              double eps) {
  ++inval_.link_debits;
  // The common case exits here: no cached rate flips, nothing is walked.
  std::vector<std::uint64_t> flipped;
  flipped_contexts(tree_contexts_, before, after, eps, /*debit=*/true,
                   flipped);
  flipped_contexts(yen_contexts_, before, after, eps, /*debit=*/true,
                   flipped);
  if (flipped.empty()) return;
  std::sort(flipped.begin(), flipped.end());
  flipped.erase(std::unique(flipped.begin(), flipped.end()), flipped.end());
  inval_.flips += flipped.size();

  for (const std::uint64_t context : flipped) {
    // Trees: only entries whose parent-edge footprint contains e can change
    // (exact — see the file comment); walk just this context's range.
    auto it = trees_.lower_bound(TreeKey{context, 0});
    while (it != trees_.end() && it->first.context == context) {
      if (std::binary_search(it->second.edges.begin(),
                             it->second.edges.end(), e)) {
        it = trees_.erase(it);
        ++inval_.trees_evicted;
        index_remove(tree_contexts_, context, 1);
      } else {
        ++it;
      }
    }
    // Yen lists at a flipped rate go wholesale (spur-masking).
    evict_yen_context(context);
  }
}

void PathCache::on_link_credit(EdgeId /*e*/, double before, double after,
                               double eps) {
  ++inval_.link_credits;
  std::vector<std::uint64_t> flipped;
  flipped_contexts(tree_contexts_, before, after, eps, /*debit=*/false,
                   flipped);
  flipped_contexts(yen_contexts_, before, after, eps, /*debit=*/false,
                   flipped);
  if (flipped.empty()) return;
  std::sort(flipped.begin(), flipped.end());
  flipped.erase(std::unique(flipped.begin(), flipped.end()), flipped.end());
  inval_.flips += flipped.size();
  for (const std::uint64_t context : flipped) {
    evict_tree_context(context);
    evict_yen_context(context);
  }
}

}  // namespace dagsfc::graph
