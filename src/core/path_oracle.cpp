#include "core/path_oracle.hpp"

namespace dagsfc::core {

const graph::EdgeMask* PathOracle::usable_mask() {
  const std::uint64_t epoch = ledger_->epoch();
  if (!mask_ready_ || mask_epoch_ != epoch) {
    // One link_can_carry sweep per epoch; every probe afterwards is a bit
    // test. The ledger bumps the epoch on any admission/release that can
    // change a residual capacity, so a stale mask is impossible; PathCache
    // entries themselves stay valid across epochs via the ledger's
    // footprint-scoped invalidation hooks.
    usable_mask_.assign(g_->num_edges(), true);
    mask_full_ = true;
    for (graph::EdgeId e = 0; e < g_->num_edges(); ++e) {
      if (!ledger_->link_can_carry(e, rate_)) {
        usable_mask_.clear(e);
        mask_full_ = false;
      }
    }
    mask_epoch_ = epoch;
    mask_ready_ = true;
  }
  usable_view_ = usable_mask_.view();
  return &usable_view_;
}

const graph::EdgeMask* PathOracle::effective_mask() {
  const graph::EdgeMask* mask = usable_mask();
  return mask_full_ ? nullptr : mask;
}

std::shared_ptr<const graph::ShortestPathTree> PathOracle::tree(
    NodeId source) {
  const graph::EdgeMask* mask = usable_mask();
  if (auto* cache = ledger_->path_cache()) {
    return cache->tree(*g_, source, context(), mask, *ws_, counters_);
  }
  ++counters_.dijkstra_calls;
  return std::make_shared<const graph::ShortestPathTree>(
      graph::dijkstra(*g_, source, *ws_, mask));
}

std::optional<graph::Path> PathOracle::min_cost_path(NodeId a, NodeId b) {
  if (ledger_->path_cache()) return tree(a)->path_to(b);
  ++counters_.dijkstra_calls;
  return graph::min_cost_path(*g_, a, b, *ws_, effective_mask());
}

std::vector<std::optional<graph::Path>> PathOracle::min_cost_paths(
    NodeId a, std::span<const NodeId> targets) {
  std::vector<std::optional<graph::Path>> out;
  out.reserve(targets.size());
  if (ledger_->path_cache()) {
    const auto t = tree(a);
    for (const NodeId b : targets) out.push_back(t->path_to(b));
    return out;
  }
  // One multi-target pass; counts as one computation. Each extraction is
  // bitwise the early-exit answer (see dijkstra_into_targets).
  ++counters_.dijkstra_calls;
  graph::dijkstra_into_targets(*g_, a, targets, *ws_, effective_mask());
  for (const NodeId b : targets) {
    out.push_back(graph::extract_path(*ws_, b));
  }
  return out;
}

std::vector<graph::Path> PathOracle::k_shortest(NodeId a, NodeId b,
                                                std::size_t k) {
  const graph::EdgeMask* mask = usable_mask();
  if (auto* cache = ledger_->path_cache()) {
    return *cache->k_paths(*g_, a, b, k, context(), mask, *ws_, counters_);
  }
  ++counters_.yen_calls;
  return graph::k_shortest_paths(*g_, a, b, k, mask, *ws_);
}

std::vector<graph::Path> PathOracle::k_shortest_filtered(
    NodeId a, NodeId b, std::size_t k, const graph::EdgeFilter& filter) {
  ++counters_.yen_calls;
  // Materialize once (one filter call per edge) so the whole Yen run —
  // every spur Dijkstra included — probes bits instead of the closure.
  filtered_mask_.fill_from(*g_, filter);
  const graph::EdgeMask mask = filtered_mask_.view();
  return graph::k_shortest_paths(*g_, a, b, k, &mask, *ws_);
}

std::optional<graph::SteinerTree> PathOracle::steiner(
    const std::vector<NodeId>& terminals) {
  ++counters_.steiner_calls;
  return graph::steiner_tree(*g_, terminals, usable_mask(), *ws_);
}

}  // namespace dagsfc::core
