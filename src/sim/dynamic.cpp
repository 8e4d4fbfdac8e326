#include "sim/dynamic.hpp"

#include <queue>

namespace dagsfc::sim {

void DynamicConfig::validate() const {
  base.validate();
  DAGSFC_CHECK(arrival_rate > 0.0);
  DAGSFC_CHECK(mean_holding_time > 0.0);
  DAGSFC_CHECK(num_arrivals >= 1);
}

namespace {

/// A flow in service: departure time plus everything needed to release it.
struct InService {
  double departs;
  core::ResourceUsage usage;
  double rate;

  bool operator>(const InService& other) const {
    return departs > other.departs;
  }
};

}  // namespace

DynamicResult run_dynamic(const DynamicConfig& cfg,
                          const core::Embedder& embedder,
                          std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  const Scenario scenario = make_scenario(rng, cfg.base);
  net::CapacityLedger ledger(scenario.network);

  std::priority_queue<InService, std::vector<InService>, std::greater<>>
      in_service;
  DynamicResult result;
  double now = 0.0;

  auto release_up_to = [&](double t) {
    while (!in_service.empty() && in_service.top().departs <= t) {
      const InService& f = in_service.top();
      ledger.unapply(f.usage.link_uses, f.usage.instance_uses, f.rate);
      in_service.pop();
    }
  };

  graph::SearchWorkspace ws;  // warm buffers across arrivals
  for (std::size_t arrival = 0; arrival < cfg.num_arrivals; ++arrival) {
    now += rng.exponential(1.0 / cfg.arrival_rate);
    release_up_to(now);
    result.concurrency.add(static_cast<double>(in_service.size()));

    const sfc::DagSfc dag = make_sfc(rng, scenario.network.catalog(),
                                     cfg.base);
    auto src = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    auto dst = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    if (dst == src) {
      dst = static_cast<graph::NodeId>(
          (dst + 1) % cfg.base.network_size);
    }
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow =
        core::Flow{src, dst, cfg.base.flow_rate, cfg.base.flow_size};
    const core::ModelIndex index(problem);

    // Draw the holding time before solving so deterministic embedders
    // (MINV/BBE/MBBE) see bit-identical arrival streams — paired
    // comparisons. RANV necessarily perturbs the stream by drawing inside
    // solve().
    const double holding = rng.exponential(cfg.mean_holding_time);

    const core::SolveResult r = embedder.solve(index, ledger, rng, nullptr,
                                               &ws);
    if (!r.ok()) {
      ++result.rejected;
      continue;
    }
    const core::Evaluator evaluator(index);
    core::ResourceUsage usage = evaluator.usage(*r.solution);
    evaluator.commit(usage, ledger);
    in_service.push(
        InService{now + holding, std::move(usage), problem.flow.rate});
    ++result.accepted;
    result.cost.add(r.cost);
    result.cost_hist.add(r.cost);
  }
  result.simulated_time = now;
  return result;
}

}  // namespace dagsfc::sim
