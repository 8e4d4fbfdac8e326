#include "shard/driver.hpp"

#include <deque>
#include <queue>
#include <thread>
#include <utility>

namespace dagsfc::shard {

void ShardWorkloadConfig::validate() const {
  regional.validate();
  DAGSFC_CHECK(arrival_rate > 0.0);
  DAGSFC_CHECK(mean_holding_time > 0.0);
  DAGSFC_CHECK(num_arrivals >= 1);
}

ShardWorkload make_shard_workload(const ShardWorkloadConfig& cfg,
                                  std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  ShardWorkload w{sim::make_regional_scenario(rng, cfg.regional), {}};
  const std::size_t n = w.scenario.network.num_nodes();
  w.arrivals.reserve(cfg.num_arrivals);
  double now = 0.0;
  for (std::size_t i = 0; i < cfg.num_arrivals; ++i) {
    now += rng.exponential(1.0 / cfg.arrival_rate);
    serve::TimedRequest t;
    t.at = now;
    sfc::DagSfc dag =
        sim::make_sfc(rng, w.scenario.network.catalog(), cfg.regional.base);
    auto src = static_cast<graph::NodeId>(rng.index(n));
    auto dst = static_cast<graph::NodeId>(rng.index(n));
    if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % n);
    t.holding = rng.exponential(cfg.mean_holding_time);
    t.request.id = static_cast<serve::RequestId>(i + 1);
    t.request.sfc = std::move(dag);
    t.request.flow = core::Flow{src, dst, cfg.regional.base.flow_rate,
                                cfg.regional.base.flow_size};
    w.arrivals.push_back(std::move(t));
  }
  return w;
}

ShardDriverResult run_sharded_closed_loop(
    const ShardWorkload& workload, const ShardedSubstrate& substrate,
    const ShardedEmbeddingService::Options& options,
    const ShardServiceTuning& tuning) {
  DAGSFC_CHECK_MSG(&substrate.network() == &workload.scenario.network,
                   "substrate must shard the workload's network");
  ShardedEmbeddingService service(substrate, options);
  if (tuning.on_start) tuning.on_start(service);

  std::priority_queue<serve::Departure, std::vector<serve::Departure>,
                      std::greater<>>
      departures;
  ShardDriverResult result;

  for (const serve::TimedRequest& t : workload.arrivals) {
    while (!departures.empty() && departures.top().at <= t.at) {
      service.release(departures.top().id);
      departures.pop();
    }
    const serve::Response resp = service.submit(t.request).get();
    if (resp.accepted()) {
      departures.push(serve::Departure{t.at + t.holding, t.request.id});
    }
    result.simulated_time = t.at;
  }
  while (!departures.empty()) {
    service.release(departures.top().id);
    departures.pop();
  }

  result.conserved = service.ledger().residuals_nominal();
  result.metrics = service.metrics();
  if (tuning.on_finish) tuning.on_finish(service);
  return result;
}

ShardOpenLoopResult run_sharded_open_loop(const ShardWorkload& workload,
                                          const ShardedSubstrate& substrate,
                                          const ShardOpenLoopConfig& cfg) {
  DAGSFC_CHECK(cfg.producers >= 1);
  DAGSFC_CHECK(cfg.window >= 1);
  DAGSFC_CHECK_MSG(&substrate.network() == &workload.scenario.network,
                   "substrate must shard the workload's network");
  ShardedEmbeddingService service(substrate, cfg.service);
  if (cfg.tuning.on_start) cfg.tuning.on_start(service);

  const std::size_t per_producer_load =
      std::max<std::size_t>(1, cfg.target_load / cfg.producers);

  const auto t0 = serve::Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    producers.emplace_back([&, p] {
      std::deque<std::pair<serve::RequestId, std::future<serve::Response>>>
          pending;
      std::deque<serve::RequestId> in_service;
      auto settle_one = [&] {
        auto [id, fut] = std::move(pending.front());
        pending.pop_front();
        const serve::Response r = fut.get();
        if (r.accepted()) in_service.push_back(id);
        while (in_service.size() > per_producer_load) {
          service.release(in_service.front());
          in_service.pop_front();
        }
      };
      for (std::size_t i = p; i < workload.arrivals.size();
           i += cfg.producers) {
        serve::Request req = workload.arrivals[i].request;
        if (cfg.deadline.count() > 0) {
          req.deadline = serve::Clock::now() + cfg.deadline;
        }
        const serve::RequestId id = req.id;
        pending.emplace_back(id, service.submit(std::move(req)));
        if (pending.size() > cfg.window) settle_one();
      }
      while (!pending.empty()) settle_one();
      for (serve::RequestId id : in_service) service.release(id);
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();

  ShardOpenLoopResult result;
  result.wall_seconds =
      std::chrono::duration<double>(serve::Clock::now() - t0).count();
  result.metrics = service.metrics();
  result.conserved = service.ledger().residuals_nominal();
  if (cfg.tuning.on_finish) cfg.tuning.on_finish(service);
  return result;
}

}  // namespace dagsfc::shard
