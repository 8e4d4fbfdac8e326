/// dagsfc_serve — the online embedding service as a CLI demo.
///
/// Generates a seeded workload (Poisson arrivals of random DAG-SFCs with
/// exponential holding times) and serves it through serve::EmbeddingService
/// in one of two modes:
///
///   * open-loop (default): --producers submitting threads keep up to a
///     window of requests in flight each while releasing their oldest
///     accepted flows — workers race their optimistic commits, so the
///     validated-commit / conflict / retry counters come alive;
///   * --closed-loop: the deterministic driver (one request in flight,
///     virtual departures) whose metrics are bit-identical for any
///     --workers value and either --pipeline.
///
/// --pipeline selects the commit protocol: mvcc (default; per-worker
/// replica sync, footprint-stamp validation, group commit) or mutex
/// (the legacy full-copy baseline) — see DESIGN.md §10.
///
/// Prints a human-readable summary plus a machine-readable `JSON:` line
/// like the bench binaries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "serve/driver.hpp"
#include "serve/http.hpp"
#include "serve/trace.hpp"
#include "shard/driver.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

/// SIGUSR1 → dump the live flight recorder. A signal handler may only flip
/// a flag, so a tiny poller thread does the actual I/O; the service hooks
/// publish the recorder through g_flight for the duration of the run.
volatile std::sig_atomic_t g_dump_requested = 0;
void on_sigusr1(int) { g_dump_requested = 1; }
std::atomic<const dagsfc::serve::FlightRecorder*> g_flight{nullptr};

/// Owns the poller thread and joins it on every exit path.
struct SignalPoller {
  std::atomic<bool> stop{false};
  std::thread thread;

  void start() {
    std::signal(SIGUSR1, on_sigusr1);
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (g_dump_requested == 0) continue;
        g_dump_requested = 0;
        if (const auto* f = g_flight.load(std::memory_order_acquire)) {
          std::cerr << "SIGUSR1 flight dump: " << f->to_json() << "\n";
        }
      }
    });
  }
  ~SignalPoller() {
    stop.store(true, std::memory_order_relaxed);
    if (thread.joinable()) thread.join();
  }
};

/// --flight-dump: the retained traces as Chrome trace-event JSON, written
/// at exit while the service (and its recorder) is still alive.
void dump_flight(const std::string& path,
                 const dagsfc::serve::FlightRecorder* flight) {
  if (path.empty() || flight == nullptr) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "flight-dump: cannot open " << path << "\n";
    return;
  }
  out << flight->to_chrome();
  std::cerr << "flight-dump: " << flight->promoted()
            << " promoted trace(s); chrome trace written to " << path
            << " (open in Perfetto or chrome://tracing)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dagsfc;

  Flags flags;
  flags.define_workers(4)
      .define_int("arrivals", 400, "requests in the generated workload")
      .define_int("producers", 2, "submitting threads (open-loop mode)")
      .define_double("load", 24.0,
                     "target concurrent flows in service (open-loop) / "
                     "offered load in Erlangs (closed-loop)")
      .define_int("network-size", 60, "nodes in the generated network")
      .define_int("sfc-size", 4, "VNFs per request SFC")
      .define_double("vnf-capacity", 8.0, "per-instance capacity")
      .define_double("link-capacity", 10.0, "per-link capacity")
      .define_int("queue-cap", 256, "bounded request-queue capacity")
      .define_int("retries", 3, "re-solves after a commit conflict")
      .define_duration("backoff", "50us", "base retry backoff (doubles)")
      .define_duration("deadline", "0s",
                       "per-request deadline after submit; 0s disables")
      .define_bool("closed-loop", false,
                   "run the deterministic closed-loop driver instead")
      .define("algorithm", "mbbe",
              "worker solver: ranv|minv|bbe|mbbe|layered, or hier "
              "(sharded service, one worker pool per shard)")
      .define_int("shards", 4, "regions of the sharded substrate (hier)")
      .define("partition", "labels",
              "node->region scheme for hier: labels|stripe|bfs (labels = "
              "the regional generator's own)")
      .define("hier-inner", "mbbe", "hier stage-two solver: bbe|mbbe|layered")
      .define_int("hier-paths", 4,
                  "hier stage-one candidates (k of k-shortest region paths)")
      .define("pipeline", "mvcc",
              "commit pipeline: mvcc (replica sync + stamp validation + "
              "group commit) or mutex (legacy full-copy baseline)")
      .define_int("metrics-port", 0,
                  "serve GET /metrics (Prometheus) and /metrics.json on "
                  "127.0.0.1:<port> for the duration of the run; 0 disables")
      .define_duration("slow-solve-threshold", "0s",
                       "warn once (and count dagsfc_serve_slow_solves_total) "
                       "for any request processed longer than this; 0s "
                       "disables the watchdog")
      .define("flight-dump", "",
              "enable request-lifecycle tracing and write the flight "
              "recorder's retained traces as Chrome trace-event JSON to "
              "this path at exit (open in Perfetto / chrome://tracing)")
      .define_bool("trace", false,
                   "request-lifecycle tracing without a dump file (the "
                   "flight recorder serves on /debug/traces.json and "
                   "SIGUSR1 dumps it to stderr); implied by --flight-dump")
      .define_duration("trace-latency-over", "0s",
                       "also promote traces whose submit->finish latency "
                       "exceeds this; 0s disables the latency trigger")
      .define_bool("trace-refusals", false,
                   "also promote refused requests (infeasible, queue-full, "
                   "deadline-shed)")
      .define_log_level()
      .define_int("seed", 0x5eed5e, "workload + solver RNG seed");
  try {
    flags.parse(argc, argv);
    flags.apply_log_level();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << "online embedding service demo\n\n" << flags.usage(argv[0]);
    return 0;
  }

  sim::DynamicConfig cfg;
  cfg.base.network_size =
      static_cast<std::size_t>(flags.get_int("network-size"));
  cfg.base.catalog_size = 8;
  cfg.base.sfc_size = static_cast<std::size_t>(flags.get_int("sfc-size"));
  cfg.base.vnf_capacity = flags.get_double("vnf-capacity");
  cfg.base.link_capacity = flags.get_double("link-capacity");
  cfg.base.trials = 1;
  cfg.arrival_rate =
      std::max(0.1, flags.get_double("load")) / cfg.mean_holding_time;
  cfg.num_arrivals = static_cast<std::size_t>(flags.get_int("arrivals"));

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::size_t workers = flags.get_workers();

  serve::AdmissionPolicy admission;
  admission.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-cap"));
  admission.max_retries = static_cast<std::uint32_t>(flags.get_int("retries"));
  admission.retry_backoff = flags.get_duration("backoff");

  // Process identity on the default registry (dagsfc_build_info +
  // dagsfc_uptime_seconds). The scrape endpoint serves the service's own
  // registry, so on_start registers a second ProcessMetrics there — that is
  // the copy a scraper actually sees, kept fresh via before_scrape.
  const util::ProcessMetrics process_metrics;

  const std::string flight_dump = flags.get("flight-dump");
  serve::TracingOptions tracing;
  tracing.enabled = flags.get_bool("trace") || !flight_dump.empty();
  tracing.latency_over = flags.get_duration("trace-latency-over");
  tracing.on_refusal = flags.get_bool("trace-refusals");

  SignalPoller poller;
  if (tracing.enabled) poller.start();

  // --- sharded mode: --algorithm hier routes through the shard plane ------
  if (flags.get("algorithm") == "hier") {
    std::unique_ptr<serve::MetricsHttpServer> endpoint;
    std::unique_ptr<util::ProcessMetrics> scrape_identity;
    const int metrics_port = flags.get_int("metrics-port");
    const auto shards = static_cast<std::size_t>(
        std::max<std::int64_t>(1, flags.get_int("shards")));
    shard::ShardWorkloadConfig scfg;
    scfg.regional.base = cfg.base;
    scfg.regional.regions.regions = shards;
    scfg.regional.regions.nodes_per_region =
        std::max<std::size_t>(2, cfg.base.network_size / shards);
    scfg.arrival_rate = cfg.arrival_rate;
    scfg.mean_holding_time = cfg.mean_holding_time;
    scfg.num_arrivals = cfg.num_arrivals;

    std::cerr << "generating regional workload (" << scfg.num_arrivals
              << " arrivals, " << scfg.regional.total_nodes() << " nodes, "
              << shards << " regions)...\n";
    const shard::ShardWorkload workload =
        shard::make_shard_workload(scfg, seed);
    const auto scheme =
        shard::partition_scheme_from_string(flags.get("partition"));
    const shard::ShardedSubstrate substrate(
        workload.scenario.network,
        shard::make_partition(workload.scenario.network.topology(), shards,
                              scheme, workload.scenario.region_of));

    shard::ShardedEmbeddingService::Options sopts;
    sopts.workers_per_shard = workers;  // --workers is per shard here
    sopts.admission = admission;
    sopts.hier.region_paths =
        static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("hier-paths")));
    sopts.hier.inner =
        shard::inner_algorithm_from_string(flags.get("hier-inner"));
    sopts.seed = seed;
    sopts.tracing = tracing;

    shard::ShardServiceTuning stuning;
    stuning.on_start = [&](shard::ShardedEmbeddingService& s) {
      g_flight.store(s.flight_recorder(), std::memory_order_release);
      if (metrics_port > 0) {
        scrape_identity =
            std::make_unique<util::ProcessMetrics>(s.metrics_registry());
        serve::MetricsHttpServer::Options mopts;
        mopts.flight = s.flight_recorder();
        mopts.before_scrape = [&scrape_identity] { scrape_identity->update(); };
        endpoint = std::make_unique<serve::MetricsHttpServer>(
            s.metrics_registry(), static_cast<std::uint16_t>(metrics_port),
            std::move(mopts));
        std::cerr << "metrics: curl http://127.0.0.1:" << endpoint->port()
                  << "/metrics\n";
      }
    };
    // The endpoint scrapes the service's registry and the flight dump reads
    // its recorder, so both must detach before the service is destroyed.
    stuning.on_finish = [&](shard::ShardedEmbeddingService& s) {
      g_flight.store(nullptr, std::memory_order_release);
      endpoint.reset();
      scrape_identity.reset();
      dump_flight(flight_dump, s.flight_recorder());
    };

    if (flags.get_bool("closed-loop")) {
      const shard::ShardDriverResult r =
          shard::run_sharded_closed_loop(workload, substrate, sopts, stuning);
      const auto& m = r.metrics;
      std::cout << "== dagsfc_serve (closed loop, hier, " << shards
                << " shards x " << workers << " workers) ==\n"
                << "accepted " << m.accepted << " / " << m.submitted
                << " (ratio " << m.acceptance_ratio() << "), cross-region "
                << m.cross_region_requests << ", conserved="
                << (r.conserved ? "yes" : "no") << "\n";
      std::cout << "JSON: {\"mode\":\"closed-loop\",\"algorithm\":\"hier\""
                << ",\"shards\":" << shards << ",\"workers_per_shard\":"
                << workers << ",\"conserved\":"
                << (r.conserved ? "true" : "false")
                << ",\"metrics\":" << m.to_json() << "}\n";
      return 0;
    }

    shard::ShardOpenLoopConfig open;
    open.producers = std::max<std::size_t>(
        1, static_cast<std::size_t>(flags.get_int("producers")));
    open.target_load =
        static_cast<std::size_t>(std::max(1.0, flags.get_double("load")));
    open.window = std::max<std::size_t>(4, 2 * workers / open.producers);
    open.service = sopts;
    open.deadline = flags.get_duration("deadline");
    open.tuning = stuning;

    const shard::ShardOpenLoopResult r =
        shard::run_sharded_open_loop(workload, substrate, open);
    const auto& m = r.metrics;
    std::cout << "== dagsfc_serve (open loop, hier, " << shards
              << " shards x " << workers << " workers, " << open.producers
              << " producers) ==\n"
              << "served " << m.completed() << " requests in "
              << r.wall_seconds << "s (" << r.throughput_rps() << " req/s)\n"
              << "accepted " << m.accepted << ", rejected "
              << m.rejected_infeasible << ", queue-full "
              << m.rejected_queue_full << ", shed " << m.shed_deadline
              << ", lost " << m.lost_conflict << ", cross-region "
              << m.cross_region_requests << "\n"
              << "commits: fast " << m.fast_commits << ", stamp "
              << m.stamp_commits << ", validated " << m.validated_commits
              << ", conflicts " << m.total_conflicts() << ", retries "
              << m.retries << "\n"
              << "conserved after drain: " << (r.conserved ? "yes" : "no")
              << "\n";
    std::cout << "JSON: {\"mode\":\"open-loop\",\"algorithm\":\"hier\""
              << ",\"shards\":" << shards << ",\"workers_per_shard\":"
              << workers << ",\"wall_s\":" << util::json_number(r.wall_seconds)
              << ",\"throughput_rps\":"
              << util::json_number(r.throughput_rps()) << ",\"conserved\":"
              << (r.conserved ? "true" : "false") << ",\"metrics\":"
              << m.to_json() << "}\n";
    return 0;
  }

  std::cerr << "generating workload (" << cfg.num_arrivals << " arrivals, "
            << cfg.base.network_size << " nodes)...\n";
  const serve::Workload workload = serve::make_workload(cfg, seed);

  std::unique_ptr<core::Embedder> algo;
  const std::string algo_name = flags.get("algorithm");
  if (algo_name == "ranv") {
    algo = std::make_unique<core::RanvEmbedder>();
  } else if (algo_name == "minv") {
    algo = std::make_unique<core::MinvEmbedder>();
  } else if (algo_name == "bbe") {
    algo = std::make_unique<core::BbeEmbedder>();
  } else if (algo_name == "mbbe") {
    algo = std::make_unique<core::MbbeEmbedder>();
  } else if (algo_name == "layered") {
    algo = std::make_unique<core::LayeredEmbedder>();
  } else {
    std::cerr << "unknown algorithm '" << algo_name
              << "' (ranv|minv|bbe|mbbe|layered)\n";
    return 1;
  }
  const core::Embedder& embedder = *algo;

  // Observability: the drivers own the service, so the watchdog knobs ride
  // in via ServiceTuning and the /metrics endpoint attaches on_start (it
  // lives in `endpoint` out here so it serves for the whole run).
  serve::ServiceTuning tuning;
  tuning.slow_solve_threshold = flags.get_duration("slow-solve-threshold");
  const std::string pipeline_name = flags.get("pipeline");
  if (pipeline_name == "mutex") {
    tuning.pipeline = serve::CommitPipeline::kMutex;
  } else if (pipeline_name == "mvcc") {
    tuning.pipeline = serve::CommitPipeline::kMvcc;
  } else {
    std::cerr << "unknown pipeline '" << pipeline_name << "' (mvcc|mutex)\n";
    return 1;
  }
  std::unique_ptr<serve::MetricsHttpServer> endpoint;
  std::unique_ptr<util::ProcessMetrics> scrape_identity;
  const int metrics_port = flags.get_int("metrics-port");
  tuning.tracing = tracing;
  tuning.on_start = [&](serve::EmbeddingService& s) {
    g_flight.store(s.flight_recorder(), std::memory_order_release);
    if (metrics_port > 0) {
      scrape_identity =
          std::make_unique<util::ProcessMetrics>(s.metrics_registry());
      serve::MetricsHttpServer::Options mopts;
      mopts.flight = s.flight_recorder();
      mopts.before_scrape = [&scrape_identity] { scrape_identity->update(); };
      endpoint = std::make_unique<serve::MetricsHttpServer>(
          s.metrics_registry(), static_cast<std::uint16_t>(metrics_port),
          std::move(mopts));
      std::cerr << "metrics: curl http://127.0.0.1:" << endpoint->port()
                << "/metrics\n";
    }
  };
  // The endpoint scrapes the service's registry and the flight dump reads
  // its recorder, so both must detach before the service is destroyed.
  tuning.on_finish = [&](serve::EmbeddingService& s) {
    g_flight.store(nullptr, std::memory_order_release);
    endpoint.reset();
    scrape_identity.reset();
    dump_flight(flight_dump, s.flight_recorder());
  };

  if (flags.get_bool("closed-loop")) {
    const serve::DriverResult r = serve::run_closed_loop(
        workload, embedder, workers, admission, seed, tuning);
    const auto& m = r.metrics;
    std::cout << "== dagsfc_serve (closed loop, " << workers
              << " workers, " << pipeline_name << " pipeline) ==\n"
              << "accepted " << m.accepted << " / " << m.submitted
              << " (ratio " << m.acceptance_ratio() << "), conserved="
              << (r.conserved ? "yes" : "no") << ", final epoch "
              << r.final_epoch << "\n";
    std::cout << "JSON: {\"mode\":\"closed-loop\",\"pipeline\":\""
              << pipeline_name << "\",\"workers\":" << workers
              << ",\"conserved\":" << (r.conserved ? "true" : "false")
              << ",\"metrics\":" << m.to_json() << "}\n";
    return 0;
  }

  serve::OpenLoopConfig open;
  open.workers = workers;
  open.producers = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.get_int("producers")));
  open.target_load =
      static_cast<std::size_t>(std::max(1.0, flags.get_double("load")));
  open.window = std::max<std::size_t>(4, 2 * workers / open.producers);
  open.admission = admission;
  open.seed = seed;
  open.deadline = flags.get_duration("deadline");
  open.tuning = tuning;

  const serve::OpenLoopResult r =
      serve::run_open_loop(workload, embedder, open);
  const auto& m = r.metrics;
  std::cout << "== dagsfc_serve (open loop, " << workers << " workers, "
            << open.producers << " producers, " << pipeline_name
            << " pipeline) ==\n"
            << "served " << m.completed() << " requests in " << r.wall_seconds
            << "s (" << r.throughput_rps() << " req/s)\n"
            << "accepted " << m.accepted << ", rejected "
            << m.rejected_infeasible << ", queue-full "
            << m.rejected_queue_full << ", shed " << m.shed_deadline
            << ", lost " << m.lost_conflict << "\n"
            << "commits: fast " << m.fast_commits << ", stamp "
            << m.stamp_commits << ", validated " << m.validated_commits
            << ", conflicts " << m.commit_conflicts << ", retries "
            << m.retries << "\n"
            << "latency ms p50/p95/p99: " << m.latency_ms.p50() << " / "
            << m.latency_ms.p95() << " / " << m.latency_ms.p99() << "\n"
            << "conserved after drain: " << (r.conserved ? "yes" : "no")
            << "\n";
  std::cout << "JSON: {\"mode\":\"open-loop\",\"pipeline\":\""
            << pipeline_name << "\",\"workers\":" << workers
            << ",\"wall_s\":" << util::json_number(r.wall_seconds)
            << ",\"throughput_rps\":" << util::json_number(r.throughput_rps())
            << ",\"conserved\":" << (r.conserved ? "true" : "false")
            << ",\"metrics\":" << m.to_json() << "}\n";
  return 0;
}
