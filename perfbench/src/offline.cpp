/// Offline workloads: one client thread solving generated instances back to
/// back, each solve against a fresh CapacityLedger.
///
///   paper_offline  the paper's Fig. 6 setting (Table-2 defaults, |V| = 500,
///                  SFC sizes 3..9 cycled) solved by RANV, MINV, BBE (sizes
///                  <= 4) and MBBE;
///   exact_offline  LAYERED on |V| 16..30, degree 3, SFC size 4, sequential
///                  chains and parallel layers; MBBE runs untimed on every
///                  instance as the optimality check.
///
/// Instances are generated one at a time outside the timed region and
/// dropped after their solves, so every solve in a run meets a distinct
/// instance and memory stays flat. The loop runs until --seconds have
/// elapsed, the fixed quality set is done, and (without --trace) at least
/// kMinChunks chunks and kMinSamples solves are timed; it stops at a chunk
/// boundary. Every solution goes through core::SolutionValidator.

#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "graph/dijkstra.hpp"
#include "graph/workspace.hpp"
#include "net/ledger.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace dagsfc;

/// Instances per measuring chunk (20 of each of the 7 classes).
constexpr std::size_t kChunkInstances = 140;
/// Solves an untraced pass always times, so its p99 has ten samples beyond.
constexpr std::size_t kMinSamples = 1000;
/// Complete chunks an untraced pass always measures.
constexpr std::size_t kMinChunks = 5;
/// Wall-clock cap of the measuring loop, whatever the host's speed.
constexpr double kMaxLoopSeconds = 150.0;
constexpr std::size_t kSetupRepeats = 15;
/// Networks timed for graph.sssp_us (a multiple of every class count).
constexpr std::size_t kSsspInstances = 84;

enum Algo : std::size_t { kRanv, kMinv, kBbe, kMbbe, kLayered, kNumAlgos };
const char* const kAlgoKey[kNumAlgos] = {"ranv", "minv", "bbe", "mbbe",
                                         "layered"};

/// One generated problem. Heap-held: the problem and index point into the
/// scenario and SFC, so an Instance never moves.
struct Instance {
  std::uint64_t seed = 0;
  std::size_t group = 0;  ///< workload-defined class (size, shape)
  double gen_s = 0.0;     ///< time spent in the sim generators
  sim::Scenario scenario;
  sfc::DagSfc dag;
  core::EmbeddingProblem problem;
  std::unique_ptr<core::ModelIndex> index;
};

using ConfigFor = sim::ExperimentConfig (*)(std::size_t k);

/// Instance \p k of a workload.
std::unique_ptr<Instance> make_instance(std::uint64_t seed, std::size_t k,
                                        ConfigFor config_for,
                                        std::size_t groups) {
  const sim::ExperimentConfig cfg = config_for(k);
  const auto t0 = Clock::now();
  Rng gen(seed);
  sim::Scenario scenario = sim::make_scenario(gen, cfg);
  sfc::DagSfc dag = sim::make_sfc(gen, scenario.network.catalog(), cfg);
  const double gen_s = seconds_between(t0, Clock::now());
  auto inst = std::unique_ptr<Instance>(
      new Instance{seed, k % groups, gen_s, std::move(scenario),
                   std::move(dag), {}, nullptr});
  inst->problem.network = &inst->scenario.network;
  inst->problem.sfc = &inst->dag;
  inst->problem.flow =
      core::Flow{inst->scenario.source, inst->scenario.destination,
                 cfg.flow_rate, cfg.flow_size};
  inst->index = std::make_unique<core::ModelIndex>(inst->problem);
  return inst;
}

/// One timed arm of an offline workload.
struct Arm {
  const core::Embedder* embedder = nullptr;
  Algo algo = kRanv;
  std::size_t max_sfc_size = 0;  ///< 0 = every instance
};

struct SolveRecord {
  Algo algo = kRanv;
  std::size_t instance = 0;
  std::size_t group = 0;
  bool ok = false;
  double ms = 0.0;
  double cost = 0.0;
  std::size_t expanded = 0;
  std::size_t candidates = 0;
  graph::PathQueryCounters queries;
};

/// Untimed per-instance check run after the instance's timed solves; its
/// phase-meter time is excluded from the pass.
using InstanceCheck = std::function<void(
    const Instance&, const std::vector<SolveRecord>&, Checks&)>;

struct OfflineWorkload {
  const char* name = "";
  ConfigFor config_for = nullptr;
  std::size_t groups = 1;
  std::vector<Arm> arms;
  /// The first quality_instances instances are always solved; cost_mean is
  /// taken over them, so it is one fixed set per seed.
  std::size_t quality_instances = 0;
  /// Instances generated per timed set-up: enough that one set-up takes
  /// tens of milliseconds, well above timer and page-fault noise.
  std::size_t setup_instances = 0;
  InstanceCheck check;
};

struct PassResult {
  std::vector<SolveRecord> records;
  std::size_t instances = 0;
  double wall_s = 0.0;
  PhaseSnapshot phases;  ///< delta over the timed solves
};

std::uint64_t arm_seed(std::uint64_t instance_seed, Algo algo) {
  std::uint64_t s = instance_seed ^ (0x9e3779b97f4a7c15ULL * (algo + 1));
  return splitmix64(s);
}

/// The measuring loop shared by both offline workloads: instance k is
/// generated (untimed), solved by every applicable arm (timed, each against
/// a fresh ledger), validated (untimed), checked, and dropped. Instances
/// are a pure function of (seed, k), so every pass of a run sees the same
/// sequence.
PassResult solve_stream(const OfflineWorkload& w, std::uint64_t seed,
                        double seconds, std::size_t min_instances,
                        std::size_t min_samples,
                        Checks& checks) {
  PassResult out;
  graph::SearchWorkspace ws;
  Rng seeder(seed);
  PhaseSnapshot excluded;

  const PhaseSnapshot before = PhaseSnapshot::take();
  const auto t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::unique_ptr<Instance> inst =
        make_instance(seeder.fork_seed(), k, w.config_for, w.groups);
    const core::SolutionValidator validator(*inst->index);
    std::vector<SolveRecord> recs;
    for (const Arm& arm : w.arms) {
      if (arm.max_sfc_size && inst->dag.size() > arm.max_sfc_size) continue;
      Rng rng(arm_seed(inst->seed, arm.algo));
      const auto ts = Clock::now();
      const net::CapacityLedger ledger(inst->scenario.network);
      const core::SolveResult r =
          arm.embedder->solve(*inst->index, ledger, rng, nullptr, &ws);
      const double ms = ms_between(ts, Clock::now());
      recs.push_back(SolveRecord{arm.algo, k, inst->group, r.ok(), ms,
                                 r.ok() ? r.cost : 0.0,
                                 r.expanded_sub_solutions,
                                 r.candidate_solutions, r.path_queries});
      const std::string what =
          std::string(kAlgoKey[arm.algo]) + " instance " + std::to_string(k);
      if (r.ok()) {
        const core::ValidationReport rep = validator.check(r, ledger);
        checks.operation(rep.ok(), what + " invalid: " + rep.to_string());
      } else {
        checks.operation(!r.failure_reason.empty(),
                         what + " refused without a reason");
      }
    }
    if (w.check) {
      const PhaseSnapshot b = PhaseSnapshot::take();
      w.check(*inst, recs, checks);
      excluded.add(PhaseSnapshot::take().since(b));
    }
    out.records.insert(out.records.end(), recs.begin(), recs.end());
    out.instances = k + 1;

    const double elapsed = seconds_between(t0, Clock::now());
    if (elapsed >= kMaxLoopSeconds) break;
    // Stop at a chunk boundary, so no measured instance is left out.
    if (out.instances % kChunkInstances == 0 &&
        out.instances >= std::max(w.quality_instances, min_instances) &&
        out.records.size() >= min_samples && elapsed >= seconds) {
      break;
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.phases = PhaseSnapshot::take().since(before).since(excluded);
  return out;
}

/// Set-up as a client pays it: generating and indexing one block of
/// instances (w.setup_instances, every class equally), kSetupRepeats times.
/// Records the median set-up time and median sim-generator time.
void timed_setup(const OfflineWorkload& w, std::uint64_t seed,
                 double& setup_s, double& gen_ms) {
  std::vector<double> totals, gens;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    Rng seeder(seed);
    std::vector<std::unique_ptr<Instance>> block;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < w.setup_instances; ++k) {
      block.push_back(
          make_instance(seeder.fork_seed(), k, w.config_for, w.groups));
    }
    totals.push_back(seconds_between(t0, Clock::now()));
    double gen_s = 0.0;
    for (const auto& inst : block) gen_s += inst->gen_s;
    gens.push_back(gen_s * 1e3);
  }
  setup_s = median(totals);
  gen_ms = median(gens);
}

struct Summary {
  double throughput_rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double acceptance = 0.0;
  double cost_mean = 0.0;
  std::size_t samples = 0;
  std::size_t chunks = 0;
};

/// Throughput and median latency are taken per chunk of kChunkInstances
/// consecutive instances and reported as the median over complete chunks.
/// A chunk holds every class equally and, for one seed, the same instances
/// in every run, so the median is steady against a host that stalls for
/// part of a run. The p99 needs more samples than a chunk has, so it is
/// taken over every solve of the run.
Summary summarize(const PassResult& p, std::size_t quality_instances) {
  Summary s;
  const std::size_t chunks = p.instances / kChunkInstances;
  std::vector<std::vector<double>> chunk_ms(chunks);
  std::vector<double> chunk_ok(chunks, 0.0), all_ms;
  double cost = 0.0;
  std::size_t ok = 0, costed = 0;
  for (const SolveRecord& r : p.records) {
    all_ms.push_back(r.ms);
    ok += r.ok ? 1 : 0;
    if (r.ok && r.instance < quality_instances) {
      cost += r.cost;
      ++costed;
    }
    const std::size_t c = r.instance / kChunkInstances;
    if (c >= chunks) continue;
    chunk_ms[c].push_back(r.ms);
    chunk_ok[c] += r.ok ? 1.0 : 0.0;
  }
  std::vector<double> rps, p50;
  for (std::size_t c = 0; c < chunks; ++c) {
    double busy_ms = 0.0;
    for (double ms : chunk_ms[c]) busy_ms += ms;
    // One client solving back to back: completions per second of solving.
    rps.push_back(busy_ms > 0.0 ? chunk_ok[c] / busy_ms * 1e3 : 0.0);
    p50.push_back(quantile(chunk_ms[c], 0.50));
  }
  s.samples = all_ms.size();
  s.chunks = chunks;
  s.throughput_rps = median(rps);
  s.p50 = median(p50);
  s.p99 = quantile(all_ms, 0.99);
  s.acceptance = p.records.empty()
                     ? 0.0
                     : static_cast<double>(ok) /
                           static_cast<double>(p.records.size());
  s.cost_mean = costed ? cost / static_cast<double>(costed) : 0.0;
  return s;
}

void set_end_to_end(const Summary& s, double setup_s, MetricSet& m) {
  m.set("throughput_rps", s.throughput_rps, "1/s");
  m.set("latency_p50_ms", s.p50, "ms");
  m.set("latency_p99_ms", s.p99, "ms");
  m.set("acceptance_ratio", s.acceptance, "ratio");
  m.set("cost_mean", s.cost_mean, "cost");
  m.set("setup_s", setup_s, "s");
  m.set("max_rss_mb", max_rss_mb(), "MiB");
}

/// core.* and graph.* per-layer metrics of a traced pass.
void set_solver_layers(const OfflineWorkload& w, std::uint64_t seed,
                       const PassResult& p, MetricSet& m) {
  std::vector<double> ms[kNumAlgos];
  graph::PathQueryCounters q[kNumAlgos];
  double expanded[kNumAlgos] = {}, candidates[kNumAlgos] = {};
  for (const SolveRecord& r : p.records) {
    ms[r.algo].push_back(r.ms);
    q[r.algo] += r.queries;
    expanded[r.algo] += static_cast<double>(r.expanded);
    candidates[r.algo] += static_cast<double>(r.candidates);
  }
  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    if (ms[a].empty()) continue;
    const std::string key = kAlgoKey[a];
    const auto solves = static_cast<double>(ms[a].size());
    m.set("core.solve_ms_p50." + key, quantile(ms[a], 0.50), "ms");
    m.set("core.solve_ms_p99." + key, quantile(ms[a], 0.99), "ms");
    if (a == kBbe || a == kMbbe) {
      m.set("core.expanded_per_solve." + key, expanded[a] / solves,
            "count/solve");
      m.set("core.candidates_per_solve." + key, candidates[a] / solves,
            "count/solve");
    }
    m.set("graph.dijkstra_per_solve." + key,
          static_cast<double>(q[a].dijkstra_calls) / solves, "count/solve");
    m.set("graph.yen_per_solve." + key,
          static_cast<double>(q[a].yen_calls) / solves, "count/solve");
    m.set("graph.steiner_per_solve." + key,
          static_cast<double>(q[a].steiner_calls) / solves, "count/solve");
    m.set("graph.bfs_per_solve." + key,
          static_cast<double>(q[a].bfs_calls) / solves, "count/solve");
    const auto lookups =
        static_cast<double>(q[a].cache_hits + q[a].cache_misses);
    m.set("graph.cache_hit_ratio." + key,
          lookups > 0.0 ? static_cast<double>(q[a].cache_hits) / lookups
                        : 0.0,
          "ratio");
  }
  set_phase_shares(p.phases, m);
  m.set("core.wall_share",
        p.wall_s > 0.0 ? p.phases.solve_seconds() / p.wall_s : 0.0, "ratio");

  // One timed full SSSP per instance on the workload's own networks.
  graph::SearchWorkspace ws;
  Rng seeder(seed);
  std::vector<double> us;
  for (std::size_t k = 0; k < kSsspInstances; ++k) {
    const std::unique_ptr<Instance> inst =
        make_instance(seeder.fork_seed(), k, w.config_for, w.groups);
    const auto t0 = Clock::now();
    const graph::ShortestPathTree tree = graph::dijkstra(
        inst->scenario.network.topology(), inst->scenario.source, ws);
    us.push_back(us_between(t0, Clock::now()));
    (void)tree;
  }
  m.set("graph.sssp_us", median(us), "us");
}

/// Runs an offline workload: set-up, then the measuring loop — once for
/// --trace 0, or an untraced half and a traced half for --trace 1 (their
/// throughput ratio is bench.trace_overhead_ratio).
template <class ExtraLayers>
RunResult run_offline(const Options& opts, const OfflineWorkload& w,
                      ExtraLayers extra_layers) {
  RunResult res;
  double setup_s = 0.0, gen_ms = 0.0;
  timed_setup(w, opts.seed, setup_s, gen_ms);
  std::cerr << w.name << ": set-up " << setup_s << " s\n";

  if (!opts.trace) {
    const PassResult p =
        solve_stream(w, opts.seed, opts.seconds,
                     kMinChunks * kChunkInstances, kMinSamples, res.checks);
    const Summary s = summarize(p, w.quality_instances);
    set_end_to_end(s, setup_s, res.end_to_end);
    res.facts.emplace_back("samples", std::to_string(s.samples));
    res.facts.emplace_back("chunks", std::to_string(s.chunks));
    res.facts.emplace_back("instances", std::to_string(p.instances));
    res.facts.emplace_back("wall_s", std::to_string(p.wall_s));
  } else {
    const PassResult plain =
        solve_stream(w, opts.seed, opts.seconds / 2, 0, 0, res.checks);
    const PassResult traced =
        solve_stream(w, opts.seed, opts.seconds / 2, 0, 0, res.checks);
    const Summary sp = summarize(plain, w.quality_instances);
    const Summary st = summarize(traced, w.quality_instances);
    res.per_layer = zero_per_layer();
    MetricSet& m = res.per_layer;
    m.set("sim.instance_gen_ms", gen_ms, "ms");
    set_solver_layers(w, opts.seed, traced, m);
    extra_layers(traced, m);
    m.set("bench.trace_overhead_ratio",
          sp.throughput_rps > 0.0 ? st.throughput_rps / sp.throughput_rps
                                  : 0.0,
          "ratio");
    res.facts.emplace_back("samples", std::to_string(st.samples));
    res.facts.emplace_back("instances", std::to_string(traced.instances));
  }
  return res;
}

// ---- paper_offline --------------------------------------------------------

constexpr std::size_t kPaperSizes = 7;  // SFC sizes 3..9

sim::ExperimentConfig paper_config(std::size_t k) {
  sim::ExperimentConfig cfg;  // Table 2: |V| 500, degree 6, 50%, 20%, 5%
  cfg.sfc_size = 3 + k % kPaperSizes;
  return cfg;
}

// ---- exact_offline --------------------------------------------------------

/// Sequential chains on |V| in {16, 24, 30}; parallel SFCs on {16, 20, 24,
/// 30}. The fourth parallel class keeps the median inside the parallel
/// mode: with an even split it would sit in the gap between the two modes
/// (about 0.05 ms vs 4 ms) and jump between them from run to run.
constexpr std::size_t kExactSequential[] = {16, 24, 30};
constexpr std::size_t kExactParallel[] = {16, 20, 24, 30};
constexpr std::size_t kExactGroups = 7;

bool exact_parallel(std::size_t group) { return group >= 3; }

sim::ExperimentConfig exact_config(std::size_t k) {
  const std::size_t g = k % kExactGroups;
  sim::ExperimentConfig cfg;
  cfg.network_size =
      exact_parallel(g) ? kExactParallel[g - 3] : kExactSequential[g];
  cfg.network_connectivity = 3.0;
  cfg.sfc_size = 4;
  cfg.catalog_size = 6;
  cfg.max_layer_width = exact_parallel(g) ? 3 : 1;
  return cfg;
}

}  // namespace

RunResult run_paper_offline(const Options& opts) {
  const core::RanvEmbedder ranv;
  const core::MinvEmbedder minv;
  const core::BbeEmbedder bbe;
  const core::MbbeEmbedder mbbe;
  OfflineWorkload w;
  w.name = "paper_offline";
  w.config_for = paper_config;
  w.groups = kPaperSizes;
  w.arms = {{&ranv, kRanv, 0}, {&minv, kMinv, 0}, {&bbe, kBbe, 4},
            {&mbbe, kMbbe, 0}};
  w.quality_instances = 40 * kPaperSizes;
  w.setup_instances = 12 * kPaperSizes;
  return run_offline(opts, w, [](const PassResult&, MetricSet&) {});
}

RunResult run_exact_offline(const Options& opts) {
  const core::LayeredEmbedder layered;
  const core::MbbeEmbedder mbbe;
  graph::SearchWorkspace check_ws;
  OfflineWorkload w;
  w.name = "exact_offline";
  w.config_for = exact_config;
  w.groups = kExactGroups;
  w.arms = {{&layered, kLayered, 0}};
  w.quality_instances = 40 * kExactGroups;
  w.setup_instances = 120 * kExactGroups;
  // Optimality check: LAYERED is exact, so it never costs more than MBBE.
  w.check = [&](const Instance& inst, const std::vector<SolveRecord>& recs,
                Checks& checks) {
    const SolveRecord& lay = recs.front();
    const net::CapacityLedger ledger(inst.scenario.network);
    Rng rng(arm_seed(inst.seed, kMbbe));
    const core::SolveResult r =
        mbbe.solve(*inst.index, ledger, rng, nullptr, &check_ws);
    if (!r.ok()) return;
    const std::string what = "instance " + std::to_string(lay.instance);
    const core::ValidationReport rep =
        core::SolutionValidator(*inst.index).check(r, ledger);
    checks.operation(rep.ok(), "mbbe " + what + " invalid: " + rep.to_string());
    checks.operation(lay.ok && lay.cost <= r.cost * (1.0 + 1e-12),
                     "layered above mbbe on " + what + ": " +
                         std::to_string(lay.cost) + " > " +
                         std::to_string(r.cost));
  };

  auto extra = [](const PassResult& p, MetricSet& m) {
    std::vector<double> seq, par;
    double par_ms = 0.0, all_ms = 0.0;
    for (const SolveRecord& r : p.records) {
      const bool parallel = exact_parallel(r.group);
      (parallel ? par : seq).push_back(r.ms);
      all_ms += r.ms;
      if (parallel) par_ms += r.ms;
    }
    m.set("core.layered_ms_p99.sequential", quantile(seq, 0.99), "ms");
    m.set("core.layered_ms_p99.parallel", quantile(par, 0.99), "ms");
    m.set("core.layered_share.parallel", all_ms > 0.0 ? par_ms / all_ms : 0.0,
          "ratio");
  };
  return run_offline(opts, w, extra);
}

}  // namespace perfbench
