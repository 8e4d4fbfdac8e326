/// perfbench — the repository benchmark program.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--source-id <id>]
///   perfbench --list-metrics
///
/// Runs one workload in this process and prints, as the last line of
/// standard output, `{"correct":..,"attempted":..,"failed":..,"metrics":..}`
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). The line before it, prefixed `record: `, carries the
/// provenance (nproc, build type, compiler and flags, source id, seed), the
/// workload parameters and both metric sets. Any failed output check makes
/// the run exit with status 1; a usage or runtime error exits with 2
/// without printing a result.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "graph/workspace.hpp"
#include "net/ledger.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using dagsfc::util::json_escape;
using dagsfc::util::json_number;

// ---- metric sets ----------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string MetricSet::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << "\"" << json_escape(e.name)
       << "\": {\"value\": "
       << json_number(std::isfinite(e.value) ? e.value : 0.0)
       << ", \"unit\": \"" << json_escape(e.unit) << "\"}";
  }
  os << "}";
  return os.str();
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Checks::operation(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  // Keep the listing short; the count says how many.
  if (failures.size() < 20) failures.push_back(what);
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs{
      {"throughput_rps", "1/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"latency_p99_ms", "ms", "lower"},
      {"acceptance_ratio", "ratio", "higher"},
      {"cost_mean", "cost", "lower"},
      {"setup_s", "s", "lower"},
      {"max_rss_mb", "MiB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    auto add = [&](const std::string& name, const char* unit,
                   const char* better) { s.push_back({name, unit, better}); };
    const char* algos[] = {"ranv", "minv", "bbe", "mbbe", "layered"};

    add("sim.instance_gen_ms", "ms", "lower");

    for (const char* a : algos)
      add(std::string("core.solve_ms_p50.") + a, "ms", "lower");
    for (const char* a : algos)
      add(std::string("core.solve_ms_p99.") + a, "ms", "lower");
    for (const char* a : algos)
      add(std::string("core.solve_share.") + a, "ratio", "lower");
    add("core.layered_ms_p99.sequential", "ms", "lower");
    add("core.layered_ms_p99.parallel", "ms", "lower");
    add("core.layered_share.parallel", "ratio", "lower");
    for (const char* a : {"bbe", "mbbe"})
      add(std::string("core.expanded_per_solve.") + a, "count/solve", "lower");
    for (const char* a : {"bbe", "mbbe"})
      add(std::string("core.candidates_per_solve.") + a, "count/solve",
          "lower");
    for (const char* p :
         {"backtracking.ring_search", "backtracking.layer",
          "backtracking.complete", "layered.sweep", "layered.reconstruct",
          "baselines.assign_then_route"})
      add(std::string("core.phase_share.") + p, "ratio", "lower");
    add("core.wall_share", "ratio", "lower");

    for (const char* k : {"dijkstra", "yen", "steiner", "bfs"})
      for (const char* a : algos)
        add(std::string("graph.") + k + "_per_solve." + a, "count/solve",
            "lower");
    for (const char* a : algos)
      add(std::string("graph.cache_hit_ratio.") + a, "ratio", "higher");
    add("graph.sssp_us", "us", "lower");

    add("serve.queue_ms_p50", "ms", "lower");
    add("serve.queue_ms_p99", "ms", "lower");
    add("serve.solve_ms_p50", "ms", "lower");
    add("serve.solve_ms_p99", "ms", "lower");
    add("serve.solve_attempt_ms_p99", "ms", "lower");
    add("serve.commit_ms_p99", "ms", "lower");
    add("serve.queue_commit_share", "ratio", "lower");
    for (const char* c : {"fast", "stamp", "validated", "conflict"})
      add(std::string("serve.commit_class_ratio.") + c, "ratio",
          std::string(c) == "conflict" ? "lower" : "higher");
    add("serve.retries_per_request", "count/request", "lower");
    add("serve.useful_solve_ratio", "ratio", "higher");
    for (const char* r : {"infeasible", "lost_conflict", "shed", "queue_full"})
      add(std::string("serve.refusal_ratio.") + r, "ratio", "lower");
    add("serve.group_commit_batch_mean", "count", "higher");
    add("serve.workers_busy_ratio", "ratio", "lower");
    add("serve.release_us_p99", "us", "lower");
    add("serve.submit_us_p99", "us", "lower");

    add("shard.cross_region_ratio", "ratio", "lower");
    add("shard.commit_imbalance", "ratio", "lower");
    add("shard.conflicts_per_request", "count/request", "lower");

    add("util.spans_recorded", "count", "higher");
    add("util.spans_dropped", "count", "lower");

    add("bench.late_ms_p99", "ms", "lower");
    add("bench.backlog_growth", "count", "lower");
    add("bench.drift_ratio", "ratio", "higher");
    add("bench.trace_overhead_ratio", "ratio", "higher");
    return s;
  }();
  return specs;
}

MetricSet zero_per_layer() {
  MetricSet m;
  for (const MetricSpec& s : per_layer_specs()) m.set(s.name, 0.0, s.unit);
  return m;
}

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double max_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would also count the launcher's pages from before exec.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- phase meters ---------------------------------------------------------

PhaseSnapshot PhaseSnapshot::take() {
  PhaseSnapshot s;
  const dagsfc::util::RegistrySnapshot snap =
      dagsfc::util::MetricRegistry::global().snapshot();
  for (const dagsfc::util::MetricSample& m : snap.samples) {
    std::string phase;
    for (const auto& [k, v] : m.labels) {
      if (k == "phase") phase = v;
    }
    if (phase.empty()) continue;
    if (m.name == "dagsfc_phase_seconds") s.seconds[phase] = m.gauge;
  }
  return s;
}

PhaseSnapshot PhaseSnapshot::since(const PhaseSnapshot& before) const {
  PhaseSnapshot d;
  for (const auto& [k, v] : seconds) {
    const auto it = before.seconds.find(k);
    d.seconds[k] = v - (it == before.seconds.end() ? 0.0 : it->second);
  }
  return d;
}

void PhaseSnapshot::add(const PhaseSnapshot& delta) {
  for (const auto& [k, v] : delta.seconds) seconds[k] += v;
}

double PhaseSnapshot::solve_seconds() const {
  double s = 0.0;
  for (const auto& [k, v] : seconds) {
    if (k.rfind("solve/", 0) == 0) s += v;
  }
  return s;
}

double PhaseSnapshot::get(const std::string& phase) const {
  const auto it = seconds.find(phase);
  return it == seconds.end() ? 0.0 : it->second;
}

void set_phase_shares(const PhaseSnapshot& delta, MetricSet& out) {
  const double total = delta.solve_seconds();
  if (total <= 0.0) return;
  for (const char* algo : {"RANV", "MINV", "BBE", "MBBE", "LAYERED"}) {
    std::string key = algo;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    out.set("core.solve_share." + key,
            delta.get(std::string("solve/") + algo) / total, "ratio");
  }
  for (const auto& [phase, secs] : delta.seconds) {
    if (phase.rfind("solve/", 0) == 0) continue;
    std::string key = phase;
    std::replace(key.begin(), key.end(), '/', '.');
    key = "core.phase_share." + key;
    // Only the declared phases are reported; the rest stay in the record.
    if (out.has(key)) out.set(key, secs / total, "ratio");
  }
}

void set_production_defaults() {
  dagsfc::net::CapacityLedger::set_cache_default(true);
  dagsfc::graph::set_flat_search_default(true);
}

// ---- command line ---------------------------------------------------------

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <paper_offline|exact_offline|serve_open|"
               "shard_open> --seed <n> --seconds <s> --trace <0|1> "
               "[--source-id <id>]\n       "
            << argv0 << " --list-metrics\n";
  return 2;
}

std::string list_metrics_json() {
  auto render = [](const std::vector<MetricSpec>& specs) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      os << (i ? "," : "") << "{\"name\":\"" << specs[i].name
         << "\",\"unit\":\"" << specs[i].unit << "\",\"better\":\""
         << specs[i].better << "\"}";
    }
    os << "]";
    return os.str();
  };
  return "{\"end_to_end\":" + render(end_to_end_specs()) +
         ",\"per_layer\":" + render(per_layer_specs()) + "}";
}

std::string provenance_json(const Options& o) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
     << "\",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\",\"source_id\":\"" << json_escape(o.source_id)
     << "\",\"seed\":" << o.seed << ",\"seconds\":" << json_number(o.seconds)
     << ",\"trace\":" << (o.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::cout << list_metrics_json() << "\n";
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opts.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opts.seconds = std::stod(v);
        have_seconds = opts.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage(argv[0]);
        opts.trace = v == "1";
        have_trace = true;
      } else if (a == "--source-id") {
        opts.source_id = v;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    return usage(argv[0]);
  }

  RunResult result;
  try {
    set_production_defaults();
    if (opts.workload == "paper_offline") {
      result = run_paper_offline(opts);
    } else if (opts.workload == "exact_offline") {
      result = run_exact_offline(opts);
    } else if (opts.workload == "serve_open") {
      result = run_serve_open(opts);
    } else if (opts.workload == "shard_open") {
      result = run_shard_open(opts);
    } else {
      std::cerr << "unknown workload '" << opts.workload << "'\n";
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  // Every declared metric must be present in the set this mode reports.
  const MetricSet& reported =
      opts.trace ? result.per_layer : result.end_to_end;
  const auto& specs = opts.trace ? per_layer_specs() : end_to_end_specs();
  for (const MetricSpec& s : specs) {
    result.checks.expect(reported.has(s.name), "metric missing: " + s.name);
  }
  for (const MetricSet::Entry& e : reported.entries()) {
    result.checks.expect(std::isfinite(e.value),
                         "metric not finite: " + e.name);
  }
  const bool correct = result.checks.ok();
  for (const std::string& f : result.checks.failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }

  std::ostringstream facts;
  facts << "{";
  for (std::size_t i = 0; i < result.facts.size(); ++i) {
    facts << (i ? "," : "") << "\"" << json_escape(result.facts[i].first)
          << "\":" << result.facts[i].second;
  }
  facts << "}";
  std::cout << "record: {\"workload\":\"" << json_escape(opts.workload)
            << "\",\"provenance\":" << provenance_json(opts)
            << ",\"facts\":" << facts.str()
            << ",\"end_to_end\":" << result.end_to_end.json()
            << ",\"per_layer\":" << result.per_layer.json() << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(
                                           1, result.checks.attempted)
            << ", \"failed\": " << result.checks.failed
            << ", \"metrics\": " << reported.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
