/// Extension bench: the layered joint placement+routing embedder — the
/// exact engine — vs the paper's greedy/backtracking heuristics. Two
/// workload shapes bracket the interesting regime:
///
///   * sequential (max_layer_width = 1): the product graph has no gadget
///     transitions at all — one Dijkstra pass end to end;
///   * parallel (max_layer_width = 3, the paper's default): every parallel
///     layer fires the Steiner/merger gadget enumeration per settled
///     boundary state.
///
/// Instances are sized so LAYERED always runs; per shape the bench reports,
/// over the instances where *all* three solvers succeed, the mean cost,
/// each heuristic's cost gap relative to LAYERED, and the mean wall clock.
/// That LAYERED equals the EXACT per-layer DP bitwise is proved by
/// tests/test_layered.cpp, not measured here. scripts/bench_layered.sh
/// records the `JSON:` line as BENCH_layered_gap.json.

#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "sim/scenario.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dagsfc;

struct AlgoStats {
  RunningStats cost;
  RunningStats wall_ms;
  std::size_t ok = 0;
};

double now_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("trials", 60, "instances per workload shape")
      .define_int("network-size", 14, "nodes (small enough for LAYERED)")
      .define_int("sfc-size", 4, "VNFs per SFC")
      .define_double("connectivity", 3.0, "average node degree")
      .define_int("seed", 0x1a9e7ed, "base RNG seed")
      .define_bool("csv", false, "also print the tables as CSV")
      .define_log_level();
  try {
    flags.parse(argc, argv);
    flags.apply_log_level();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << "layered embedder vs greedy heuristics\n\n"
              << flags.usage(argv[0]);
    return 0;
  }

  sim::ExperimentConfig base;
  base.network_size = static_cast<std::size_t>(flags.get_int("network-size"));
  base.network_connectivity = flags.get_double("connectivity");
  base.sfc_size = static_cast<std::size_t>(flags.get_int("sfc-size"));
  base.catalog_size = 6;
  base.trials = static_cast<std::size_t>(flags.get_int("trials"));
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const core::BbeEmbedder bbe;
  const core::MbbeEmbedder mbbe;
  const core::LayeredEmbedder layered{
      core::LayeredOptions{.delay_budget_ms = std::nullopt,
                           .delay_model = {},
                           .max_work = 50'000'000,
                           .max_labels = 2'000'000}};
  struct Arm {
    const char* key;
    const core::Embedder* algo;
  };
  const std::vector<Arm> arms{
      {"bbe", &bbe}, {"mbbe", &mbbe}, {"layered", &layered}};
  const std::size_t kLayered = 2;

  struct Shape {
    const char* name;
    std::size_t max_layer_width;
  };
  const std::vector<Shape> shapes{{"sequential", 1}, {"parallel", 3}};

  Table t({"shape", "algo", "ok", "mean cost", "gap vs layered %",
           "mean wall ms"});
  std::ostringstream json;
  json << "{\"bench\":\"layered_vs_greedy\",\"config\":\""
       << util::json_escape(base.summary()) << "\",\"shapes\":{";

  bool first_shape = true;
  for (const Shape& shape : shapes) {
    sim::ExperimentConfig cfg = base;
    cfg.max_layer_width = shape.max_layer_width;

    std::vector<AlgoStats> stats(arms.size());
    std::size_t all_ok = 0;

    Rng seeder(cfg.seed);
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
      const std::uint64_t instance_seed = seeder.fork_seed();
      Rng gen(instance_seed);
      const sim::Scenario scenario = sim::make_scenario(gen, cfg);
      const sfc::DagSfc dag =
          sim::make_sfc(gen, scenario.network.catalog(), cfg);
      core::EmbeddingProblem problem;
      problem.network = &scenario.network;
      problem.sfc = &dag;
      problem.flow =
          core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
      const core::ModelIndex index(problem);

      std::vector<core::SolveResult> results;
      results.reserve(arms.size());
      bool everyone_ok = true;
      for (const Arm& arm : arms) {
        Rng rng(instance_seed);
        const auto t0 = std::chrono::steady_clock::now();
        core::SolveResult r = arm.algo->solve_fresh(index, rng);
        const double ms = now_ms_since(t0);
        const std::size_t i = results.size();
        stats[i].wall_ms.add(ms);
        if (r.ok()) {
          ++stats[i].ok;
        } else {
          everyone_ok = false;
        }
        results.push_back(std::move(r));
      }
      if (!everyone_ok) continue;
      ++all_ok;
      for (std::size_t i = 0; i < arms.size(); ++i) {
        stats[i].cost.add(results[i].cost);
      }
    }

    const double layered_mean = stats[kLayered].cost.mean();
    for (std::size_t i = 0; i < arms.size(); ++i) {
      t.row().cell(shape.name).cell(arms[i].key);
      t.cell(stats[i].ok);
      t.cell(all_ok ? stats[i].cost.mean() : 0.0);
      const double gap =
          (all_ok && layered_mean > 0.0)
              ? (stats[i].cost.mean() - layered_mean) / layered_mean * 100.0
              : 0.0;
      t.cell(gap);
      t.cell(stats[i].wall_ms.mean(), 3);
    }

    json << (first_shape ? "" : ",") << "\"" << shape.name
         << "\":{\"trials\":" << cfg.trials << ",\"all_ok\":" << all_ok
         << ",\"algos\":{";
    first_shape = false;
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const double gap =
          (all_ok && layered_mean > 0.0)
              ? (stats[i].cost.mean() - layered_mean) / layered_mean
              : 0.0;
      json << (i ? "," : "") << "\"" << arms[i].key << "\":{\"ok\":"
           << stats[i].ok << ",\"cost_mean\":"
           << util::json_number(all_ok ? stats[i].cost.mean() : 0.0)
           << ",\"gap_vs_layered\":" << util::json_number(gap)
           << ",\"wall_ms_mean\":" << util::json_number(stats[i].wall_ms.mean())
           << "}";
    }
    json << "}}";
    std::cerr << "shape " << shape.name << ": " << all_ok << "/" << cfg.trials
              << " instances solved by every arm\n";
  }
  json << "}}";

  std::cout << "== Extension: layered vs greedy (cost gap vs LAYERED) ==\n"
            << "expectation: LAYERED is exact and lower-bounds BBE/MBBE; "
               "cost rows average only instances every arm solved\n"
            << "base config: " << base.summary() << "\n\n"
            << t.ascii();
  if (flags.get_bool("csv")) std::cout << "\nCSV:\n" << t.csv();
  std::cout << "\nJSON: " << json.str() << "\n";
  return 0;
}
