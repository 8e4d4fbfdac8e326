#pragma once
/// \file common.hpp
/// Shared scaffolding of the repository benchmark: run options, the named
/// metric sets every workload reports, the correctness ledger that fails a
/// run, exact sample quantiles, and before/after deltas of the always-on
/// solver phase meters (`dagsfc_phase_seconds{phase=...}`).
///
/// Every layer is measured from outside, through public calls only: the
/// benchmark times the calls it makes and reads what they already return.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command line of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Identifies the measured source tree (git commit or content digest).
  std::string source_id = "unknown";
};

/// Named metrics in declaration order. set() overwrites an existing name.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// `{"name":{"value":v,"unit":"u"},...}`
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Entry> entries_;
};

/// Correctness ledger: any failed expectation fails the whole run.
struct Checks {
  std::uint64_t attempted = 0;  ///< operations the run issued
  std::uint64_t failed = 0;     ///< operations whose output failed a check
  std::vector<std::string> failures;

  /// Records a failed run-level invariant.
  void expect(bool ok, const std::string& what);
  /// Records one operation; a failed operation also fails the run.
  void operation(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures.empty() && failed == 0; }
};

/// What a workload hands back to main().
struct RunResult {
  MetricSet end_to_end;  ///< reported with --trace 0
  MetricSet per_layer;   ///< reported with --trace 1
  Checks checks;
  /// Workload parameters and run-validity figures for the record line.
  std::vector<std::pair<std::string, std::string>> facts;
};

/// Metric declarations: the single source of BENCHMARK.json's lists.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" | "lower"
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();
/// Every per-layer metric at 0 — what a workload reports for a layer it
/// never enters.
[[nodiscard]] MetricSet zero_per_layer();

/// Exact sample quantile (linear interpolation between order statistics);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// Peak resident set of this process, in MiB.
[[nodiscard]] double max_rss_mb();

/// Snapshot of the global registry's phase meters
/// (`dagsfc_phase_seconds{phase=...}`).
struct PhaseSnapshot {
  std::map<std::string, double> seconds;  ///< phase -> busy seconds

  [[nodiscard]] static PhaseSnapshot take();
  /// Per-phase change since \p before.
  [[nodiscard]] PhaseSnapshot since(const PhaseSnapshot& before) const;
  /// Accumulates another delta into this one.
  void add(const PhaseSnapshot& delta);
  /// Sum of the per-algorithm `solve/<ALGO>` meters.
  [[nodiscard]] double solve_seconds() const;
  [[nodiscard]] double get(const std::string& phase) const;
};

/// Writes core.solve_share.<algo> and core.phase_share.<phase> from a
/// phase-meter delta (shares of all `solve/*` time).
void set_phase_shares(const PhaseSnapshot& delta, MetricSet& out);

/// Process-wide production defaults, set before anything is timed, so no
/// measurement rides on a stray A/B switch left on by other code.
void set_production_defaults();

RunResult run_paper_offline(const Options& opts);
RunResult run_exact_offline(const Options& opts);
RunResult run_serve_open(const Options& opts);
RunResult run_shard_open(const Options& opts);

}  // namespace perfbench
