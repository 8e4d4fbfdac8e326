#pragma once
/// \file exact.hpp
/// Exact reference solver for the optimal DAG-SFC embedding problem,
/// valid on instances whose capacities are non-binding.
///
/// Observation: objective (1) is separable per layer. VNF rental is a sum
/// over placed slots; link cost sums, per inter-layer group, the distinct
/// links of that group (multicast) and, per inner-layer path, the links of
/// the path — and the multicast discount never crosses layers. So a dynamic
/// program over "end node of layer l" is exact:
///
///   dp[l][v] = cheapest embedding of layers 1..l ending at node v,
///
/// where a transition prices a layer as Σ VNF rents + minimum Steiner tree
/// (terminals: previous end node ∪ assigned VNF nodes — the optimal
/// multicast) + Σ shortest-path costs VNF→merger. VNF allocations inside a
/// layer are enumerated exhaustively, which bounds this solver to small
/// instances; run() refuses (with a clear reason) when the estimated work
/// exceeds the budget.
///
/// Capacities: the DP ignores constraints (2)–(3) while optimizing (they
/// couple layers and would break separability); the reconstructed solution
/// is checked afterwards and the result is flagged infeasible if any
/// capacity binds. Tests use this solver as the optimality oracle for
/// BBE/MBBE on generously provisioned instances, where the check always
/// passes and the DP value is the true optimum, and as the reference that
/// core::LayeredEmbedder — the library's exact engine — must match bitwise.
/// It lives in the test-only dagsfc_test_oracles library; no production
/// code can select it.

#include "core/embedder.hpp"

namespace dagsfc::core {

struct ExactOptions {
  /// Upper bound on (transitions × Steiner invocations) before refusing.
  std::size_t max_work = 5'000'000;
};

class ExactEmbedder final : public Embedder {
 public:
  explicit ExactEmbedder(const ExactOptions& opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "EXACT"; }

 protected:
  [[nodiscard]] SolveResult do_solve(const ModelIndex& index,
                                     const net::CapacityLedger& ledger,
                                     Rng& rng, TraceSink* trace,
                                     graph::SearchWorkspace* workspace)
      const override;

 private:
  ExactOptions opts_;
};

}  // namespace dagsfc::core
