/// Regression corpus: serialized instances under tests/corpus/ with golden
/// costs. Any change to the cost model, the search, or the serializers that
/// shifts these numbers is a behavioural change and must be deliberate.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/backtracking.hpp"
#include "core/exact.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

struct Golden {
  std::string name;
  double mbbe_cost;         // < 0 ⇒ MBBE expected to fail
  double exact_cost;        // < 0 ⇒ exact expected to refuse/fail
};

// Without this, gtest prints the parameter as a raw byte dump that starts
// with the string's heap pointer, so every process gets a different test
// name from discovery and name-based test selection cannot match it.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << '"' << g.name << '"';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class Corpus : public ::testing::TestWithParam<Golden> {};

TEST_P(Corpus, GoldenCostsHold) {
  const Golden& g = GetParam();
  const std::string dir = std::string(DAGSFC_CORPUS_DIR) + "/";
  net::Network network =
      net::network_from_text(slurp(dir + g.name + ".net.txt"));
  const sfc::SfcFile file =
      sfc::sfc_from_text(slurp(dir + g.name + ".sfc.txt"));
  ASSERT_TRUE(file.flow.has_value());
  file.dag.validate(network.catalog());

  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &file.dag;
  problem.flow = core::Flow{file.flow->source, file.flow->destination,
                            file.flow->rate, file.flow->size};
  const core::ModelIndex index(problem);
  const core::Evaluator evaluator(index);
  Rng rng(1);

  const core::MbbeEmbedder mbbe;
  const auto rm = mbbe.solve_fresh(index, rng);
  if (g.mbbe_cost < 0) {
    EXPECT_FALSE(rm.ok());
  } else {
    ASSERT_TRUE(rm.ok()) << rm.failure_reason;
    EXPECT_NEAR(rm.cost, g.mbbe_cost, 1e-2);
    EXPECT_TRUE(evaluator.validate(*rm.solution).empty());
  }

  const core::ExactEmbedder exact(core::ExactOptions{50'000'000});
  const auto re = exact.solve_fresh(index, rng);
  if (g.exact_cost < 0) {
    EXPECT_FALSE(re.ok());
  } else {
    ASSERT_TRUE(re.ok()) << re.failure_reason;
    EXPECT_NEAR(re.cost, g.exact_cost, 1e-2);
    if (rm.ok()) EXPECT_GE(rm.cost + 1e-9, re.cost);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, Corpus,
    ::testing::Values(
        Golden{"ring12", 451.16, 412.49},
        Golden{"leafspine14", 632.40, 617.16},
        Golden{"waxman20", 523.88, 523.88},
        // Exact refuses: its uncapacitated optimum reuses the cheap f1
        // instance beyond its capacity; MBBE packs feasibly at 82.
        Golden{"tightline5", 82.0, -1.0}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dagsfc
