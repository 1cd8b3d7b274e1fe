// Exhaustive verification on small topologies: enumerate EVERY interface
// preference matrix Pi for n flows x m interfaces (n <= 3, m <= 2, unit
// weights) and check miDRR's long-run allocation against the reference
// max-min solver.  Unlike the randomized property tests this leaves no
// corner of the small-instance space unexplored.
//
// Links run with 10% service-time jitter: perfectly deterministic service
// phase-locks the service-flag dynamics in ways no physical link would
// (DESIGN.md section 8).  Even jittered, instances where a multi-homed flow
// needs only a small fractional top-up from a shared interface settle
// slightly above it (the flag's minimum-service-share floor), so the
// per-flow tolerance here is 16%; the aggregate throughput check is exact.
//
// Also sweeps the weighted variants of the 2x2 instances and verifies the
// solver against hand-computable closed forms.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "fairness/maxmin.hpp"

namespace midrr {
namespace {

struct SmallCase {
  std::size_t flows;
  std::size_t ifaces;
  unsigned mask;  // bit (i*m + j) set => flow i willing on iface j
};

std::vector<SmallCase> all_cases(std::size_t n, std::size_t m) {
  std::vector<SmallCase> cases;
  const unsigned bits = static_cast<unsigned>(n * m);
  for (unsigned mask = 0; mask < (1u << bits); ++mask) {
    cases.push_back({n, m, mask});
  }
  return cases;
}

class ExhaustiveSmallTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExhaustiveSmallTest, MiDrrMatchesSolverOnEveryPiMatrix) {
  const auto n = static_cast<std::size_t>(std::get<0>(GetParam()));
  const auto m = static_cast<std::size_t>(std::get<1>(GetParam()));
  // Distinct capacities so interface identity matters.
  std::vector<double> caps;
  for (std::size_t j = 0; j < m; ++j) caps.push_back(mbps(2.0 + 3.0 * static_cast<double>(j)));

  std::size_t checked = 0;
  for (const SmallCase& c : all_cases(n, m)) {
    fair::MaxMinInput input;
    input.capacities_bps = caps;
    Scenario sc;
    for (std::size_t j = 0; j < m; ++j) {
      sc.interface("if" + std::to_string(j), RateProfile(caps[j]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<bool> row(m);
      std::vector<std::string> willing;
      for (std::size_t j = 0; j < m; ++j) {
        row[j] = (c.mask >> (i * m + j)) & 1u;
        if (row[j]) willing.push_back("if" + std::to_string(j));
      }
      input.weights.push_back(1.0);
      input.willing.push_back(row);
      sc.backlogged_flow(std::string("f").append(std::to_string(i)), 1.0,
                         willing);
    }

    const auto reference = fair::solve_max_min(input);
    RunnerOptions opt;
    opt.link_jitter = 0.10;
    ScenarioRunner runner(sc, Policy::kMiDrr, opt);
    const SimTime dur = 20 * kSecond;
    const auto result = runner.run(dur);
    double cap_total = 0.0;
    for (double v : caps) cap_total += v;
    double rate_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double rate =
          result.flows[i].mean_rate_mbps(8 * kSecond, dur) * 1e6;
      rate_total += rate;
      const double tol =
          std::max(0.16 * reference.rates_bps[i], 0.015 * cap_total);
      ASSERT_NEAR(rate, reference.rates_bps[i], tol)
          << "flow " << i << " mask=" << c.mask << " (" << n << "x" << m
          << ")";
    }
    // Work conservation is exact: max-min is Pareto efficient, so the
    // totals must agree tightly even where individual flows drift.
    ASSERT_NEAR(rate_total, reference.total_rate_bps(),
                0.02 * (reference.total_rate_bps() + 1.0))
        << "mask=" << c.mask;
    ++checked;
  }
  // 2^(n*m) matrices, all checked.
  EXPECT_EQ(checked, 1u << (n * m));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExhaustiveSmallTest,
    ::testing::Values(std::make_tuple(1, 2), std::make_tuple(2, 1),
                      std::make_tuple(2, 2), std::make_tuple(3, 1),
                      std::make_tuple(3, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      return std::to_string(std::get<0>(param_info.param)) + "flows_" +
             std::to_string(std::get<1>(param_info.param)) + "ifaces";
    });


class ExhaustiveOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExhaustiveOracleTest, OracleMatchesSolverOnEveryPiMatrix) {
  // Same exhaustive sweep, but for the global-knowledge oracle: it has no
  // one-bit limitation, so the tolerance is tight on every instance.
  const auto n = static_cast<std::size_t>(std::get<0>(GetParam()));
  const auto m = static_cast<std::size_t>(std::get<1>(GetParam()));
  std::vector<double> caps;
  for (std::size_t j = 0; j < m; ++j) {
    caps.push_back(mbps(2.0 + 3.0 * static_cast<double>(j)));
  }
  for (const SmallCase& c : all_cases(n, m)) {
    fair::MaxMinInput input;
    input.capacities_bps = caps;
    Scenario sc;
    for (std::size_t j = 0; j < m; ++j) {
      sc.interface("if" + std::to_string(j), RateProfile(caps[j]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<bool> row(m);
      std::vector<std::string> willing;
      for (std::size_t j = 0; j < m; ++j) {
        row[j] = (c.mask >> (i * m + j)) & 1u;
        if (row[j]) willing.push_back("if" + std::to_string(j));
      }
      input.weights.push_back(1.0);
      input.willing.push_back(row);
      sc.backlogged_flow(std::string("f").append(std::to_string(i)), 1.0,
                         willing);
    }
    const auto reference = fair::solve_max_min(input);
    ScenarioRunner runner(sc, Policy::kOracle);
    const SimTime dur = 15 * kSecond;
    const auto result = runner.run(dur);
    double cap_total = 0.0;
    for (double v : caps) cap_total += v;
    for (std::size_t i = 0; i < n; ++i) {
      const double rate =
          result.flows[i].mean_rate_mbps(6 * kSecond, dur) * 1e6;
      ASSERT_NEAR(rate, reference.rates_bps[i],
                  std::max(0.06 * reference.rates_bps[i], 0.015 * cap_total))
          << "flow " << i << " mask=" << c.mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExhaustiveOracleTest,
    ::testing::Values(std::make_tuple(2, 2), std::make_tuple(3, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      return std::to_string(std::get<0>(param_info.param)) + "flows_" +
             std::to_string(std::get<1>(param_info.param)) + "ifaces";
    });

TEST(ExhaustiveWeighted, TwoByTwoWeightSweep) {
  // The full-willingness 2x2 instance under a weight sweep: closed form is
  // piecewise -- proportional shares until the heavy flow saturates what it
  // can reach, then the leftover spills.
  for (const double w : {1.0, 1.5, 2.0, 3.0, 5.0, 8.0}) {
    fair::MaxMinInput input;
    input.capacities_bps = {mbps(2), mbps(4)};
    input.weights = {w, 1.0};
    input.willing = {{true, true}, {true, true}};
    const auto solved = fair::solve_max_min(input);
    // Both flows willing everywhere: pure weighted split of 6 Mb/s.
    EXPECT_NEAR(solved.rates_bps[0], mbps(6) * w / (w + 1.0), 1e3) << w;
    EXPECT_NEAR(solved.rates_bps[1], mbps(6) * 1.0 / (w + 1.0), 1e3) << w;
  }
  for (const double w : {1.0, 2.0, 4.0}) {
    // Restricted heavy flow: a (weight w) only on if1 (2 Mb/s), b on both.
    fair::MaxMinInput input;
    input.capacities_bps = {mbps(2), mbps(4)};
    input.weights = {w, 1.0};
    input.willing = {{true, false}, {true, true}};
    const auto solved = fair::solve_max_min(input);
    // a's share of if1 under weighted sharing with b is w/(w+1)*2 at most,
    // but b prefers if2 whenever its level there is higher; with if2 = 4
    // alone, b's level 4 >= a's cap 2 always, so a takes all of if1.
    EXPECT_NEAR(solved.rates_bps[0], mbps(2), 1e4) << w;
    EXPECT_NEAR(solved.rates_bps[1], mbps(4), 1e4) << w;
  }
}

TEST(ExhaustiveWeighted, ThreeFlowLineTopologyClosedForm) {
  // f0 -- if0 -- f1 -- if1 -- f2 with capacities c0 <= c1: classic chain.
  // f1 balances across both; levels: f0 shares if0, f2 shares if1.
  fair::MaxMinInput input;
  input.capacities_bps = {mbps(2), mbps(10)};
  input.weights = {1.0, 1.0, 1.0};
  input.willing = {{true, false}, {true, true}, {false, true}};
  const auto solved = fair::solve_max_min(input);
  // f1 and f2 split if1's 10 while f1 ignores tiny if0? Max-min: f0's best
  // is if0 shared or alone. Level math: f1 gets 5 on if1; f0 gets all of
  // if0 = 2 (f1 unwilling to waste its higher share).
  EXPECT_NEAR(solved.rates_bps[0], mbps(2), 1e4);
  EXPECT_NEAR(solved.rates_bps[1], mbps(5), 1e4);
  EXPECT_NEAR(solved.rates_bps[2], mbps(5), 1e4);
}

}  // namespace
}  // namespace midrr
