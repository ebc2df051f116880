#include "core/fundamental_diagram.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace cavenet::ca {
namespace {

TEST(DeterministicFlowTest, ClosedForm) {
  EXPECT_DOUBLE_EQ(deterministic_flow(0.1, 5), 0.5);
  EXPECT_DOUBLE_EQ(deterministic_flow(0.5, 5), 0.5);
  EXPECT_DOUBLE_EQ(deterministic_flow(0.9, 5), 0.1);
  // Peak at rho* = 1/(v_max+1).
  EXPECT_DOUBLE_EQ(deterministic_flow(1.0 / 6.0, 5), 5.0 / 6.0);
}

TEST(DensityLadderTest, SpansRequestedRange) {
  const auto ladder = density_ladder(400, 0.5, 10);
  ASSERT_EQ(ladder.size(), 10u);
  EXPECT_DOUBLE_EQ(ladder.front(), 1.0 / 400.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 0.5);
  EXPECT_TRUE(std::is_sorted(ladder.begin(), ladder.end()));
}

TEST(FundamentalDiagramTest, DeterministicMatchesTheoryAcrossDensities) {
  FundamentalDiagramOptions options;
  options.params.lane_length = 400;
  options.params.slowdown_p = 0.0;
  options.densities = {0.05, 1.0 / 6.0, 0.3, 0.5};
  options.iterations = 300;
  options.trials = 3;
  options.warmup = 400;
  const auto points = fundamental_diagram(options);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_NEAR(p.flow, deterministic_flow(p.density, 5), 0.03)
        << "rho = " << p.density;
  }
}

TEST(FundamentalDiagramTest, StochasticFlowIsBelowDeterministic) {
  FundamentalDiagramOptions options;
  options.params.lane_length = 200;
  options.densities = {0.1, 0.3, 0.5};
  options.iterations = 200;
  options.trials = 5;
  options.warmup = 100;

  options.params.slowdown_p = 0.0;
  const auto det = fundamental_diagram(options);
  options.params.slowdown_p = 0.5;
  const auto sto = fundamental_diagram(options);

  for (std::size_t i = 0; i < det.size(); ++i) {
    EXPECT_LT(sto[i].flow, det[i].flow) << "rho = " << det[i].density;
  }
}

TEST(FundamentalDiagramTest, ReproducibleForSameSeed) {
  FundamentalDiagramOptions options;
  options.params.lane_length = 100;
  options.params.slowdown_p = 0.4;
  options.densities = {0.2, 0.4};
  options.iterations = 100;
  options.trials = 4;
  options.seed = 77;
  const auto a = fundamental_diagram(options);
  const auto b = fundamental_diagram(options);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].flow, b[i].flow);
    EXPECT_DOUBLE_EQ(a[i].flow_stddev, b[i].flow_stddev);
  }
}

TEST(FundamentalDiagramTest, TrialSpreadIsReported) {
  FundamentalDiagramOptions options;
  options.params.lane_length = 100;
  options.params.slowdown_p = 0.5;
  options.densities = {0.3};
  options.iterations = 50;
  options.trials = 10;
  const auto points = fundamental_diagram(options);
  EXPECT_GT(points[0].flow_stddev, 0.0);
}

TEST(FundamentalDiagramTest, MeanVelocityConsistentWithFlow) {
  FundamentalDiagramOptions options;
  options.params.lane_length = 200;
  options.params.slowdown_p = 0.0;
  options.densities = {0.25};
  options.iterations = 200;
  options.trials = 2;
  options.warmup = 200;
  const auto points = fundamental_diagram(options);
  // J = rho * v_bar: densities are realized exactly at multiples of 1/L.
  EXPECT_NEAR(points[0].flow, points[0].density * points[0].mean_velocity,
              1e-9);
}

TEST(FundamentalDiagramTest, VMaxOneMatchesTheExactStochasticFlow) {
  // With v_max = 1 the parallel-update NaS model is exactly solvable
  // (Schadschneider & Schreckenberg, J. Phys. A 26 L679, 1993):
  //   J = (1 - sqrt(1 - 4 (1 - p) rho (1 - rho))) / 2.
  // Unlike deterministic_flow this checks the slowdown draw itself. The
  // 0.005 tolerance was fixed before the first run. About 1 s at jobs 1.
  FundamentalDiagramOptions options;
  options.params.lane_length = 1000;
  options.params.v_max = 1;
  options.densities = density_ladder(1000, 0.9, 10);
  options.iterations = 2000;
  options.trials = 4;
  options.warmup = 1000;
  options.seed = 7;
  for (const double p : {0.25, 0.5, 0.75}) {
    options.params.slowdown_p = p;
    for (const FundamentalDiagramPoint& point : fundamental_diagram(options)) {
      const double rho = point.density;
      const double exact =
          0.5 * (1.0 - std::sqrt(1.0 - 4.0 * (1.0 - p) * rho * (1.0 - rho)));
      EXPECT_NEAR(point.flow, exact, 0.005) << "p = " << p << ", rho = " << rho;
    }
  }
}

}  // namespace
}  // namespace cavenet::ca
