// Tests for the statistics library: minimizer, the peak fit, and counting
// limits.
#include <gtest/gtest.h>

#include <cmath>

#include "hist/histo1d.h"
#include "stats/fits.h"
#include "stats/limits.h"
#include "stats/minimize.h"
#include "support/rng.h"

namespace daspos {
namespace {

// ---------------------------------------------------------------- Minimize

TEST(MinimizeTest, Quadratic1D) {
  auto fn = [](const std::vector<double>& p) {
    return (p[0] - 3.0) * (p[0] - 3.0) + 1.0;
  };
  MinimizeResult result = Minimize(fn, {0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.parameters[0], 3.0, 1e-4);
  EXPECT_NEAR(result.value, 1.0, 1e-6);
}

TEST(MinimizeTest, Rosenbrock2D) {
  auto fn = [](const std::vector<double>& p) {
    double a = 1.0 - p[0];
    double b = p[1] - p[0] * p[0];
    return a * a + 100.0 * b * b;
  };
  MinimizeOptions options;
  options.max_iterations = 10000;
  MinimizeResult result = Minimize(fn, {-1.0, 1.0}, options);
  EXPECT_NEAR(result.parameters[0], 1.0, 1e-3);
  EXPECT_NEAR(result.parameters[1], 1.0, 1e-3);
}

TEST(MinimizeTest, EmptyParametersTrivial) {
  auto fn = [](const std::vector<double>&) { return 7.0; };
  MinimizeResult result = Minimize(fn, {});
  EXPECT_TRUE(result.converged);
}

TEST(MinimizeTest, RespectsBarriers) {
  // Minimum of x^2 but forbidden below 2: should settle at the barrier.
  auto fn = [](const std::vector<double>& p) {
    if (p[0] < 2.0) return 1e12;
    return p[0] * p[0];
  };
  MinimizeResult result = Minimize(fn, {5.0});
  EXPECT_NEAR(result.parameters[0], 2.0, 0.05);
}

// -------------------------------------------------------------------- Fits

TEST(FitsTest, GaussianPeakRecovered) {
  Histo1D histogram("/h", 60, 60.0, 120.0);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) histogram.Fill(rng.Gauss(91.2, 2.8));
  for (int i = 0; i < 2000; ++i) histogram.Fill(rng.Uniform(60.0, 120.0));

  auto fit = FitGaussianPeak(histogram, 90.0, 3.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  EXPECT_NEAR(fit->mean, 91.2, 0.2);
  EXPECT_NEAR(fit->sigma, 2.8, 0.3);
  EXPECT_NEAR(fit->amplitude, 5000.0, 400.0);
  EXPECT_NEAR(fit->background_per_bin, 2000.0 / 60.0, 8.0);
}

TEST(FitsTest, PeakFitOnPureBackgroundFindsNoNarrowPeak) {
  // On a flat spectrum a wide Gaussian and a linear background are
  // degenerate descriptions; what must NOT happen is a significant narrow
  // peak appearing from nothing.
  Histo1D histogram("/h", 40, 100.0, 180.0);
  Rng rng(2);
  for (int i = 0; i < 4000; ++i) histogram.Fill(rng.Uniform(100.0, 180.0));
  auto fit = FitGaussianPeak(histogram, 140.0, 5.0);
  ASSERT_TRUE(fit.ok());
  bool narrow_fake_peak = fit->amplitude > 500.0 && fit->sigma < 5.0;
  EXPECT_FALSE(narrow_fake_peak)
      << "amplitude " << fit->amplitude << ", sigma " << fit->sigma;
}

TEST(FitsTest, EmptyHistogramRejected) {
  Histo1D histogram("/h", 10, 0.0, 1.0);
  EXPECT_FALSE(FitGaussianPeak(histogram, 0.5, 0.1).ok());
}

// ------------------------------------------------------------------ Limits

TEST(LimitsTest, UpperLimitBasicProperties) {
  CountingExperiment experiment;
  experiment.observed = 3.0;
  experiment.background = 3.0;
  experiment.signal_per_mu = 10.0;
  auto limit = UpperLimit(experiment);
  ASSERT_TRUE(limit.ok());
  EXPECT_GT(*limit, 0.0);
  EXPECT_LT(*limit, 2.0);  // 10 signal events would be a glaring excess
}

TEST(LimitsTest, LimitScalesInverselyWithSignal) {
  CountingExperiment weak;
  weak.observed = 5.0;
  weak.background = 5.0;
  weak.signal_per_mu = 2.0;
  CountingExperiment strong = weak;
  strong.signal_per_mu = 20.0;
  auto weak_limit = UpperLimit(weak);
  auto strong_limit = UpperLimit(strong);
  ASSERT_TRUE(weak_limit.ok());
  ASSERT_TRUE(strong_limit.ok());
  EXPECT_GT(*weak_limit, 5.0 * *strong_limit);
}

TEST(LimitsTest, ExcessWeakensLimit) {
  CountingExperiment no_excess;
  no_excess.observed = 5.0;
  no_excess.background = 5.0;
  no_excess.signal_per_mu = 5.0;
  CountingExperiment excess = no_excess;
  excess.observed = 15.0;
  auto limit_no = UpperLimit(no_excess);
  auto limit_yes = UpperLimit(excess);
  ASSERT_TRUE(limit_no.ok());
  ASSERT_TRUE(limit_yes.ok());
  EXPECT_GT(*limit_yes, *limit_no);
}

TEST(LimitsTest, CredibilityMonotonic) {
  CountingExperiment experiment;
  experiment.observed = 4.0;
  experiment.background = 4.0;
  experiment.signal_per_mu = 3.0;
  auto l90 = UpperLimit(experiment, 0.90);
  auto l99 = UpperLimit(experiment, 0.99);
  ASSERT_TRUE(l90.ok());
  ASSERT_TRUE(l99.ok());
  EXPECT_LT(*l90, *l99);
}

TEST(LimitsTest, Validation) {
  CountingExperiment experiment;
  experiment.signal_per_mu = 0.0;
  EXPECT_FALSE(UpperLimit(experiment).ok());
  experiment.signal_per_mu = 1.0;
  EXPECT_FALSE(UpperLimit(experiment, 0.0).ok());
  EXPECT_FALSE(UpperLimit(experiment, 1.0).ok());
  experiment.observed = -1.0;
  EXPECT_FALSE(UpperLimit(experiment).ok());
}

TEST(LimitsTest, ExpectedLimitUsesBackgroundAsObservation) {
  CountingExperiment experiment;
  experiment.observed = 50.0;  // big excess
  experiment.background = 5.0;
  experiment.signal_per_mu = 5.0;
  auto observed = UpperLimit(experiment);
  auto expected = ExpectedLimit(experiment);
  ASSERT_TRUE(observed.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(*observed, *expected);
}

}  // namespace
}  // namespace daspos
