#include "stats/limits.h"

#include <cmath>

namespace daspos {

namespace {

/// Log Poisson pmf without the constant n! term.
double LogPoisson(double n, double mean) {
  if (mean <= 1e-12) mean = 1e-12;
  return n * std::log(mean) - mean;
}

}  // namespace

Result<double> UpperLimit(const CountingExperiment& experiment,
                          double credibility) {
  if (experiment.signal_per_mu <= 0.0) {
    return Status::InvalidArgument("signal_per_mu must be positive");
  }
  if (credibility <= 0.0 || credibility >= 1.0) {
    return Status::InvalidArgument("credibility must be in (0,1)");
  }
  if (experiment.observed < 0.0 || experiment.background < 0.0) {
    return Status::InvalidArgument("counts must be non-negative");
  }

  // Posterior(mu) ~ Poisson(observed | background + mu * signal_per_mu).
  // Integrate numerically on an adaptive grid: mu up to the point where the
  // posterior is negligible.
  const double n = experiment.observed;
  const double b = experiment.background;
  const double s = experiment.signal_per_mu;

  // A safe upper integration bound: background-free expectation plus a wide
  // Poisson tail.
  double mu_max = (n + 10.0 * std::sqrt(n + 1.0) + 10.0) / s + 10.0 / s;
  const int steps = 20000;
  const double dmu = mu_max / steps;

  // Normalize via log-sum against the mode to avoid underflow.
  double log_mode = LogPoisson(n, b + 0.0 * s);
  for (int i = 0; i <= steps; ++i) {
    double mu = i * dmu;
    double lp = LogPoisson(n, b + mu * s);
    if (lp > log_mode) log_mode = lp;
  }
  double total = 0.0;
  for (int i = 0; i <= steps; ++i) {
    double mu = i * dmu;
    total += std::exp(LogPoisson(n, b + mu * s) - log_mode);
  }
  double target = credibility * total;
  double cumulative = 0.0;
  for (int i = 0; i <= steps; ++i) {
    double mu = i * dmu;
    cumulative += std::exp(LogPoisson(n, b + mu * s) - log_mode);
    if (cumulative >= target) return mu;
  }
  return mu_max;
}

Result<double> ExpectedLimit(const CountingExperiment& experiment,
                             double credibility) {
  CountingExperiment expected = experiment;
  expected.observed = experiment.background;
  return UpperLimit(expected, credibility);
}

}  // namespace daspos
