// Limit setting and significance for counting experiments — the statistical
// interpretation step of the RECAST reinterpretation use case (§2.3):
// "the results can be compared with those from collision data to constrain
// the new models in question."
#ifndef DASPOS_STATS_LIMITS_H_
#define DASPOS_STATS_LIMITS_H_

#include "support/result.h"

namespace daspos {

/// A single-bin counting experiment.
struct CountingExperiment {
  /// Observed events in the signal region.
  double observed = 0.0;
  /// Expected background.
  double background = 0.0;
  /// Expected signal events per unit signal strength (efficiency x
  /// acceptance x cross-section x luminosity at mu = 1).
  double signal_per_mu = 0.0;
};

/// Bayesian upper limit on the signal strength mu at the given credibility
/// (default 95%), flat prior in mu, Poisson likelihood. Background is taken
/// as known. Fails if signal_per_mu <= 0.
Result<double> UpperLimit(const CountingExperiment& experiment,
                          double credibility = 0.95);

/// Expected (median) upper limit when observing exactly the background.
Result<double> ExpectedLimit(const CountingExperiment& experiment,
                             double credibility = 0.95);

}  // namespace daspos

#endif  // DASPOS_STATS_LIMITS_H_
