// Binned likelihood fit for the analyses in this repository: a Gaussian
// peak over linear background (Z and Higgs mass measurements).
#ifndef DASPOS_STATS_FITS_H_
#define DASPOS_STATS_FITS_H_

#include "hist/histo1d.h"
#include "support/result.h"

namespace daspos {

/// Result of the peak fit.
struct PeakFit {
  double amplitude = 0.0;  // events in the peak
  double mean = 0.0;
  double sigma = 0.0;
  double background_per_bin = 0.0;  // flat component at the window center
  double background_slope = 0.0;
  double nll = 0.0;
  bool converged = false;
};

/// Fits Gaussian + linear background to a histogram via binned Poisson
/// maximum likelihood. `mean_guess`/`sigma_guess` seed the fit.
Result<PeakFit> FitGaussianPeak(const Histo1D& histogram, double mean_guess,
                                double sigma_guess);

}  // namespace daspos

#endif  // DASPOS_STATS_FITS_H_
