#include "stats/fits.h"

#include <cmath>

#include "stats/minimize.h"

namespace daspos {

namespace {

constexpr double kSqrtTwoPi = 2.5066282746310002;
constexpr double kHuge = 1e12;

/// Poisson negative log likelihood for one bin (constant terms dropped).
inline double BinNll(double expected, double observed) {
  if (expected <= 1e-12) expected = 1e-12;
  return expected - observed * std::log(expected);
}

}  // namespace

Result<PeakFit> FitGaussianPeak(const Histo1D& histogram, double mean_guess,
                                double sigma_guess) {
  if (histogram.Integral() <= 0.0) {
    return Status::InvalidArgument("cannot fit an empty histogram");
  }
  const Axis& axis = histogram.axis();
  const double width = axis.width();
  const double center = 0.5 * (axis.lo() + axis.hi());

  // Parameters: amplitude, mean, sigma, b0 (per-bin), b1 (per-bin per unit x).
  auto nll = [&](const std::vector<double>& p) {
    double amplitude = p[0];
    double mean = p[1];
    double sigma = p[2];
    double b0 = p[3];
    double b1 = p[4];
    // Physical region: a "peak" wider than a third of the fit window is
    // indistinguishable from background and is excluded so the linear
    // component, not the Gaussian, absorbs flat spectra.
    if (amplitude < 0.0 || sigma <= width * 0.05 ||
        sigma > (axis.hi() - axis.lo()) / 3.0 ||
        mean < axis.lo() || mean > axis.hi()) {
      return kHuge;
    }
    double total = 0.0;
    for (int i = 0; i < axis.nbins(); ++i) {
      double x = axis.BinCenter(i);
      double gauss = amplitude * width / (sigma * kSqrtTwoPi) *
                     std::exp(-0.5 * (x - mean) * (x - mean) / (sigma * sigma));
      double background = b0 + b1 * (x - center);
      if (background < 0.0) background = 0.0;
      total += BinNll(gauss + background, histogram.BinContent(i));
    }
    return total;
  };

  double integral = histogram.Integral();
  MinimizeResult fit =
      Minimize(nll, {0.8 * integral, mean_guess, sigma_guess,
                     0.2 * integral / axis.nbins(), 0.0});
  PeakFit out;
  out.amplitude = fit.parameters[0];
  out.mean = fit.parameters[1];
  out.sigma = std::fabs(fit.parameters[2]);
  out.background_per_bin = fit.parameters[3];
  out.background_slope = fit.parameters[4];
  out.nll = fit.value;
  out.converged = fit.converged && fit.value < kHuge;
  return out;
}

}  // namespace daspos
