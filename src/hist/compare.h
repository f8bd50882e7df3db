// Statistical comparison of histograms — the validation primitive of the
// RIVET-analog ("compare experimental observables with theoretical
// predictions", §2.3) and of re-execution validation in core/.
#ifndef DASPOS_HIST_COMPARE_H_
#define DASPOS_HIST_COMPARE_H_

#include "hist/histo1d.h"
#include "support/result.h"

namespace daspos {

/// Result of a chi-square shape comparison.
struct Chi2Result {
  double chi2 = 0.0;
  int ndof = 0;
  /// chi2 / ndof; 0 when ndof == 0.
  double reduced() const { return ndof > 0 ? chi2 / ndof : 0.0; }
};

/// Bin-by-bin chi-square between two histograms with identical binning,
/// using the quadrature sum of both bin errors. Bins where both errors
/// vanish are skipped (they carry no information).
Result<Chi2Result> Chi2Test(const Histo1D& a, const Histo1D& b);

/// Kolmogorov-Smirnov distance between the normalized cumulative
/// distributions of two histograms with identical binning. Two empty
/// histograms are the same distribution (distance 0); an empty one against
/// a filled one is as far apart as KS can tell (distance 1).
Result<double> KolmogorovDistance(const Histo1D& a, const Histo1D& b);

/// True if every bin agrees within `n_sigma` combined errors; histograms with
/// no error information compare by absolute tolerance `abs_tol`.
Result<bool> CompatibleWithin(const Histo1D& a, const Histo1D& b,
                              double n_sigma, double abs_tol = 1e-9);

}  // namespace daspos

#endif  // DASPOS_HIST_COMPARE_H_
