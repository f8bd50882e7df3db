#include "hist/compare.h"

#include <cmath>

namespace daspos {

namespace {
Status CheckSameBinning(const Histo1D& a, const Histo1D& b) {
  if (!(a.axis() == b.axis())) {
    return Status::InvalidArgument("binning mismatch: '" + a.path() +
                                   "' vs '" + b.path() + "'");
  }
  return Status::OK();
}
}  // namespace

Result<Chi2Result> Chi2Test(const Histo1D& a, const Histo1D& b) {
  DASPOS_RETURN_IF_ERROR(CheckSameBinning(a, b));
  Chi2Result out;
  for (int i = 0; i < a.axis().nbins(); ++i) {
    double ea = a.BinError(i);
    double eb = b.BinError(i);
    double err2 = ea * ea + eb * eb;
    if (err2 <= 0.0) continue;
    double diff = a.BinContent(i) - b.BinContent(i);
    out.chi2 += diff * diff / err2;
    ++out.ndof;
  }
  return out;
}

Result<double> KolmogorovDistance(const Histo1D& a, const Histo1D& b) {
  DASPOS_RETURN_IF_ERROR(CheckSameBinning(a, b));
  double ta = a.Integral();
  double tb = b.Integral();
  if (ta == 0.0 || tb == 0.0) return ta == tb ? 0.0 : 1.0;
  double ca = 0.0;
  double cb = 0.0;
  double dmax = 0.0;
  for (int i = 0; i < a.axis().nbins(); ++i) {
    ca += a.BinContent(i) / ta;
    cb += b.BinContent(i) / tb;
    dmax = std::max(dmax, std::fabs(ca - cb));
  }
  return dmax;
}

Result<bool> CompatibleWithin(const Histo1D& a, const Histo1D& b,
                              double n_sigma, double abs_tol) {
  DASPOS_RETURN_IF_ERROR(CheckSameBinning(a, b));
  for (int i = 0; i < a.axis().nbins(); ++i) {
    double diff = std::fabs(a.BinContent(i) - b.BinContent(i));
    double ea = a.BinError(i);
    double eb = b.BinError(i);
    double err = std::sqrt(ea * ea + eb * eb);
    double allowed = err > 0.0 ? n_sigma * err : abs_tol;
    if (diff > allowed) return false;
  }
  return true;
}

}  // namespace daspos
