// Relativistic four-vector (px, py, pz, E) in GeV, with the collider
// kinematic accessors every analysis layer uses (pt, eta, phi, mass, dR).
#ifndef DASPOS_EVENT_FOURVECTOR_H_
#define DASPOS_EVENT_FOURVECTOR_H_

#include <cmath>

namespace daspos {

class FourVector {
 public:
  FourVector() = default;
  FourVector(double px, double py, double pz, double e)
      : px_(px), py_(py), pz_(pz), e_(e) {}

  /// Builds from transverse momentum, pseudorapidity, azimuth, and mass —
  /// the coordinates analyses are written in.
  static FourVector FromPtEtaPhiM(double pt, double eta, double phi,
                                  double mass);

  double px() const { return px_; }
  double py() const { return py_; }
  double pz() const { return pz_; }
  double e() const { return e_; }

  /// Transverse momentum.
  double Pt() const { return std::sqrt(px_ * px_ + py_ * py_); }
  /// Magnitude of the 3-momentum.
  double P() const { return std::sqrt(px_ * px_ + py_ * py_ + pz_ * pz_); }
  /// Azimuthal angle in (-pi, pi].
  double Phi() const { return std::atan2(py_, px_); }
  /// Pseudorapidity; large values are clamped for straight-line particles.
  double Eta() const;
  /// Invariant mass; negative m^2 (from rounding) clamps to 0.
  double Mass() const;
  /// Transverse energy E * sin(theta).
  double Et() const;

  FourVector operator+(const FourVector& o) const {
    return FourVector(px_ + o.px_, py_ + o.py_, pz_ + o.pz_, e_ + o.e_);
  }
  FourVector& operator+=(const FourVector& o) {
    px_ += o.px_;
    py_ += o.py_;
    pz_ += o.pz_;
    e_ += o.e_;
    return *this;
  }
  FourVector operator*(double k) const {
    return FourVector(k * px_, k * py_, k * pz_, k * e_);
  }

  bool operator==(const FourVector&) const = default;

 private:
  double px_ = 0.0;
  double py_ = 0.0;
  double pz_ = 0.0;
  double e_ = 0.0;
};

/// Azimuthal separation wrapped into [0, pi].
double DeltaPhi(const FourVector& a, const FourVector& b);

/// Separation in the eta-phi plane.
double DeltaR(const FourVector& a, const FourVector& b);

/// Invariant mass of a pair.
double InvariantMass(const FourVector& a, const FourVector& b);

}  // namespace daspos

#endif  // DASPOS_EVENT_FOURVECTOR_H_
