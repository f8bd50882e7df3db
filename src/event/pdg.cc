#include "event/pdg.h"

#include <cmath>
#include <cstdlib>

namespace daspos {
namespace pdg {

double Mass(int pdg_id) {
  switch (std::abs(pdg_id)) {
    case kElectron:
      return 0.000511;
    case kMuon:
      return 0.10566;
    case kTau:
      return 1.77686;
    case kNuE:
    case kNuMu:
    case kNuTau:
      return 0.0;
    case kDown:
      return 0.0047;
    case kUp:
      return 0.0022;
    case kStrange:
      return 0.095;
    case kCharm:
      return 1.27;
    case kBottom:
      return 4.18;
    case kTop:
      return 172.76;
    case kGluon:
    case kPhoton:
      return 0.0;
    case kZ:
      return 91.1876;
    case kWPlus:
      return 80.379;
    case kHiggs:
      return 125.25;
    case kZPrime:
      return 0.0;  // model-dependent; set per generated event
    case kPiPlus:
      return 0.13957;
    case kPiZero:
      return 0.13498;
    case kKPlus:
      return 0.49368;
    case kD0:
      return 1.86484;
    case kDPlus:
      return 1.86966;
    case kProton:
      return 0.93827;
    case kNeutron:
      return 0.93957;
    default:
      return 0.0;
  }
}

double Charge(int pdg_id) {
  int a = std::abs(pdg_id);
  double q = 0.0;
  switch (a) {
    case kElectron:
    case kMuon:
    case kTau:
      q = -1.0;
      break;
    case kDown:
    case kStrange:
    case kBottom:
      q = -1.0 / 3.0;
      break;
    case kUp:
    case kCharm:
    case kTop:
      q = 2.0 / 3.0;
      break;
    case kWPlus:
    case kPiPlus:
    case kKPlus:
    case kDPlus:
    case kProton:
      q = 1.0;
      break;
    default:
      q = 0.0;
  }
  return pdg_id >= 0 ? q : -q;
}

bool IsNeutrino(int pdg_id) {
  int a = std::abs(pdg_id);
  return a == kNuE || a == kNuMu || a == kNuTau;
}

bool IsHadron(int pdg_id) {
  int a = std::abs(pdg_id);
  return a == kPiPlus || a == kPiZero || a == kKPlus || a == kD0 ||
         a == kDPlus || a == kProton || a == kNeutron;
}

bool IsInvisible(int pdg_id) { return IsNeutrino(pdg_id); }

}  // namespace pdg
}  // namespace daspos
