// PDG Monte-Carlo particle numbering: the ids, masses, and classification
// helpers the generator, simulation, and analysis layers share.
#ifndef DASPOS_EVENT_PDG_H_
#define DASPOS_EVENT_PDG_H_

#include <cstdint>

namespace daspos {
namespace pdg {

// Leptons.
inline constexpr int kElectron = 11;
inline constexpr int kNuE = 12;
inline constexpr int kMuon = 13;
inline constexpr int kNuMu = 14;
inline constexpr int kTau = 15;
inline constexpr int kNuTau = 16;
// Quarks and gluon.
inline constexpr int kDown = 1;
inline constexpr int kUp = 2;
inline constexpr int kStrange = 3;
inline constexpr int kCharm = 4;
inline constexpr int kBottom = 5;
inline constexpr int kTop = 6;
inline constexpr int kGluon = 21;
// Bosons.
inline constexpr int kPhoton = 22;
inline constexpr int kZ = 23;
inline constexpr int kWPlus = 24;
inline constexpr int kHiggs = 25;
/// A generic new heavy neutral resonance — the "new physics model" used by
/// the RECAST reinterpretation use case (§2.3).
inline constexpr int kZPrime = 32;
// Hadrons used by the toy hadronization and the D-lifetime master class.
inline constexpr int kPiPlus = 211;
inline constexpr int kPiZero = 111;
inline constexpr int kKPlus = 321;
inline constexpr int kKMinus = -321;
inline constexpr int kD0 = 421;
inline constexpr int kDPlus = 411;
inline constexpr int kProton = 2212;
inline constexpr int kNeutron = 2112;

/// Mass in GeV for the ids above (0 for unknown ids).
double Mass(int pdg_id);

/// Electric charge in units of e (handles antiparticles by sign).
double Charge(int pdg_id);

bool IsNeutrino(int pdg_id);
bool IsHadron(int pdg_id);
/// Leaves no detector signal (neutrinos).
bool IsInvisible(int pdg_id);

}  // namespace pdg
}  // namespace daspos

#endif  // DASPOS_EVENT_PDG_H_
