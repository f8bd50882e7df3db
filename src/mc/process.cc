#include "mc/process.h"

#include <cassert>

namespace daspos {

const std::vector<ProcessInfo>& AllProcesses() {
  static const std::vector<ProcessInfo> kCatalog = {
      {Process::kMinimumBias, "minbias", 7.8e10,
       "soft inelastic pp collision (pileup substrate)"},
      {Process::kZToLL, "z_ll", 1950.0,
       "Drell-Yan Z -> l+l- (one lepton flavour)"},
      {Process::kWToLNu, "w_lnu", 20400.0,
       "W -> l nu (one lepton flavour, both charges)"},
      {Process::kHiggsToGammaGamma, "h_gammagamma", 0.11,
       "gluon-fusion Higgs with H -> gamma gamma"},
      {Process::kQcdDijet, "qcd_dijet", 8.0e8,
       "QCD 2->2 with fragmentation into jets (pT > 20 GeV)"},
      {Process::kDMeson, "d_meson", 1.0e9,
       "charm production with D0 -> K- pi+ (lifetime master class)"},
      {Process::kZPrimeToLL, "zprime_ll", 0.01,
       "hypothetical heavy Z' -> l+l- (reinterpretation target)"},
  };
  return kCatalog;
}

const ProcessInfo& GetProcessInfo(Process process) {
  for (const ProcessInfo& info : AllProcesses()) {
    if (info.id == process) return info;
  }
  assert(false && "unknown process id");
  return AllProcesses().front();
}

Result<Process> ProcessFromName(std::string_view name) {
  for (const ProcessInfo& info : AllProcesses()) {
    if (info.name == name) return info.id;
  }
  return Status::InvalidArgument("unknown process '" + std::string(name) +
                                 "'");
}

Result<Process> ProcessFromId(int64_t id) {
  for (const ProcessInfo& info : AllProcesses()) {
    if (static_cast<int64_t>(info.id) == id) return info.id;
  }
  return Status::InvalidArgument("unknown process id " + std::to_string(id));
}

}  // namespace daspos
