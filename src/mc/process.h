// Physics-process catalog for the toy Monte-Carlo generator. Cross sections
// are order-of-magnitude realistic for 13 TeV pp so that tier-size and
// skimming benchmarks show the paper's "small signal over huge background"
// structure; absolute values are not the point.
#ifndef DASPOS_MC_PROCESS_H_
#define DASPOS_MC_PROCESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"

namespace daspos {

/// Generator process identifiers (stored in GenEvent::process_id).
enum class Process : int {
  kMinimumBias = 0,
  kZToLL = 1,
  kWToLNu = 2,
  kHiggsToGammaGamma = 3,
  kQcdDijet = 4,
  kDMeson = 5,
  /// Hypothetical heavy dilepton resonance; the RECAST reinterpretation
  /// target ("generate events from new physics models", §2.3).
  kZPrimeToLL = 100,
};

/// Static metadata for one process.
struct ProcessInfo {
  Process id;
  std::string name;
  /// Production cross section in picobarns (toy values, realistic ordering).
  double cross_section_pb;
  std::string description;
};

/// Catalog lookup; fails an assert on unknown id.
const ProcessInfo& GetProcessInfo(Process process);

/// All catalogued processes.
const std::vector<ProcessInfo>& AllProcesses();

/// Catalog lookup by name ("z_ll"); InvalidArgument "unknown process '…'"
/// for a name the catalog does not have.
Result<Process> ProcessFromName(std::string_view name);

/// Catalog lookup by numeric id, as stored in configs; InvalidArgument for
/// an id the catalog does not have.
Result<Process> ProcessFromId(int64_t id);

}  // namespace daspos

#endif  // DASPOS_MC_PROCESS_H_
