// The closed RECAST back end: holds the preserved searches and runs the
// full experiment chain (generation of the requested model -> detector
// simulation -> reconstruction -> detector-level selection -> limit).
// "None of this code base [is] exposed to the outside world, leaving the
// experiment in complete control" (§2.4) — callers see RecastResult only.
#ifndef DASPOS_RECAST_BACKEND_H_
#define DASPOS_RECAST_BACKEND_H_

#include <map>
#include <string>
#include <vector>

#include "recast/request.h"
#include "recast/search.h"
#include "support/result.h"

namespace daspos {
namespace recast {

/// One signal region as a back end counted it: the preserved observed and
/// background yields plus how many of the counted events it selected.
struct RegionCount {
  std::string name;
  double observed = 0.0;
  double background = 0.0;
  uint64_t passed = 0;
};

/// Rejects a request that states no model cross section or asks for no
/// events; back ends call it before running anything.
Status ValidateRequest(const RecastRequest& request);

/// The response to `request` from per-region pass counts: the selection
/// efficiency, the expected signal at mu = 1 over `luminosity_pb`, and the
/// observed and expected 95% limits wherever that signal is non-zero.
Result<RecastResult> ResultFromCounts(const RecastRequest& request,
                                      const std::string& search_name,
                                      double luminosity_pb,
                                      const std::vector<RegionCount>& regions);

/// Interface so alternative back ends (e.g. the core/ RIVET bridge) can
/// serve the same front end.
class BackEnd {
 public:
  virtual ~BackEnd() = default;
  virtual Result<RecastResult> Process(const RecastRequest& request) = 0;
  virtual std::vector<std::string> SearchNames() const = 0;
};

/// The full-simulation back end.
class RecastBackEnd : public BackEnd {
 public:
  /// Installs a preserved search; fails on duplicate names.
  Status RegisterSearch(PreservedSearch search);

  std::vector<std::string> SearchNames() const override;

  /// Runs the preserved chain for the requested model. Costs real CPU —
  /// the E3 bench contrasts this with the truth-level bridge.
  Result<RecastResult> Process(const RecastRequest& request) override;

  /// Total events pushed through the full chain so far (cost accounting).
  uint64_t events_simulated() const { return events_simulated_; }

  /// §2.4 extension: "it would also be possible with some re-configuration
  /// to re-run the analysis on different or new data." Applies the
  /// preserved signal-region selections to a supplied AOD dataset and
  /// returns the per-region pass counts beside the preserved observed and
  /// background yields. Process counts its own chain's AOD through this.
  Result<std::vector<RegionCount>> ProcessDataset(
      const std::string& search_name, std::string_view aod_blob) const;

 private:
  std::map<std::string, PreservedSearch> searches_;
  uint64_t events_simulated_ = 0;
};

}  // namespace recast
}  // namespace daspos

#endif  // DASPOS_RECAST_BACKEND_H_
