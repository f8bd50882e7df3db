// Skimming and slimming: "the dropping of events (known as 'skimming') and
// the reduction of the event content (known as 'slimming')" (§3.2). A
// derivation = one skim + one slim, applied AOD -> derived format, with the
// logical description captured so the step is preservable as metadata
// rather than as code.
#ifndef DASPOS_TIERS_SKIMSLIM_H_
#define DASPOS_TIERS_SKIMSLIM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "event/aod.h"
#include "serialize/json.h"
#include "support/result.h"
#include "tiers/dataset.h"

namespace daspos {

class ThreadPool;

/// Event selection with a self-describing label AND a machine-readable
/// descriptor, so preserved skims rebuild from provenance (the logical
/// skimming description of §3.2 made executable again).
struct SkimSpec {
  std::string name = "all";
  std::string description = "keep every event";
  std::function<bool(const AodEvent&)> predicate = [](const AodEvent&) {
    return true;
  };
  /// Structured self-description, set by the factories below.
  Json descriptor;

  /// Common selections used by the analyses in this repository.
  static SkimSpec All();
  /// At least `count` objects of `type` with pt above `min_pt`.
  static SkimSpec RequireObjects(ObjectType type, int count, double min_pt);
  /// Any of the given trigger bits set.
  static SkimSpec RequireTrigger(uint32_t mask);

  /// Rebuilds a factory-made skim from its descriptor; hand-written
  /// predicates (empty descriptor) are not reconstructible and fail with
  /// Unimplemented — the honest answer for ad-hoc analyst code (§3.2:
  /// direct preservation of the code is then the only way).
  Json ToJson() const;
  static Result<SkimSpec> FromJson(const Json& json);
};

/// Content reduction: which object types survive, and above what pt.
struct SlimSpec {
  std::string name = "none";
  /// Object types to keep (MET is always kept).
  std::vector<ObjectType> keep_types = {
      ObjectType::kElectron, ObjectType::kMuon, ObjectType::kPhoton,
      ObjectType::kJet};
  double min_object_pt = 0.0;

  static SlimSpec None();
  static SlimSpec LeptonsOnly(double min_pt);
  static SlimSpec Objects(std::vector<ObjectType> types, double min_pt,
                          std::string name);

  /// Applies the reduction to one event.
  AodEvent Apply(const AodEvent& event) const;

  Json ToJson() const;
  static Result<SlimSpec> FromJson(const Json& json);
};

/// Outcome accounting of one derivation.
struct DerivationStats {
  uint64_t input_events = 0;
  uint64_t output_events = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;

  double EventReduction() const {
    return input_events > 0 ? static_cast<double>(output_events) /
                                  static_cast<double>(input_events)
                            : 0.0;
  }
  double SizeReduction() const {
    return input_bytes > 0 ? static_cast<double>(output_bytes) /
                                 static_cast<double>(input_bytes)
                           : 0.0;
  }
};

/// Runs skim+slim over the events of an AOD (or derived) dataset described
/// by `input_info` and produces a derived dataset blob whose metadata
/// records the logical derivation description. With a pool, events are
/// filtered and re-encoded in parallel chunks whose record buffers are
/// merged in chunk order, so the output blob is byte-identical to the
/// serial run (the skim predicate and slim must be pure). Leaves
/// `stats->input_bytes` alone: there are no input bytes here.
Result<std::string> DeriveDataset(const DatasetInfo& input_info,
                                  const std::vector<AodEvent>& events,
                                  const std::string& output_name,
                                  const SkimSpec& skim, const SlimSpec& slim,
                                  DerivationStats* stats = nullptr,
                                  ThreadPool* pool = nullptr);

/// The same over an AOD dataset blob, read (and verified) by
/// ReadAodDataset first.
Result<std::string> DeriveDataset(std::string_view aod_blob,
                                  const std::string& output_name,
                                  const SkimSpec& skim, const SlimSpec& slim,
                                  DerivationStats* stats = nullptr,
                                  ThreadPool* pool = nullptr);

}  // namespace daspos

#endif  // DASPOS_TIERS_SKIMSLIM_H_
