// Typed dataset files: one self-describing container per tier, carrying the
// tier schema, producer, and parentage in its metadata. This is where the
// "logical skimming/slimming description" of derived formats (§3.2) becomes
// inspectable from the file alone.
#ifndef DASPOS_TIERS_DATASET_H_
#define DASPOS_TIERS_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "event/aod.h"
#include "event/raw.h"
#include "event/reco.h"
#include "event/truth.h"
#include "serialize/container.h"
#include "serialize/json.h"
#include "support/result.h"
#include "tiers/tier.h"

namespace daspos {

class ThreadPool;

/// Descriptive metadata every dataset file carries.
struct DatasetInfo {
  DataTier tier = DataTier::kGen;
  /// Logical dataset name ("zmm_run7_aod").
  std::string name;
  /// Producing step ("reco_step v3"); provenance lives in workflow/ but the
  /// file itself names its producer so it stays interpretable standalone.
  std::string producer;
  /// Logical names of the input dataset(s).
  std::vector<std::string> parents;
  /// Free-form physics description.
  std::string description;

  Json ToJson() const;
  static Result<DatasetInfo> FromJson(const Json& json);
};

/// Serializes events of tier-appropriate type into a container blob.
/// The unparameterized record type keeps one writer per tier trivial.
///
/// The codecs take the calling step's pool: with one, events are encoded
/// and decoded in parallel chunks. Records are spliced and returned in
/// event order, so the bytes, the events and the first error reported never
/// depend on the pool width (null means serial on the calling thread).
std::string WriteGenDataset(const DatasetInfo& info,
                            const std::vector<GenEvent>& events,
                            ThreadPool* pool = nullptr);
std::string WriteRawDataset(const DatasetInfo& info,
                            const std::vector<RawEvent>& events,
                            ThreadPool* pool = nullptr);
std::string WriteRecoDataset(const DatasetInfo& info,
                             const std::vector<RecoEvent>& events,
                             ThreadPool* pool = nullptr);
std::string WriteAodDataset(const DatasetInfo& info,
                            const std::vector<AodEvent>& events,
                            ThreadPool* pool = nullptr);

/// Opens a dataset blob, checks the expected tier schema, and decodes all
/// events. Fixity and structure errors surface as Corruption; a bad record
/// fails the read with the error of the lowest-index bad record.
Result<std::vector<GenEvent>> ReadGenDataset(std::string_view blob,
                                             DatasetInfo* info = nullptr,
                                             ThreadPool* pool = nullptr);
Result<std::vector<RawEvent>> ReadRawDataset(std::string_view blob,
                                             DatasetInfo* info = nullptr,
                                             ThreadPool* pool = nullptr);
Result<std::vector<RecoEvent>> ReadRecoDataset(std::string_view blob,
                                               DatasetInfo* info = nullptr,
                                               ThreadPool* pool = nullptr);
Result<std::vector<AodEvent>> ReadAodDataset(std::string_view blob,
                                             DatasetInfo* info = nullptr,
                                             ThreadPool* pool = nullptr);

/// The events of one dataset as its producing step built them, beside the
/// info it wrote into their container. Within one Workflow::Execute a step
/// hands this to its consumers with the sealed bytes, so bytes that never
/// left the process are neither decoded nor hashed a second time.
struct DatasetPayload {
  DatasetInfo info;
  std::variant<std::vector<GenEvent>, std::vector<RawEvent>,
               std::vector<RecoEvent>, std::vector<AodEvent>>
      events;
};

/// One input of a step: the dataset's bytes, which are the record, and the
/// producer's payload when the producer ran in this Execute (null when the
/// bytes came from a journal, from outside the run, or from a step that
/// hands over none).
struct DatasetInput {
  std::string_view bytes;
  std::shared_ptr<const DatasetPayload> payload = nullptr;
};

/// Events read through ReadInput. `events` shares the producer's payload or
/// owns a decoded copy; resetting it releases them.
template <typename Event>
struct InputEvents {
  DatasetInfo info;
  std::shared_ptr<const std::vector<Event>> events;
};

/// The one way a step reads an input: the handed-off events when `input`
/// carries a payload, otherwise Read*Dataset of `input.bytes`, which
/// verifies fixity, tier and every record. Either way a dataset of a tier
/// other than Event's fails with InvalidArgument. Defined for GenEvent,
/// RawEvent, RecoEvent and AodEvent (which also reads derived datasets).
template <typename Event>
Result<InputEvents<Event>> ReadInput(DatasetInput input,
                                     ThreadPool* pool = nullptr);

/// Appends `count` records to `writer`, encoded in parallel chunks over
/// `pool`. encode(i, record) serializes item i into the empty `record`, or
/// returns false to skip the item. Each chunk frames its records into a
/// buffer of its own and splices it into the container in chunk order, so
/// the container bytes equal the serial loop's and only one chunk buffer
/// per worker is alive at a time.
void AppendRecords(ContainerWriter* writer, size_t count, ThreadPool* pool,
                   const std::function<bool(size_t, BinaryWriter*)>& encode);

/// Reads only the metadata of any dataset blob.
Result<DatasetInfo> ReadDatasetInfo(std::string_view blob);

}  // namespace daspos

#endif  // DASPOS_TIERS_DATASET_H_
