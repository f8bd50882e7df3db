#include "tiers/dataset.h"

#include <algorithm>
#include <atomic>

#include "support/parallel.h"

namespace daspos {

namespace {

/// Minimum events per codec chunk: an event encodes or decodes in a few
/// microseconds, so smaller chunks would spend more on dispatch than work.
constexpr size_t kCodecGrain = 16;

DataTier TierFromSchema(const std::string& schema, bool* ok) {
  *ok = true;
  for (DataTier tier :
       {DataTier::kGen, DataTier::kRaw, DataTier::kReco, DataTier::kAod,
        DataTier::kDerived}) {
    if (schema == TierSchema(tier)) return tier;
  }
  *ok = false;
  return DataTier::kGen;
}

Json MakeMetadata(const DatasetInfo& info) {
  Json meta = info.ToJson();
  meta["schema"] = std::string(TierSchema(info.tier));
  meta["schema_version"] = 1;
  return meta;
}

template <typename Event>
std::string WriteDataset(const DatasetInfo& info,
                         const std::vector<Event>& events, ThreadPool* pool) {
  ContainerWriter writer(MakeMetadata(info));
  AppendRecords(&writer, events.size(), pool,
                [&events](size_t i, BinaryWriter* record) {
                  EncodeRecord(events[i], record);
                  return true;
                });
  return writer.Finish();
}

/// The tiers whose records decode as Event. Derived datasets keep the AOD
/// record layout.
bool TierHolds(const GenEvent*, DataTier tier) { return tier == DataTier::kGen; }
bool TierHolds(const RawEvent*, DataTier tier) { return tier == DataTier::kRaw; }
bool TierHolds(const RecoEvent*, DataTier tier) {
  return tier == DataTier::kReco;
}
bool TierHolds(const AodEvent*, DataTier tier) {
  return tier == DataTier::kAod || tier == DataTier::kDerived;
}

template <typename Event>
Status CheckTier(const DatasetInfo& info) {
  if (TierHolds(static_cast<const Event*>(nullptr), info.tier)) {
    return Status::OK();
  }
  return Status::InvalidArgument("dataset '" + info.name + "' has tier " +
                                 std::string(TierName(info.tier)) +
                                 ", not the expected one");
}

/// Opens `blob` and decodes every record, chunked over `pool`. The fixity
/// hash runs as one more task beside the decode, so it no longer precedes
/// it on one thread; the decode is speculative and its result is dropped
/// unless the hash matches. Errors are those of the serial read: a hash
/// mismatch wins over everything after it, then the metadata and tier
/// checks, then the lowest-index bad record (each chunk stops at its
/// first, and the lowest chunk's error wins).
template <typename Event>
Result<std::vector<Event>> ReadDataset(std::string_view blob,
                                       DatasetInfo* info_out,
                                       ThreadPool* pool) {
  Result<ContainerReader> reader = ContainerReader::OpenUnverified(blob);
  // A structural error: Open reports it, or the hash mismatch before it.
  if (!reader.ok()) return ContainerReader::Open(blob).status();
  const std::vector<std::string_view>& records = reader->records();

  // Task 0 hashes; tasks 1.. decode. At most kMaxChunks tasks in all, so
  // each task is a chunk of its own.
  ChunkPlan plan = PlanChunks(records.size(), kCodecGrain);
  plan.chunk_count = std::min(plan.chunk_count, ChunkPlan::kMaxChunks - 1);
  Status fixity;
  std::atomic<bool> fixity_failed{false};
  std::vector<Event> events(records.size());
  std::vector<Status> errors(plan.chunk_count);
  ParallelFor(pool, 1 + plan.chunk_count, [&](size_t task) {
    if (task == 0) {
      fixity = ContainerReader::VerifyFixity(blob);
      if (!fixity.ok()) fixity_failed.store(true, std::memory_order_relaxed);
      return;
    }
    auto [begin, end] = plan.Bounds(task - 1);
    for (size_t i = begin; i < end; ++i) {
      if (fixity_failed.load(std::memory_order_relaxed)) return;
      Status decoded = DecodeRecord(records[i], &events[i]);
      if (!decoded.ok()) {
        errors[task - 1] = std::move(decoded);
        return;
      }
    }
  });
  DASPOS_RETURN_IF_ERROR(fixity);

  DASPOS_ASSIGN_OR_RETURN(DatasetInfo info,
                          DatasetInfo::FromJson(reader->metadata()));
  DASPOS_RETURN_IF_ERROR(CheckTier<Event>(info));
  for (Status& error : errors) {
    if (!error.ok()) return std::move(error);
  }
  if (info_out != nullptr) *info_out = std::move(info);
  return events;
}

}  // namespace

void AppendRecords(ContainerWriter* writer, size_t count, ThreadPool* pool,
                   const std::function<bool(size_t, BinaryWriter*)>& encode) {
  ChunkPlan plan = PlanChunks(count, kCodecGrain);
  std::vector<std::string> chunks(plan.chunk_count);
  std::vector<size_t> kept(plan.chunk_count, 0);
  ForEachChunk(pool, count, kCodecGrain,
               [&](size_t chunk, size_t begin, size_t end) {
                 BinaryWriter record;
                 std::string& framed = chunks[chunk];
                 for (size_t i = begin; i < end; ++i) {
                   record.Clear();
                   if (!encode(i, &record)) continue;
                   AppendVarint(framed, record.size());
                   framed += record.buffer();
                   ++kept[chunk];
                 }
               });
  size_t records = 0;
  for (size_t n : kept) records += n;
  writer->AppendChunks(chunks, records, pool);
}

Json DatasetInfo::ToJson() const {
  Json json = Json::Object();
  json["tier"] = std::string(TierName(tier));
  json["name"] = name;
  json["producer"] = producer;
  Json parent_list = Json::Array();
  for (const std::string& parent : parents) parent_list.push_back(parent);
  json["parents"] = std::move(parent_list);
  json["description"] = description;
  return json;
}

Result<DatasetInfo> DatasetInfo::FromJson(const Json& json) {
  DatasetInfo info;
  bool ok = false;
  // Prefer the schema field (authoritative); fall back to the tier name.
  if (json.Has("schema")) {
    info.tier = TierFromSchema(json.Get("schema").as_string(), &ok);
  }
  if (!ok) {
    std::string tier_name = json.Get("tier").as_string();
    for (DataTier tier :
         {DataTier::kGen, DataTier::kRaw, DataTier::kReco, DataTier::kAod,
          DataTier::kDerived}) {
      if (tier_name == TierName(tier)) {
        info.tier = tier;
        ok = true;
      }
    }
  }
  if (!ok) {
    return Status::Corruption("dataset metadata has unknown tier/schema");
  }
  info.name = json.Get("name").as_string();
  info.producer = json.Get("producer").as_string();
  const Json& parents = json.Get("parents");
  for (size_t i = 0; i < parents.size(); ++i) {
    info.parents.push_back(parents.at(i).as_string());
  }
  info.description = json.Get("description").as_string();
  return info;
}

std::string WriteGenDataset(const DatasetInfo& info,
                            const std::vector<GenEvent>& events,
                            ThreadPool* pool) {
  return WriteDataset(info, events, pool);
}
std::string WriteRawDataset(const DatasetInfo& info,
                            const std::vector<RawEvent>& events,
                            ThreadPool* pool) {
  return WriteDataset(info, events, pool);
}
std::string WriteRecoDataset(const DatasetInfo& info,
                             const std::vector<RecoEvent>& events,
                             ThreadPool* pool) {
  return WriteDataset(info, events, pool);
}
std::string WriteAodDataset(const DatasetInfo& info,
                            const std::vector<AodEvent>& events,
                            ThreadPool* pool) {
  return WriteDataset(info, events, pool);
}

Result<std::vector<GenEvent>> ReadGenDataset(std::string_view blob,
                                             DatasetInfo* info,
                                             ThreadPool* pool) {
  return ReadDataset<GenEvent>(blob, info, pool);
}
Result<std::vector<RawEvent>> ReadRawDataset(std::string_view blob,
                                             DatasetInfo* info,
                                             ThreadPool* pool) {
  return ReadDataset<RawEvent>(blob, info, pool);
}
Result<std::vector<RecoEvent>> ReadRecoDataset(std::string_view blob,
                                               DatasetInfo* info,
                                               ThreadPool* pool) {
  return ReadDataset<RecoEvent>(blob, info, pool);
}
Result<std::vector<AodEvent>> ReadAodDataset(std::string_view blob,
                                             DatasetInfo* info,
                                             ThreadPool* pool) {
  return ReadDataset<AodEvent>(blob, info, pool);
}

template <typename Event>
Result<InputEvents<Event>> ReadInput(DatasetInput input, ThreadPool* pool) {
  InputEvents<Event> out;
  if (input.payload == nullptr) {
    DASPOS_ASSIGN_OR_RETURN(std::vector<Event> events,
                            ReadDataset<Event>(input.bytes, &out.info, pool));
    out.events = std::make_shared<const std::vector<Event>>(std::move(events));
    return out;
  }
  DASPOS_RETURN_IF_ERROR(CheckTier<Event>(input.payload->info));
  const auto* events = std::get_if<std::vector<Event>>(&input.payload->events);
  if (events == nullptr) {
    return Status::InvalidArgument("dataset '" + input.payload->info.name +
                                   "' hands over events of another tier");
  }
  out.info = input.payload->info;
  // Aliases the payload: the events live while any step still holds them.
  out.events = std::shared_ptr<const std::vector<Event>>(
      std::move(input.payload), events);
  return out;
}

template Result<InputEvents<GenEvent>> ReadInput(DatasetInput, ThreadPool*);
template Result<InputEvents<RawEvent>> ReadInput(DatasetInput, ThreadPool*);
template Result<InputEvents<RecoEvent>> ReadInput(DatasetInput, ThreadPool*);
template Result<InputEvents<AodEvent>> ReadInput(DatasetInput, ThreadPool*);

Result<DatasetInfo> ReadDatasetInfo(std::string_view blob) {
  DASPOS_ASSIGN_OR_RETURN(ContainerReader reader, ContainerReader::Open(blob));
  return DatasetInfo::FromJson(reader.metadata());
}

}  // namespace daspos
