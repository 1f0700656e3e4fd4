#include "core/data_coord.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/data_node.h"
#include "core/lease.h"
#include "storage/binlog.h"
#include "wal/message.h"

namespace manu {

namespace {
constexpr char kNextSegmentIdKey[] = "id/next_segment";
}  // namespace

DataCoordinator::DataCoordinator(const CoreContext& ctx) : ctx_(ctx) {}

void DataCoordinator::OnCollectionCreated(const CollectionMeta& meta) {
  std::lock_guard<std::mutex> lk(mu_);
  shards_[meta.id] = meta.num_shards;
  schemas_[meta.id] = std::make_shared<const CollectionSchema>(meta.schema);
}

void DataCoordinator::OnCollectionDropped(CollectionId collection) {
  std::lock_guard<std::mutex> lk(mu_);
  shards_.erase(collection);
  schemas_.erase(collection);
  std::erase_if(alloc_,
                [&](const auto& kv) { return kv.first.first == collection; });
  std::erase_if(segments_,
                [&](const auto& kv) { return kv.first.first == collection; });
  std::erase_if(channel_owner_,
                [&](const auto& kv) { return kv.first.first == collection; });
  allocated_.erase(collection);
}

void DataCoordinator::AddDataNode(DataNode* node) {
  std::lock_guard<std::mutex> lk(mu_);
  data_nodes_.push_back(node);
}

Status DataCoordinator::AssignShardChannels(const CollectionMeta& meta,
                                            bool replay_from_floor) {
  struct Assignment {
    ShardId shard;
    DataNode* node;
    Timestamp replay_from;
  };
  std::vector<Assignment> plan;
  std::shared_ptr<const CollectionSchema> schema;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (data_nodes_.empty()) {
      return Status::Unavailable("no data nodes registered");
    }
    auto it = schemas_.find(meta.id);
    schema = it != schemas_.end()
                 ? it->second
                 : std::make_shared<const CollectionSchema>(meta.schema);
    schemas_[meta.id] = schema;
    for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
      DataNode* node = data_nodes_[shard % data_nodes_.size()];
      const Timestamp floor =
          replay_from_floor ? ArchivedFloorLocked(meta.id, shard) : 0;
      plan.push_back({shard, node, floor == 0 ? Timestamp{0} : floor + 1});
      channel_owner_[{meta.id, shard}] = node->id();
    }
  }
  for (const Assignment& a : plan) {
    a.node->AssignChannel(meta.id, a.shard, schema, a.replay_from);
  }
  return Status::OK();
}

Status DataCoordinator::OnDataNodeDead(NodeId node) {
  struct Move {
    CollectionId collection;
    ShardId shard;
    DataNode* to;
    Timestamp replay_from;
    std::shared_ptr<const CollectionSchema> schema;
  };
  std::vector<Move> moves;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::erase_if(data_nodes_, [&](DataNode* n) { return n->id() == node; });
    if (data_nodes_.empty()) {
      return Status::Unavailable("no surviving data node for failover");
    }
    size_t next = 0;
    for (auto& [key, owner] : channel_owner_) {
      if (owner != node) continue;
      DataNode* to = data_nodes_[next++ % data_nodes_.size()];
      const Timestamp floor = ArchivedFloorLocked(key.first, key.second);
      moves.push_back({key.first, key.second, to,
                       floor == 0 ? Timestamp{0} : floor + 1,
                       schemas_[key.first]});
      owner = to->id();
    }
  }
  for (const Move& m : moves) {
    m.to->AssignChannel(m.collection, m.shard, m.schema, m.replay_from);
    MANU_LOG_INFO << "data coord: shard channel (" << m.collection << ", "
                  << m.shard << ") handed to node " << m.to->id()
                  << ", replaying WAL from lsn " << m.replay_from;
  }
  return Status::OK();
}

Timestamp DataCoordinator::ArchivedFloorLocked(CollectionId collection,
                                               ShardId shard) const {
  Timestamp floor = 0;
  for (const auto& [key, meta] : segments_) {
    if (key.first != collection) continue;
    if (meta.shard != shard || meta.from_compaction) continue;
    floor = std::max(floor, meta.last_lsn);
  }
  return floor;
}

Timestamp DataCoordinator::ArchivedFloor(CollectionId collection,
                                         ShardId shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return ArchivedFloorLocked(collection, shard);
}

NodeId DataCoordinator::ChannelOwner(CollectionId collection,
                                     ShardId shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = channel_owner_.find({collection, shard});
  return it == channel_owner_.end() ? kInvalidNodeId : it->second;
}

void DataCoordinator::Restore(const std::vector<CollectionMeta>& collections) {
  std::lock_guard<std::mutex> lk(mu_);
  std::set<CollectionId> live;
  for (const CollectionMeta& meta : collections) {
    shards_[meta.id] = meta.num_shards;
    schemas_[meta.id] = std::make_shared<const CollectionSchema>(meta.schema);
    live.insert(meta.id);
  }
  for (const auto& [key, entry] : ctx_.meta->List("segment/")) {
    auto meta = SegmentMeta::Deserialize(entry.value);
    if (!meta.ok()) {
      MANU_LOG_WARN << "data coord restore: bad segment meta at " << key;
      continue;
    }
    if (live.count(meta.value().collection) == 0) continue;
    segments_[{meta.value().collection, meta.value().id}] = meta.value();
    allocated_[meta.value().collection].push_back(meta.value().id);
  }
}

SegmentId DataCoordinator::NextSegmentId() {
  // CAS-persisted counter: ids stay unique across crash recovery (a
  // recovered instance must never reuse a sealed segment's id).
  for (;;) {
    int64_t next = 1;
    int64_t revision = 0;
    auto current = ctx_.meta->Get(kNextSegmentIdKey);
    if (current.ok()) {
      next = std::atoll(current.value().value.c_str());
      revision = current.value().mod_revision;
    }
    auto cas = ctx_.meta->CompareAndSwap(kNextSegmentIdKey, revision,
                                         std::to_string(next + 1));
    if (cas.ok()) return next;
  }
}

SegmentId DataCoordinator::PeekNextSegmentId() const {
  auto current = ctx_.meta->Get(kNextSegmentIdKey);
  if (!current.ok()) return 1;
  return std::atoll(current.value().value.c_str());
}

Result<SegmentId> DataCoordinator::AllocateSegment(CollectionId collection,
                                                   ShardId shard,
                                                   int64_t rows,
                                                   uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shards_.count(collection) == 0) {
    return Status::NotFound("collection not registered with data coord");
  }
  ShardAlloc& a = alloc_[{collection, shard}];
  const bool over_rows = ctx_.config.segment_seal_rows > 0 &&
                         a.rows + rows > ctx_.config.segment_seal_rows;
  const bool over_bytes = a.bytes + bytes > ctx_.config.segment_seal_bytes;
  if (a.current == kInvalidSegmentId || over_rows || over_bytes) {
    a.current = NextSegmentId();
    a.rows = 0;
    a.bytes = 0;
    allocated_[collection].push_back(a.current);
  }
  a.rows += rows;
  a.bytes += bytes;
  a.last_alloc_ms = NowMs();
  return a.current;
}

void DataCoordinator::PublishFlush(CollectionId collection, ShardId shard,
                                   SegmentId up_to) const {
  LogEntry flush;  // Unstamped: the broker stamps it at staging.
  flush.type = LogEntryType::kFlush;
  flush.collection = collection;
  flush.shard = shard;
  flush.segment = up_to;  // Seal every buffered segment with id < up_to.
  ctx_.mq->Publish(ShardChannelName(collection, shard), std::move(flush));
}

SegmentId DataCoordinator::RollShardLocked(CollectionId collection,
                                           ShardId shard,
                                           SegmentId* rolled) {
  ShardAlloc& a = alloc_[{collection, shard}];
  *rolled = a.current;
  a.current = kInvalidSegmentId;
  a.rows = 0;
  a.bytes = 0;
  // The barrier is "every segment below the *next* id": rolling lazily means
  // the next allocation picks a fresh id greater than anything sealed here.
  return PeekNextSegmentId();
}

Result<std::vector<SegmentId>> DataCoordinator::Flush(
    CollectionId collection) {
  std::vector<std::pair<ShardId, SegmentId>> barriers;
  std::vector<SegmentId> rolled_ids;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = shards_.find(collection);
    if (it == shards_.end()) {
      return Status::NotFound("collection not registered with data coord");
    }
    for (ShardId shard = 0; shard < it->second; ++shard) {
      SegmentId rolled = kInvalidSegmentId;
      const SegmentId barrier = RollShardLocked(collection, shard, &rolled);
      barriers.emplace_back(shard, barrier);
      if (rolled != kInvalidSegmentId) rolled_ids.push_back(rolled);
    }
  }
  for (const auto& [shard, up_to] : barriers) {
    PublishFlush(collection, shard, up_to);
  }
  return rolled_ids;
}

void DataCoordinator::CheckIdleSegments() {
  const int64_t now = NowMs();
  std::vector<std::pair<std::pair<CollectionId, ShardId>, SegmentId>> idle;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [key, a] : alloc_) {
      if (a.current == kInvalidSegmentId) continue;
      if (now - a.last_alloc_ms < ctx_.config.segment_idle_seal_ms) continue;
      SegmentId rolled = kInvalidSegmentId;
      const SegmentId barrier = RollShardLocked(key.first, key.second,
                                                &rolled);
      if (rolled != kInvalidSegmentId) idle.emplace_back(key, barrier);
    }
  }
  for (const auto& [key, up_to] : idle) {
    PublishFlush(key.first, key.second, up_to);
  }
}

Status DataCoordinator::RegisterSealed(const SegmentMeta& meta) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    segments_[{meta.collection, meta.id}] = meta;
  }
  ctx_.meta->Put(SegmentMetaKey(meta.collection, meta.id), meta.Serialize());
  return Status::OK();
}

Status DataCoordinator::RegisterIndex(CollectionId collection,
                                      SegmentId segment, FieldId field,
                                      const std::string& index_path,
                                      int32_t version) {
  SegmentMeta copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = segments_.find({collection, segment});
    if (it == segments_.end()) {
      return Status::NotFound("segment not registered: " +
                              std::to_string(segment));
    }
    it->second.index_paths[field] = index_path;
    it->second.index_versions[field] = version;
    it->second.state = SegmentState::kIndexed;
    copy = it->second;
  }
  ctx_.meta->Put(SegmentMetaKey(collection, segment), copy.Serialize());
  return Status::OK();
}

Status DataCoordinator::RegisterFilterIndex(CollectionId collection,
                                            SegmentId segment,
                                            const std::string& path,
                                            int32_t version) {
  SegmentMeta copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = segments_.find({collection, segment});
    if (it == segments_.end()) {
      return Status::NotFound("segment not registered: " +
                              std::to_string(segment));
    }
    it->second.filter_index_path = path;
    it->second.filter_index_version = version;
    copy = it->second;
  }
  ctx_.meta->Put(SegmentMetaKey(collection, segment), copy.Serialize());
  return Status::OK();
}

Result<SegmentMeta> DataCoordinator::GetSegment(CollectionId collection,
                                                SegmentId segment) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = segments_.find({collection, segment});
  if (it == segments_.end()) {
    return Status::NotFound("segment: " + std::to_string(segment));
  }
  return it->second;
}

std::vector<SegmentId> DataCoordinator::AllocatedSegments(
    CollectionId collection) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = allocated_.find(collection);
  return it == allocated_.end() ? std::vector<SegmentId>{} : it->second;
}

std::vector<SegmentMeta> DataCoordinator::ListSegments(
    CollectionId collection) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SegmentMeta> out;
  for (const auto& [key, meta] : segments_) {
    if (key.first == collection) out.push_back(meta);
  }
  return out;
}

Result<std::vector<SegmentId>> DataCoordinator::CompactSegments(
    CollectionId collection, const std::vector<int64_t>& deleted_pks,
    int64_t small_rows) {
  const std::unordered_set<int64_t> deleted(deleted_pks.begin(),
                                            deleted_pks.end());
  // Candidates: sealed/indexed segments that are small, or that carry
  // enough tombstoned rows to be worth rewriting.
  std::vector<SegmentMeta> candidates;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [key, meta] : segments_) {
      if (key.first != collection) continue;
      if (meta.state != SegmentState::kSealed &&
          meta.state != SegmentState::kIndexed) {
        continue;
      }
      if (meta.num_rows < small_rows) {
        candidates.push_back(meta);
      }
    }
  }
  // Deletion-driven candidates need pk inspection; piggyback on the merge
  // read below by including any sealed segment whose manifest shows enough
  // deleted pks.
  if (!deleted.empty()) {
    for (const SegmentMeta& meta : ListSegments(collection)) {
      if (meta.state != SegmentState::kSealed &&
          meta.state != SegmentState::kIndexed) {
        continue;
      }
      if (meta.num_rows >= small_rows) {
        auto manifest = binlog::ReadManifest(ctx_.store, meta.binlog_path);
        if (!manifest.ok()) continue;
        int64_t dead = 0;
        for (int64_t pk : manifest.value().primary_keys) {
          dead += deleted.count(pk);
        }
        if (static_cast<double>(dead) >
            ctx_.config.compact_deleted_ratio *
                static_cast<double>(meta.num_rows)) {
          candidates.push_back(meta);
        }
      }
    }
  }
  // Dedup candidates by id.
  std::sort(candidates.begin(), candidates.end(),
            [](const SegmentMeta& a, const SegmentMeta& b) {
              return a.id < b.id;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const SegmentMeta& a,
                                  const SegmentMeta& b) {
                                 return a.id == b.id;
                               }),
                   candidates.end());
  if (candidates.size() < 2 &&
      (candidates.empty() || deleted.empty())) {
    return std::vector<SegmentId>{};  // Nothing worth rewriting.
  }

  // Merge all candidates into one segment (bench scales keep this small;
  // production would bin-pack toward the seal size).
  struct Row {
    Timestamp ts;
    SegmentId source;
    int64_t offset;
  };
  std::vector<EntityBatch> batches;
  std::vector<Row> order;
  std::vector<SegmentId> dropped;
  for (const SegmentMeta& meta : candidates) {
    auto batch = binlog::ReadSegment(ctx_.store, meta.binlog_path);
    if (!batch.ok()) continue;
    const int64_t source = static_cast<int64_t>(batches.size());
    for (int64_t row = 0; row < batch.value().NumRows(); ++row) {
      if (deleted.count(batch.value().primary_keys[row]) > 0) continue;
      order.push_back({batch.value().timestamps.empty()
                           ? 0
                           : batch.value().timestamps[row],
                       source, row});
    }
    batches.push_back(std::move(batch).value());
    dropped.push_back(meta.id);
  }
  if (batches.empty()) return std::vector<SegmentId>{};
  // Rows must stay LSN-ordered so MVCC prefix visibility keeps working.
  std::stable_sort(order.begin(), order.end(),
                   [](const Row& a, const Row& b) { return a.ts < b.ts; });

  EntityBatch merged;
  Timestamp last_lsn = 0;
  for (const Row& row : order) {
    EntityBatch single = batches[row.source].Slice(row.offset, row.offset + 1);
    if (merged.NumRows() == 0) {
      merged = std::move(single);
    } else {
      MANU_RETURN_NOT_OK(merged.Append(single));
    }
    last_lsn = std::max(last_lsn, row.ts);
  }

  SegmentMeta result;
  result.id = NextSegmentId();
  result.collection = collection;
  result.shard = candidates.front().shard;  // Nominal; spans shards.
  result.state = SegmentState::kSealed;
  result.num_rows = merged.NumRows();
  result.binlog_path =
      "binlog/c" + std::to_string(collection) + "/seg" +
      std::to_string(result.id);
  result.last_lsn = last_lsn;
  result.from_compaction = true;
  if (merged.NumRows() > 0) {
    MANU_RETURN_NOT_OK(
        binlog::WriteSegment(ctx_.store, result.binlog_path, merged));
    MANU_RETURN_NOT_OK(RegisterSealed(result));
  }

  // Mark the inputs dropped, durably: a recovered instance must not reload
  // (and resurrect the physically-deleted rows of) compacted-away segments.
  std::vector<std::pair<std::string, std::string>> drop_puts;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (SegmentId id : dropped) {
      auto it = segments_.find({collection, id});
      if (it != segments_.end()) {
        it->second.state = SegmentState::kDropped;
        drop_puts.emplace_back(SegmentMetaKey(collection, id),
                               it->second.Serialize());
      }
    }
  }
  for (const auto& [key, value] : drop_puts) ctx_.meta->Put(key, value);

  // Pipeline events: the merged segment enters via kSegmentSealed; the
  // kCompaction notice tells the query coordinator which segments to
  // release once the merged one is served.
  if (merged.NumRows() > 0) {
    LogEntry sealed;
    sealed.type = LogEntryType::kSegmentSealed;
    sealed.timestamp = ctx_.tso->Allocate();
    sealed.collection = collection;
    sealed.segment = result.id;
    sealed.payload = result.Serialize();
    ctx_.mq->Publish(CoordChannelName(), std::move(sealed));
  }
  LogEntry note;
  note.type = LogEntryType::kCompaction;
  note.timestamp = ctx_.tso->Allocate();
  note.collection = collection;
  note.segment = merged.NumRows() > 0 ? result.id : kInvalidSegmentId;
  BinaryWriter w;
  w.PutVector(dropped);
  note.payload = w.Release();
  ctx_.mq->Publish(CoordChannelName(), std::move(note));

  MANU_LOG_INFO << "compacted " << dropped.size() << " segments into "
                << result.id << " (" << merged.NumRows() << " rows)";
  if (merged.NumRows() == 0) return std::vector<SegmentId>{};
  return std::vector<SegmentId>{result.id};
}

Result<std::string> DataCoordinator::WriteCheckpoint(
    CollectionId collection) {
  // Commit-point fence (checkpoint write): a superseded instance's data
  // coordinator must not publish checkpoints over the new owner's.
  if (ctx_.leases != nullptr) {
    MANU_RETURN_NOT_OK(ctx_.leases->CheckInstanceEpoch(ctx_.instance_epoch));
  }
  const Timestamp ts = ctx_.tso->Allocate();
  BinaryWriter w;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<const SegmentMeta*> metas;
    for (const auto& [key, meta] : segments_) {
      if (key.first == collection) metas.push_back(&meta);
    }
    w.PutU64(ts);
    w.PutU32(static_cast<uint32_t>(metas.size()));
    for (const SegmentMeta* m : metas) w.PutString(m->Serialize());
  }
  // Zero-padded physical-ms key keeps checkpoints time-ordered in List().
  char name[32];
  std::snprintf(name, sizeof(name), "%016llu",
                static_cast<unsigned long long>(PhysicalMs(ts)));
  const std::string path =
      "checkpoint/c" + std::to_string(collection) + "/" + name;
  MANU_RETURN_NOT_OK(ctx_.store->Put(path, w.Release()));
  return path;
}

Result<std::vector<SegmentMeta>> DataCoordinator::ReadCheckpoint(
    CollectionId collection, Timestamp ts) const {
  const std::string prefix = "checkpoint/c" + std::to_string(collection) + "/";
  std::string best;
  for (const std::string& path : ctx_.store->List(prefix)) {
    const uint64_t cp_ms = std::stoull(path.substr(prefix.size()));
    if (cp_ms <= PhysicalMs(ts)) best = path;  // List is sorted ascending.
  }
  if (best.empty()) {
    return Status::NotFound("no checkpoint at or before requested time");
  }
  MANU_ASSIGN_OR_RETURN(std::string data, ctx_.store->Get(best));
  BinaryReader r(data);
  MANU_ASSIGN_OR_RETURN(uint64_t cp_ts, r.GetU64());
  (void)cp_ts;
  MANU_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  std::vector<SegmentMeta> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MANU_ASSIGN_OR_RETURN(std::string blob, r.GetString());
    MANU_ASSIGN_OR_RETURN(SegmentMeta meta, SegmentMeta::Deserialize(blob));
    out.push_back(std::move(meta));
  }
  return out;
}

}  // namespace manu
