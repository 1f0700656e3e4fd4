#include "core/logger.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "core/admission.h"
#include "core/lease.h"

namespace manu {

namespace {
/// Releases a Logger's in-flight slot on every exit path of Append/Delete.
class SlotRelease {
 public:
  explicit SlotRelease(std::atomic<int64_t>* inflight) : inflight_(inflight) {}
  ~SlotRelease() {
    if (inflight_ != nullptr) {
      inflight_->fetch_sub(1, std::memory_order_relaxed);
    }
  }
  SlotRelease(const SlotRelease&) = delete;
  SlotRelease& operator=(const SlotRelease&) = delete;

 private:
  std::atomic<int64_t>* inflight_;
};
}  // namespace

Logger::Logger(NodeId id, const CoreContext& ctx, DataCoordinator* data_coord)
    : id_(id), ctx_(ctx), data_coord_(data_coord) {}

MessageQueue::PublishFence Logger::InstanceFence() const {
  if (ctx_.leases == nullptr) return {};
  return [this] {
    return ctx_.leases->CheckInstanceEpoch(ctx_.instance_epoch);
  };
}

Status Logger::ReserveSlot() {
  const int64_t limit = ctx_.config.logger_inflight_limit;
  if (limit <= 0) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  const int64_t prev = inflight_.fetch_add(1, std::memory_order_relaxed);
  if (prev >= limit) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    MetricsRegistry::Global()
        .GetCounter("backpressure.logger_rejections")
        ->Add();
    return AdmissionController::ShedStatus(
        "logger " + std::to_string(id_), /*stage=*/0,
        std::max<int64_t>(1, ctx_.config.shed_retry_after_ms));
  }
  return Status::OK();
}

LsmEntityMap* Logger::MapFor(CollectionId collection, ShardId shard) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = maps_[{collection, shard}];
  if (slot == nullptr) {
    slot = std::make_unique<LsmEntityMap>(
        ctx_.store, "logger/" + std::to_string(id_) + "/c" +
                        std::to_string(collection) + "/s" +
                        std::to_string(shard));
    // Logger ids are stable across restarts, so a recovered instance's
    // logger finds its predecessor's SSTables in the object store and
    // recovers the pk->segment map: deletes of pre-crash (flushed) pks keep
    // working. Entries only in the lost memtable are a documented gap —
    // deletes of those pks are filtered as unknown.
    Status st = slot->Recover();
    if (!st.ok()) {
      MANU_LOG_WARN << "logger " << id_ << " entity-map recover: "
                    << st.ToString();
    }
  }
  return slot.get();
}

Result<Timestamp> Logger::Append(const CollectionMeta& meta, ShardId shard,
                                 EntityBatch batch,
                                 const TraceContext& trace) {
  Span span(trace, "logger.append");
  span.Tag("logger", static_cast<int64_t>(id_));
  span.Tag("shard", static_cast<int64_t>(shard));
  // Backpressure gate FIRST — before any LSM mutation, so a shed write has
  // zero side effects.
  {
    Status admit = ReserveSlot();
    if (!admit.ok()) {
      span.Tag("error", admit.ToString());
      return admit;
    }
  }
  SlotRelease slot(&inflight_);
  MANU_RETURN_NOT_OK(batch.ValidateAgainst(meta.schema));
  const int64_t rows = batch.NumRows();
  if (rows == 0) return Status::InvalidArgument("empty batch");
  span.Tag("rows", rows);

  MANU_ASSIGN_OR_RETURN(
      SegmentId segment,
      data_coord_->AllocateSegment(meta.id, shard, rows, batch.ByteSize()));

  LsmEntityMap* map = MapFor(meta.id, shard);
  for (int64_t pk : batch.primary_keys) {
    MANU_RETURN_NOT_OK(map->Put(pk, segment));
  }

  // Unstamped: the broker stamps the rows (one TSO block) at staging, so
  // no time-tick can pass them between stamp and publish.
  LogEntry entry;
  entry.type = LogEntryType::kInsert;
  entry.collection = meta.id;
  entry.shard = shard;
  entry.segment = segment;
  entry.batch = std::move(batch);
  span.Tag("segment", static_cast<int64_t>(segment));
  // The WAL append IS the commit point: a refused publish (broker fault /
  // shutdown) means the rows were never durable and must not be acked.
  // The instance-epoch fence rides INSIDE the broker's group-commit
  // decision: a superseded instance's logger is excluded from the commit
  // group before any waiter is acked, even if it was staged before the
  // takeover (the recovered instance owns the log now).
  Timestamp last = 0;
  {
    Span publish(span.context(), "wal.publish");
    Status fence_status;
    if (ctx_.mq->Publish(ShardChannelName(meta.id, shard), std::move(entry),
                         InstanceFence(), &fence_status, &last) < 0) {
      publish.Tag("acked", "false");
      if (!fence_status.ok()) {
        span.Tag("error", fence_status.ToString());
        return fence_status;
      }
      span.Tag("error", "wal publish failed");
      return Status::Unavailable("wal publish failed");
    }
    publish.Tag("acked", "true");
  }
  span.Tag("lsn", static_cast<int64_t>(last));
  MetricsRegistry::Global().GetCounter("logger.rows_inserted")->Add(rows);
  MetricsRegistry::Global().GetRate("logger.insert_rate")->Mark(rows);
  return last;
}

Result<Timestamp> Logger::Delete(const CollectionMeta& meta, ShardId shard,
                                 std::vector<int64_t> pks,
                                 const TraceContext& trace) {
  Span span(trace, "logger.delete");
  span.Tag("logger", static_cast<int64_t>(id_));
  span.Tag("shard", static_cast<int64_t>(shard));
  span.Tag("pks", static_cast<int64_t>(pks.size()));
  // Same gate as Append: refuse before the LSM Lookup/Remove side effects.
  {
    Status admit = ReserveSlot();
    if (!admit.ok()) {
      span.Tag("error", admit.ToString());
      return admit;
    }
  }
  SlotRelease slot(&inflight_);
  LsmEntityMap* map = MapFor(meta.id, shard);
  std::vector<int64_t> existing;
  existing.reserve(pks.size());
  for (int64_t pk : pks) {
    if (map->Lookup(pk).ok()) {
      existing.push_back(pk);
      MANU_RETURN_NOT_OK(map->Remove(pk));
    }
  }
  if (existing.empty()) return Timestamp{0};

  LogEntry entry;  // Unstamped, like Append's.
  entry.type = LogEntryType::kDelete;
  entry.collection = meta.id;
  entry.shard = shard;
  entry.delete_pks = std::move(existing);
  Timestamp ts = 0;
  // Same commit-point discipline as Append: the epoch fence is evaluated
  // inside the group-commit decision, never before it.
  {
    Span publish(span.context(), "wal.publish");
    Status fence_status;
    if (ctx_.mq->Publish(ShardChannelName(meta.id, shard), std::move(entry),
                         InstanceFence(), &fence_status, &ts) < 0) {
      publish.Tag("acked", "false");
      if (!fence_status.ok()) {
        span.Tag("error", fence_status.ToString());
        return fence_status;
      }
      span.Tag("error", "wal publish failed");
      return Status::Unavailable("wal publish failed");
    }
    publish.Tag("acked", "true");
  }
  MetricsRegistry::Global().GetCounter("logger.rows_deleted")->Add(1);
  return ts;
}

Status Logger::FlushMaps() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [_, map] : maps_) {
    MANU_RETURN_NOT_OK(map->Flush());
  }
  return Status::OK();
}

Result<SegmentId> Logger::LookupEntity(CollectionId collection, ShardId shard,
                                       int64_t pk) {
  return MapFor(collection, shard)->Lookup(pk);
}

LoggerFleet::LoggerFleet(const CoreContext& ctx, DataCoordinator* data_coord,
                         int32_t num_loggers) {
  for (int32_t i = 0; i < num_loggers; ++i) {
    loggers_.push_back(std::make_unique<Logger>(i, ctx, data_coord));
    ring_.AddNode(i);
  }
}

ShardId LoggerFleet::ShardOf(int64_t pk, int32_t num_shards) {
  // SplitMix-style scramble so sequential pks spread across shards.
  uint64_t x = static_cast<uint64_t>(pk) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = x ^ (x >> 27);
  return static_cast<ShardId>(x % static_cast<uint64_t>(num_shards));
}

Logger* LoggerFleet::LoggerFor(CollectionId collection, ShardId shard) {
  const int64_t id = ring_.RouteString(ShardChannelName(collection, shard));
  return loggers_[static_cast<size_t>(id)].get();
}

Result<Timestamp> LoggerFleet::Insert(const CollectionMeta& meta,
                                      EntityBatch batch,
                                      const TraceContext& trace) {
  MANU_RETURN_NOT_OK(batch.ValidateAgainst(meta.schema));
  const int32_t num_shards = meta.num_shards;
  // Partition row indices by shard, preserving order within each shard.
  std::vector<std::vector<int64_t>> shard_rows(num_shards);
  for (int64_t i = 0; i < batch.NumRows(); ++i) {
    shard_rows[ShardOf(batch.primary_keys[i], num_shards)].push_back(i);
  }
  Timestamp max_ts = 0;
  for (ShardId shard = 0; shard < num_shards; ++shard) {
    const auto& rows = shard_rows[shard];
    if (rows.empty()) continue;
    EntityBatch sub;
    // Gather rows: contiguous runs use Slice for efficiency; general case
    // is row-by-row assembly.
    sub.primary_keys.reserve(rows.size());
    for (int64_t r : rows) sub.primary_keys.push_back(batch.primary_keys[r]);
    sub.columns.reserve(batch.columns.size());
    for (const FieldColumn& col : batch.columns) {
      FieldColumn out;
      out.field_id = col.field_id;
      out.type = col.type;
      out.dim = col.dim;
      for (int64_t r : rows) {
        switch (col.type) {
          case DataType::kInt64:
            out.i64.push_back(col.i64[r]);
            break;
          case DataType::kFloat:
            out.f32.push_back(col.f32[r]);
            break;
          case DataType::kDouble:
            out.f64.push_back(col.f64[r]);
            break;
          case DataType::kBool:
            out.b8.push_back(col.b8[r]);
            break;
          case DataType::kString:
            out.str.push_back(col.str[r]);
            break;
          case DataType::kFloatVector:
            out.f32.insert(out.f32.end(), col.VectorAt(r),
                           col.VectorAt(r) + col.dim);
            break;
        }
      }
      sub.columns.push_back(std::move(out));
    }
    MANU_ASSIGN_OR_RETURN(Timestamp ts,
                          LoggerFor(meta.id, shard)
                              ->Append(meta, shard, std::move(sub), trace));
    max_ts = std::max(max_ts, ts);
  }
  return max_ts;
}

Result<Timestamp> LoggerFleet::Delete(const CollectionMeta& meta,
                                      const std::vector<int64_t>& pks,
                                      const TraceContext& trace) {
  std::vector<std::vector<int64_t>> shard_pks(meta.num_shards);
  for (int64_t pk : pks) {
    shard_pks[ShardOf(pk, meta.num_shards)].push_back(pk);
  }
  Timestamp max_ts = 0;
  for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
    if (shard_pks[shard].empty()) continue;
    MANU_ASSIGN_OR_RETURN(Timestamp ts,
                          LoggerFor(meta.id, shard)
                              ->Delete(meta, shard,
                                       std::move(shard_pks[shard]), trace));
    max_ts = std::max(max_ts, ts);
  }
  return max_ts;
}

}  // namespace manu
