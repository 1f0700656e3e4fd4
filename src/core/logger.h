#ifndef MANU_CORE_LOGGER_H_
#define MANU_CORE_LOGGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/trace.h"
#include "core/collection_meta.h"
#include "core/context.h"
#include "core/data_coord.h"
#include "core/hash_ring.h"
#include "storage/lsm_map.h"

namespace manu {

/// One logger node (Section 3.3): the entry point publishing data
/// manipulation requests into the WAL. For each request it verifies
/// legality, asks the data coordinator for the target segment, records the
/// entity->segment mapping in its local LSM tree (flushed to object storage
/// as SSTables) and appends to the WAL channel of the shard, whose broker
/// stamps the request's LSN block from the TSO as it stages the entry.
class Logger {
 public:
  Logger(NodeId id, const CoreContext& ctx, DataCoordinator* data_coord);

  NodeId id() const { return id_; }

  /// Publishes one shard's worth of rows. `batch` must contain rows of a
  /// single shard; its timestamps are assigned by the WAL at staging.
  /// Returns the max LSN.
  /// `trace` (optional) parents this shard's logger.append span.
  Result<Timestamp> Append(const CollectionMeta& meta, ShardId shard,
                           EntityBatch batch, const TraceContext& trace = {});

  /// Publishes tombstones for `pks` on `shard`. Unknown pks are filtered
  /// out using the LSM map (the paper's "checking if the entity to delete
  /// exists"). Returns the LSN (0 if everything was filtered).
  Result<Timestamp> Delete(const CollectionMeta& meta, ShardId shard,
                           std::vector<int64_t> pks,
                           const TraceContext& trace = {});

  /// Flushes all LSM memtables (called on shutdown / failover drills).
  Status FlushMaps();

  /// Lookup for tests: which segment holds `pk`.
  Result<SegmentId> LookupEntity(CollectionId collection, ShardId shard,
                                 int64_t pk);

  /// Requests currently inside Append/Delete (backpressure window).
  int64_t Inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  LsmEntityMap* MapFor(CollectionId collection, ShardId shard);
  /// The WAL publish fence: checks this instance's epoch against the
  /// persisted one. Handed to MessageQueue::Publish so the check runs
  /// INSIDE the broker's group-commit decision (a logger superseded while
  /// its entry sat in the append buffer is excluded before ack), not as a
  /// pre-publish check a concurrent failover could race past. Empty when
  /// liveness is disabled.
  MessageQueue::PublishFence InstanceFence() const;
  /// Reserves one slot in the bounded in-flight window
  /// (ManuConfig::logger_inflight_limit; <= 0 = unbounded). A full window
  /// returns kResourceExhausted with a retry-after hint BEFORE any side
  /// effect (no LSM mutation, no WAL entry), so a rejected write is a
  /// pure no-op the proxy can safely re-attempt.
  Status ReserveSlot();

  NodeId id_;
  CoreContext ctx_;
  DataCoordinator* data_coord_;
  std::atomic<int64_t> inflight_{0};
  std::mutex mu_;
  std::map<std::pair<CollectionId, ShardId>, std::unique_ptr<LsmEntityMap>>
      maps_;
};

/// The logger fleet: routes each shard channel to a logger via consistent
/// hashing and fans an insert/delete request out to per-shard sub-batches.
/// This is the client-facing write API the proxies call.
class LoggerFleet {
 public:
  LoggerFleet(const CoreContext& ctx, DataCoordinator* data_coord,
              int32_t num_loggers);

  /// Hash-partitions `batch` by primary key and appends every sub-batch.
  /// Returns the max LSN across shards (the insert's visibility point).
  Result<Timestamp> Insert(const CollectionMeta& meta, EntityBatch batch,
                           const TraceContext& trace = {});

  /// Routes deletes to shards by pk hash.
  Result<Timestamp> Delete(const CollectionMeta& meta,
                           const std::vector<int64_t>& pks,
                           const TraceContext& trace = {});

  /// Shard of a primary key (hash partitioning, Section 3.1).
  static ShardId ShardOf(int64_t pk, int32_t num_shards);

  Logger* LoggerFor(CollectionId collection, ShardId shard);
  size_t NumLoggers() const { return loggers_.size(); }

 private:
  std::vector<std::unique_ptr<Logger>> loggers_;
  HashRing ring_;
};

}  // namespace manu

#endif  // MANU_CORE_LOGGER_H_
