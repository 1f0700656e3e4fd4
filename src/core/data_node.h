#ifndef MANU_CORE_DATA_NODE_H_
#define MANU_CORE_DATA_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/collection_meta.h"
#include "core/context.h"
#include "core/data_coord.h"

namespace manu {

/// Data node (Sections 3.2/3.3): subscribes to WAL shard channels and
/// converts row-based WAL entries into column-based binlogs ("log
/// archiving"). It buffers rows per segment and seals a segment — writes its
/// binlog to object storage, registers it with the data coordinator and
/// announces kSegmentSealed on the coordination channel — when the WAL shows
/// that the segment is complete (rows for a newer segment on the shard, or a
/// kFlush barrier).
class DataNode {
 public:
  DataNode(NodeId id, const CoreContext& ctx, DataCoordinator* data_coord);
  ~DataNode();

  NodeId id() const { return id_; }

  /// Subscribes to a shard channel. `replay_from` = 0 starts at the
  /// earliest retained offset; > 0 starts at the first entry with
  /// LSN >= replay_from (failover/recovery: rows at or below the archived
  /// floor are already in sealed binlogs, so the new owner replays only the
  /// unarchived tail).
  void AssignChannel(CollectionId collection, ShardId shard,
                     std::shared_ptr<const CollectionSchema> schema,
                     Timestamp replay_from = 0);
  void UnassignCollection(CollectionId collection);

  void Start();
  void Stop();

  /// Number of segments this node has sealed (for tests/metrics).
  int64_t NumSealed() const { return sealed_.load(std::memory_order_relaxed); }

 private:
  struct Buffer {
    EntityBatch rows;
    Timestamp last_lsn = 0;
    std::shared_ptr<const CollectionSchema> schema;
  };

  struct ChannelState {
    std::shared_ptr<MessageQueue::Subscription> sub;
    CollectionId collection;
    ShardId shard;
    std::shared_ptr<const CollectionSchema> schema;
    std::map<SegmentId, Buffer> buffers;
    /// Subscription missed() already surfaced (pump-loop gap detection).
    int64_t missed_seen = 0;
  };

  void Run();
  void HandleEntry(ChannelState* ch, const LogEntry& entry);
  void SealBuffer(ChannelState* ch, SegmentId segment, Buffer buffer);

  NodeId id_;
  CoreContext ctx_;
  DataCoordinator* data_coord_;
  /// Lease fencing epoch (0 for a bare node without a LeaseManager);
  /// granted in Start(), checked before every binlog archive.
  int64_t lease_epoch_ = 0;

  std::mutex mu_;
  /// shared_ptr: the pump thread snapshots channels outside the lock while
  /// UnassignCollection may erase them concurrently.
  std::vector<std::shared_ptr<ChannelState>> channels_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> sealed_{0};
  std::thread thread_;
};

}  // namespace manu

#endif  // MANU_CORE_DATA_NODE_H_
