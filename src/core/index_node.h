#ifndef MANU_CORE_INDEX_NODE_H_
#define MANU_CORE_INDEX_NODE_H_

#include <atomic>
#include <memory>
#include <thread>

#include "common/threadpool.h"
#include "core/collection_meta.h"
#include "core/context.h"
#include "core/data_coord.h"

namespace manu {

/// Index node (Sections 3.2/3.5): builds vector indexes for sealed
/// segments. It loads *only the vector column* of the segment's binlog
/// (column-based binlog means no read amplification), builds the index the
/// collection declared, persists it to object storage and announces
/// kIndexBuilt on the coordination channel.
class IndexNode {
 public:
  IndexNode(NodeId id, const CoreContext& ctx, DataCoordinator* data_coord,
            int32_t threads);
  ~IndexNode();

  NodeId id() const { return id_; }

  /// Asynchronously builds the index for (segment, field) under the given
  /// collection index version.
  void SubmitBuild(SegmentMeta segment, FieldId field, IndexParams params,
                   int32_t version);

  /// Asynchronously builds the segment's attribute-index artifact
  /// (FilterIndex over all scalar columns) under the given collection index
  /// version. Dispatched beside SubmitBuild when
  /// config.filter_index_enable is set.
  void SubmitFilterBuild(SegmentMeta segment, int32_t version);

  /// Tasks submitted but not yet finished.
  int64_t PendingBuilds() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// Blocks until the queue drains (tests/benches).
  void WaitIdle() const;

 private:
  void Build(const SegmentMeta& segment, FieldId field,
             const IndexParams& params, int32_t version);
  void BuildFilter(const SegmentMeta& segment, int32_t version);

  NodeId id_;
  CoreContext ctx_;
  DataCoordinator* data_coord_;
  /// Lease fencing epoch (0 for a bare node without a LeaseManager);
  /// checked before every index registration.
  int64_t lease_epoch_ = 0;
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> stop_heartbeat_{false};
  /// Builds run on the pool, so unlike the pump-loop nodes the heartbeat
  /// needs its own (tiny) thread.
  std::thread heartbeat_;
  std::unique_ptr<ThreadPool> pool_;  ///< Destroyed first on teardown.
};

}  // namespace manu

#endif  // MANU_CORE_INDEX_NODE_H_
