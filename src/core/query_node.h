#ifndef MANU_CORE_QUERY_NODE_H_
#define MANU_CORE_QUERY_NODE_H_

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/threadpool.h"
#include "common/trace.h"
#include "core/collection_meta.h"
#include "core/context.h"
#include "core/lease.h"
#include "core/segment.h"

namespace manu {

/// One (field, query vector, weight) search target. A single target is a
/// classic vector search; several targets form a multi-vector search whose
/// entity score is the weighted sum of per-field canonical scores.
struct SearchTarget {
  FieldId field = 0;
  const float* query = nullptr;
  float weight = 1.0f;
};

/// Node-level search request, produced by the proxy.
struct NodeSearchRequest {
  CollectionId collection = kInvalidCollectionId;
  std::vector<SearchTarget> targets;
  SearchParams params;
  /// Query issue LSN Lr: both the MVCC read point and the consistency
  /// reference (time-travel queries pass a historical value).
  Timestamp read_ts = kMaxTimestamp;
  /// Staleness tolerance tau in ms; <0 means infinity (eventual).
  int64_t staleness_ms = -1;
  /// Absolute deadline in NowMicros() terms; 0 = none. Set by the proxy
  /// from its per-node wait bound so that a straggling node stops fanning
  /// out new segment tasks once the proxy has abandoned the query, instead
  /// of burning its executor on a result nobody will read. Checked at
  /// admission (a dead-on-arrival request never claims an executor slot),
  /// again when the request leaves the queue, and before every segment
  /// claim.
  int64_t deadline_us = 0;
  /// Sealed segments this node should scan, SORTED ascending; empty = all
  /// local sealed segments (the pre-replica-routing behavior, and what
  /// direct callers that bypass the coordinator plan get). The proxy fills
  /// it from QueryCoordinator::PlanFor so that with replica_factor > 1 each
  /// sealed segment is scanned by exactly one (load-chosen) owner instead
  /// of every owner. Growing segments are always scanned — they exist only
  /// on the shard primary.
  std::vector<SegmentId> sealed_filter;
  /// QueryCoordinator::Plan::handoff_seq of the plan sealed_filter came
  /// from. A sealed segment that replaced this node's growing twin in a
  /// later handoff is in no route's filter (the plan saw it growing, here),
  /// so the node scans it on top of the filter. The default keeps the
  /// filter exact for callers without a plan.
  uint64_t plan_handoff_seq = std::numeric_limits<uint64_t>::max();
  const FilterExpr* filter = nullptr;
  /// Tracing context of the originating request (inactive by default, which
  /// makes every span on the node path a no-op). Spans opened here parent
  /// to the proxy's fan-out (or retry) span.
  TraceContext trace;
};

/// Query node (Sections 3.2/3.6): serves vector searches over its local
/// share of segments. Data arrives from the three sources the paper names:
/// the WAL (growing segments, consumed by this node's pump thread), index
/// files and binlog (sealed segments loaded from object storage on index
/// completion, rebalances and recovery).
class QueryNode {
 public:
  QueryNode(NodeId id, const CoreContext& ctx);
  ~QueryNode();

  NodeId id() const { return id_; }

  void Start();
  void Stop();

  // --- Serving assignments (driven by the query coordinator) ---

  /// Subscribes to a shard channel (from the earliest retained offset, so a
  /// late subscriber replays history — the recovery path). Only the shard's
  /// *primary* node materializes growing segments from inserts; every
  /// serving node still consumes the channel for deletes and time-ticks,
  /// which keeps tombstones and the consistency gate correct on nodes that
  /// hold only sealed segments of that shard.
  void AddChannel(CollectionId collection, ShardId shard,
                  std::shared_ptr<const CollectionSchema> schema,
                  bool primary);
  /// Promotes this node to primary for a shard it already follows,
  /// replaying the channel from the start to rebuild growing state.
  void PromoteChannel(CollectionId collection, ShardId shard);
  /// Demotes and drops growing segments of the shard (primary moved away).
  void DemoteChannel(CollectionId collection, ShardId shard);
  void RemoveCollection(CollectionId collection);

  /// Loads a sealed segment (binlog + index if present) from object
  /// storage; applies buffered deletes, backfilling tombstones the buffer
  /// compaction already pruned from the retained WAL (sealed binlogs are
  /// inserts-only and this node's channel subscriptions are past those
  /// entries, so without the backfill a handed-off segment would resurrect
  /// rows deleted before the compaction floor); replaces any growing twin.
  /// `handoff_seq` > 0 marks a growing->sealed handoff: if a growing twin
  /// is replaced, searches planned before that handoff still scan the
  /// sealed copy (NodeSearchRequest::plan_handoff_seq).
  Status LoadSealedSegment(const SegmentMeta& meta,
                           std::shared_ptr<const CollectionSchema> schema,
                           uint64_t handoff_seq = 0);

  /// Drops the growing copy of `segment` (after its sealed twin is loaded
  /// somewhere).
  void DropGrowing(CollectionId collection, SegmentId segment);
  /// Releases a sealed segment (scale-down / rebalance).
  void ReleaseSegment(CollectionId collection, SegmentId segment);

  // --- Search ---

  /// Node-local search with the delta-consistency gate: waits until this
  /// node's consumed time-ticks satisfy Lr - Ls < tau, then fans the
  /// per-segment searches across the executor pool and reduces to a
  /// node-level top-k (Section 3.6 two-phase reduce; the proxy does the
  /// final phase).
  ///
  /// Executes on the node's private executor pool (config.query_threads
  /// wide): a node's compute capacity is bounded, which is what makes
  /// query-node scaling (Figures 9/10) meaningful in an in-process
  /// simulation — callers beyond the pool width queue. A single query on
  /// an idle node uses the whole pool (intra-query parallelism, Fig. 8);
  /// under concurrency the shared claim counters in ParallelFor degrade
  /// gracefully to one thread per query.
  Result<std::vector<SegmentHit>> Search(const NodeSearchRequest& req);

  /// Batched variant (Section 3.6: proxies batch requests of the same
  /// type): each request is its own executor task, so a batch spreads
  /// across the pool instead of serializing on one thread; the amortization
  /// win of batching (one proxy dispatch, one gather) is kept.
  std::vector<Result<std::vector<SegmentHit>>> SearchBatch(
      const std::vector<NodeSearchRequest>& reqs);

  // --- Introspection for the coordinator / autoscaler ---

  std::vector<SegmentId> SealedSegments(CollectionId collection) const;
  /// All delete tombstones this node has consumed for the collection
  /// (compaction input).
  std::vector<int64_t> DeletedPks(CollectionId collection) const;
  Result<SegmentMeta> SealedMeta(CollectionId collection,
                                 SegmentId segment) const;
  int64_t NumGrowingRows(CollectionId collection) const;
  /// Segments this node answers searches from (sealed + growing without a
  /// sealed twin); the proxy's coverage weight for partial results.
  int64_t NumServingSegments(CollectionId collection) const;
  /// Growing segments with no sealed twin — the share of this node's
  /// serving set that a coordinator plan cannot route elsewhere (they live
  /// only on the shard primary). PlanFor's coverage weights count these on
  /// top of the sealed segments it assigns.
  int64_t NumGrowingOnlySegments(CollectionId collection) const;
  /// Load signal for the lease-heartbeat piggyback and DescribeCluster.
  NodeLoad LoadSnapshot() const;
  uint64_t MemoryBytes() const;
  /// Min last-consumed tick LSN across this node's channels of the
  /// collection (Ls of Section 3.4).
  Timestamp ServiceTs(CollectionId collection) const;
  /// Blocks until every channel of the collection has consumed entries up
  /// to `ts` (tests use this instead of sleeping).
  bool WaitServiceTs(CollectionId collection, Timestamp ts, int64_t max_ms);

 private:
  struct ChannelState {
    std::shared_ptr<MessageQueue::Subscription> sub;
    CollectionId collection;
    ShardId shard;
    bool primary = false;
    Timestamp service_ts = 0;
    /// Subscription missed() already surfaced (pump-loop gap detection).
    int64_t missed_seen = 0;
  };

  struct CollectionState {
    std::shared_ptr<const CollectionSchema> schema;
    std::map<SegmentId, std::shared_ptr<GrowingSegment>> growing;
    std::map<SegmentId, ShardId> growing_shard;
    std::map<SegmentId, std::shared_ptr<SealedSegment>> sealed;
    std::map<SegmentId, SegmentMeta> sealed_meta;
    /// Sealed segments that replaced a growing twin here, by handoff
    /// sequence number (LoadSealedSegment).
    std::map<SegmentId, uint64_t> handoff_seq;
    /// Delete tombstones consumed so far, re-applied to late-loaded
    /// segments: pk -> sorted unique delete LSNs. Every tombstone is kept
    /// with its own LSN (collapsing to the max would hide the pre-reinsert
    /// version from MVCC reads between two deletes of the same pk);
    /// re-consumption after a PromoteChannel replay dedupes on exact
    /// (pk, LSN). Compacted below the min channel service_ts once the
    /// tombstone count outgrows config.delete_buffer_compact_min;
    /// LoadSealedSegment backfills the compacted prefix from the WAL.
    std::unordered_map<int64_t, std::vector<Timestamp>> deletes;
    /// Total tombstones across all pks (the compaction trigger metric).
    size_t deletes_count = 0;
    /// Next tombstone count at which the compaction scan runs (doubling
    /// schedule keeps the scan amortized O(1) per delete).
    size_t deletes_compact_at = 0;
    /// Highest floor a compaction has pruned the buffer to. Tombstones
    /// below it exist only in the WAL: LoadSealedSegment must replay the
    /// shard channel up to this LSN for segments that arrive later (the
    /// node's own subscriptions are already past those entries).
    Timestamp deletes_floor_ts = 0;
  };

  void Run();
  void HandleEntry(ChannelState* ch, const LogEntry& entry);
  /// Dedup/compaction of the tombstone buffer (under the unique lock).
  void MaybeCompactDeletesLocked(CollectionId collection,
                                 CollectionState* coll);
  Timestamp ServiceTsLocked(CollectionId collection) const;
  bool WaitConsistency(CollectionId collection, Timestamp read_ts,
                       int64_t staleness_ms);
  Result<std::vector<SegmentHit>> SearchInternal(
      const NodeSearchRequest& req);
  /// Bounded admission (ROADMAP item 3): fails fast on an already-expired
  /// deadline (kTimeout) or a full node (admission_node_inflight cap,
  /// kResourceExhausted + retry-after) — refused requests never claim an
  /// executor slot. On OK the request holds an outstanding_ slot that
  /// RunAdmitted releases.
  Status AdmitSearch(const NodeSearchRequest& req);
  /// Executor-side wrapper: tracks executing_, feeds the EWMA service-time
  /// signal, releases the outstanding_ slot.
  Result<std::vector<SegmentHit>> RunAdmitted(const NodeSearchRequest& req);

  NodeId id_;
  CoreContext ctx_;
  /// Lease fencing epoch (0 when liveness is off); granted in Start().
  int64_t lease_epoch_ = 0;

  mutable std::shared_mutex mu_;
  std::condition_variable_any tick_cv_;
  /// shared_ptr: the pump thread snapshots channels outside the lock while
  /// coordinator calls may erase them concurrently.
  std::vector<std::shared_ptr<ChannelState>> channels_;
  std::map<CollectionId, CollectionState> collections_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::unique_ptr<ThreadPool> executor_;  ///< Per-node search capacity.

  // --- Overload signals (core/admission.h; read by LoadSnapshot) ---
  std::atomic<int64_t> outstanding_{0};  ///< Admitted (queued + executing).
  std::atomic<int64_t> executing_{0};
  std::atomic<int64_t> ewma_latency_us_{0};
  std::atomic<int64_t> deadline_rejects_{0};
  std::atomic<int64_t> overload_rejects_{0};
};

}  // namespace manu

#endif  // MANU_CORE_QUERY_NODE_H_
