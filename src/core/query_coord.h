#ifndef MANU_CORE_QUERY_COORD_H_
#define MANU_CORE_QUERY_COORD_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/collection_meta.h"
#include "core/context.h"
#include "core/data_coord.h"
#include "core/placement.h"
#include "core/query_node.h"
#include "core/root_coord.h"

namespace manu {

/// Query coordinator (Sections 3.2/3.6): manages the fleet of query nodes,
/// assigns shard channels (growing data) and sealed segments to nodes, and
/// handles scaling, rebalancing and failure recovery. It subscribes to the
/// coordination channel; on kIndexBuilt it directs the least-loaded node to
/// load the segment's index + binlog and every node to drop the growing
/// twin. Segment redistribution is not atomic — a segment may briefly live
/// on two nodes — which is safe because proxies dedup results by pk.
///
/// Sealed-segment placement is split out: WHO should serve a segment (the
/// desired-state table, plus the repairs that converge actual onto desired)
/// lives in PlacementManager; this class keeps the serving machinery —
/// channels, node lifecycle, routing — and implements PlacementHost so
/// reconciler decisions act through the coordinator's node set and lock.
class QueryCoordinator : public PlacementHost {
 public:
  QueryCoordinator(const CoreContext& ctx, DataCoordinator* data_coord,
                   RootCoordinator* root_coord);
  ~QueryCoordinator() override;

  void Start();
  void Stop();

  // --- Fleet management ---

  /// Registers and starts serving through a node. New nodes receive
  /// segments on the next Rebalance().
  void AddQueryNode(std::shared_ptr<QueryNode> node);

  /// Graceful scale-down (drain): marks the node draining (no new replicas
  /// land on it, but searches keep routing to it), moves its primary
  /// channels, loads every sole-copy segment onto survivors FIRST, and only
  /// then releases + removes the node — zero coverage dip throughout. A
  /// drain interrupted by a topology change leaves the node serving and
  /// returns Unavailable (retryable).
  Status RemoveQueryNode(NodeId id);

  /// Simulated crash: drops the node without cooperation and restores its
  /// segments on healthy nodes from object storage (failure recovery).
  /// Manual test hook — the automatic path is the watchdog calling
  /// OnNodeDead after the node's lease expires.
  Status KillQueryNode(NodeId id);

  /// Watchdog failover: same recovery as KillQueryNode, driven by lease
  /// expiry instead of a manual call. NotFound when the node was already
  /// removed (e.g. a manual kill raced the watchdog).
  Status OnNodeDead(NodeId id);

  /// Abrupt-kill test hook: stops the node's pump (searches start failing,
  /// heartbeats stop) but tells the coordinator NOTHING — recovery must
  /// come from the watchdog noticing the expired lease.
  Status CrashNode(NodeId id);

  size_t NumQueryNodes() const;
  std::vector<std::shared_ptr<QueryNode>> Nodes() const;

  // --- Collection serving ---

  /// Starts serving a collection: shard channels are spread over the
  /// current nodes; announces kLoadCollection.
  Status LoadCollection(const CollectionMeta& meta);
  Status ReleaseCollection(CollectionId collection);

  /// Nodes currently serving `collection` (the proxy's routing snapshot).
  std::vector<std::shared_ptr<QueryNode>> NodesFor(
      CollectionId collection) const;

  /// One fan-out target in a routing plan (PlanFor).
  struct NodeRoute {
    std::shared_ptr<QueryNode> node;
    /// Segments this route is expected to scan (assigned sealed + the
    /// node's growing-only segments): the proxy's coverage weight under
    /// allow_partial.
    int64_t weight = 0;
    /// Sealed segments assigned to this node, sorted ascending
    /// (NodeSearchRequest::sealed_filter). Empty = nothing assigned; the
    /// node is in the plan for its growing segments / channel gate.
    std::vector<SegmentId> sealed_filter;
  };

  /// A routing snapshot: the fan-out targets plus the sealed segments that
  /// currently have NO live replica. Unroutable segments are not silently
  /// dropped — they count against coverage (allow_partial) or fail the
  /// query (strict), and the reconciler treats them as repair triggers.
  struct Plan {
    std::vector<NodeRoute> routes;
    int64_t unroutable = 0;
    /// Growing->sealed handoffs applied when the plan was taken
    /// (NodeSearchRequest::plan_handoff_seq).
    uint64_t handoff_seq = 0;
  };

  /// Load-aware routing plan: every shard channel owner is included (they
  /// alone hold growing segments), and each sealed segment is assigned to
  /// exactly ONE owner picked by power-of-two-choices over the replica set
  /// (two deterministic pseudo-random candidates, lower load wins; load =
  /// heartbeat-piggybacked NodeLoad when fresh, the node's live snapshot
  /// otherwise). With replica_factor > 1 this replaces NodesFor's
  /// dispatch-everyone-scan-everything with one scan per segment spread by
  /// load, which is what makes hot replicas add throughput instead of just
  /// redundancy.
  Plan PlanFor(CollectionId collection) const;

  /// Converges placement onto the current fleet: tops up under-replicated
  /// groups (scale-up spread), then moves replicas from the most- to the
  /// least-loaded node until per-node counts differ by at most one.
  Status Rebalance();

  PlacementManager* placement() const { return placement_.get(); }

  // --- PlacementHost (reconciler decisions act through the coordinator) ---

  std::vector<std::pair<NodeId, uint64_t>> RepairCandidates() override;
  Status LoadReplica(NodeId target, const SegmentMeta& meta,
                     std::shared_ptr<const CollectionSchema> schema) override;
  void ReleaseReplica(NodeId target, CollectionId collection,
                      SegmentId segment) override;
  int64_t TopologyEpoch() const override {
    return topo_epoch_.load(std::memory_order_acquire);
  }

 private:
  struct CollectionServing {
    std::shared_ptr<const CollectionSchema> schema;
    std::map<FieldId, IndexParams> index_params;
    int32_t num_shards = 0;
    /// shard -> node id currently pumping that channel.
    std::map<ShardId, NodeId> channel_owner;
    /// Compaction: merged segment -> segments to release once it serves.
    std::map<SegmentId, std::vector<SegmentId>> pending_drops;
  };

  void Run();
  /// Shared crash-recovery body (mu_ held): stops/evicts the victim,
  /// promotes its channels, and synchronously reloads segments whose
  /// replica group hit ZERO live copies (coverage); groups merely below
  /// desired are the reconciler's to top up (redundancy).
  Status RecoverDeadNodeLocked(NodeId id);
  void OnSegmentReady(const SegmentMeta& meta);
  /// Releases `segments` from their owners (mu_ held by caller).
  void ReleaseSegmentsLocked(CollectionId collection,
                             const std::vector<SegmentId>& segments);
  std::shared_ptr<QueryNode> NodeById(NodeId id) const;
  /// Least-loaded non-draining node (mu_ held).
  std::shared_ptr<QueryNode> LeastLoadedLocked() const;
  /// Routing load score (lower = less loaded): heartbeat load when fresh,
  /// else the node's direct snapshot.
  int64_t RouteLoadScore(const std::shared_ptr<QueryNode>& node) const;

  CoreContext ctx_;
  DataCoordinator* data_coord_;
  RootCoordinator* root_coord_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<QueryNode>> nodes_;
  std::map<CollectionId, CollectionServing> serving_;
  /// Nodes mid-drain: still serving (searches route to them) but excluded
  /// from repair targets and new placements.
  std::set<NodeId> draining_;

  /// Desired-state table + reconciler. Lock order: mu_ -> placement table
  /// mutex; placement host callbacks take mu_ but are never invoked under
  /// the table mutex.
  std::unique_ptr<PlacementManager> placement_;
  /// Bumped by every failover, drain start/finish and node add — the fence
  /// repairs are planned/committed against (see PlacementHost).
  std::atomic<int64_t> topo_epoch_{0};

  std::atomic<bool> stop_{false};
  std::thread thread_;
  /// Per-plan counter feeding the deterministic p2c candidate draw.
  mutable std::atomic<uint64_t> route_seq_{0};
  /// Growing->sealed handoffs applied so far (mu_). OnSegmentReady runs
  /// entirely under mu_, so a plan sees a handoff whole or not at all.
  uint64_t handoff_seq_ = 0;
};

}  // namespace manu

#endif  // MANU_CORE_QUERY_COORD_H_
