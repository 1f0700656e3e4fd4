#ifndef MANU_CORE_MANU_H_
#define MANU_CORE_MANU_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/data_coord.h"
#include "core/data_node.h"
#include "core/index_coord.h"
#include "core/index_node.h"
#include "core/lease.h"
#include "core/logger.h"
#include "core/proxy.h"
#include "core/query_coord.h"
#include "core/query_node.h"
#include "core/root_coord.h"

namespace manu {

/// Everything that survives a process crash (Section 3.2's storage layer +
/// log backbone): the MetaStore (etcd), the WAL broker (Kafka/Pulsar), the
/// TSO state and the object store. A ManuInstance runs *over* a
/// DurableState; destroying the instance while a test (or a successor
/// instance) still holds the shared_ptr models a crash — compute state is
/// gone, durable state is not — and ManuInstance::Recover() rebuilds a
/// working deployment from it.
struct DurableState {
  MetaStore meta;
  Tso tso;
  MessageQueue mq{&tso};  ///< Stamps unstamped entries at staging.
  std::shared_ptr<ObjectStore> store;

  explicit DurableState(std::shared_ptr<ObjectStore> s = nullptr)
      : store(s != nullptr ? std::move(s)
                           : std::make_shared<MemoryObjectStore>()) {}
  DurableState(const DurableState&) = delete;
  DurableState& operator=(const DurableState&) = delete;
};

/// The whole Manu deployment in one process: storage layer (meta store +
/// object store), log backbone (broker, TSO, time-tick emitter), the four
/// coordinators, and the worker fleets (loggers, data / index / query
/// nodes). Nodes are real objects with their own threads communicating only
/// through the interfaces a networked deployment would use, so the
/// architecture of the paper — not its network stack — is what runs.
///
/// The public surface mirrors the PyManu API (Table 2): CreateCollection,
/// Insert, Delete, CreateIndex, Search (with filters, multi-vector search,
/// consistency levels and time travel).
///
/// Liveness (Section 3.6): every worker holds a heartbeat lease and the background watchdog fails over
/// workers whose lease expires — query nodes hand their channels/segments
/// to survivors, data nodes hand their shard channels to a survivor that
/// replays the WAL from the archived floor. Fencing epochs (persisted in
/// the MetaStore) reject commits from zombies and from superseded
/// instances.
class ManuInstance {
 public:
  /// Fresh deployment over a new DurableState. `store` defaults to an
  /// in-memory object store when null.
  explicit ManuInstance(ManuConfig config,
                        std::shared_ptr<ObjectStore> store = nullptr);

  /// Crash recovery: builds a new deployment over an existing DurableState
  /// (same MetaStore + ObjectStore + WAL broker). Collections are restored
  /// from the MetaStore, sealed segments and indexes reload via the
  /// coordination-channel replay, and shard channels replay the WAL from
  /// each shard's archived floor — so a tau=0 search on the recovered
  /// instance sees every previously acked write. Returns DataLoss without
  /// constructing anything when the WAL was truncated above a shard's
  /// archived floor (acked writes are unrecoverable). Acquiring the
  /// instance epoch fences the previous instance's loggers and data
  /// coordinator even if that process is still running.
  static Result<std::unique_ptr<ManuInstance>> Recover(
      ManuConfig config, std::shared_ptr<DurableState> durable);

  ~ManuInstance();

  ManuInstance(const ManuInstance&) = delete;
  ManuInstance& operator=(const ManuInstance&) = delete;

  // --- DDL ---
  Result<CollectionMeta> CreateCollection(CollectionSchema schema);
  Status DropCollection(const std::string& name);
  /// Declares the index for a vector field and schedules builds for already
  /// sealed segments (batch indexing) as well as future ones (stream
  /// indexing).
  Status CreateIndex(const std::string& collection, const std::string& field,
                     IndexParams params);

  // --- DML ---
  Result<Timestamp> Insert(const std::string& collection, EntityBatch batch);
  Result<Timestamp> Delete(const std::string& collection,
                           const std::vector<int64_t>& pks);

  // --- Query ---
  Result<SearchResult> Search(const SearchRequest& req);
  /// Batched search: see Proxy::BatchSearch.
  std::vector<Result<SearchResult>> BatchSearch(
      const std::vector<SearchRequest>& reqs);

  // --- Segment life cycle ---
  /// Seals all growing segments now (rather than waiting for size/idle
  /// triggers) and returns once data nodes have archived them and index
  /// nodes are idle. The synchronous barrier is for tests and benches; the
  /// production path is fully asynchronous.
  Status FlushAndWait(const std::string& collection, int64_t timeout_ms = 30000);

  /// Blocks until every query node serving the collection has consumed the
  /// WAL up to `ts` (tests). `timeout_ms` bounds the whole call, not each
  /// node's wait.
  Status WaitUntilVisible(const std::string& collection, Timestamp ts,
                          int64_t timeout_ms = 10000);

  // --- Segment maintenance ---
  /// Merges small sealed segments and physically drops tombstoned rows
  /// (Sections 3.1/3.5). Returns once the merged segments are indexed and
  /// serving and the inputs are released.
  Status Compact(const std::string& collection, int64_t timeout_ms = 60000);

  // --- Time travel (Section 4.3) ---
  Status Checkpoint(const std::string& collection);
  /// Log expiration: drops WAL entries older than `ts` from the
  /// collection's shard channels ("users can also specify an expiration
  /// period to delete outdated log"). Bounds the time-travel/replay
  /// horizon; data sealed into binlogs is unaffected. The truncation point
  /// is clamped to each shard's archived floor so crash recovery never
  /// loses acked writes: entries above the floor (not yet in binlogs) are
  /// always retained.
  Status TruncateLogBefore(const std::string& collection, Timestamp ts);

  // --- Elasticity & failures (Section 3.6 / Figure 9) ---
  Status ScaleQueryNodes(int32_t target);
  /// Manual kill + synchronous recovery (tests/benches).
  Status KillQueryNode(NodeId id);
  /// Abrupt kill: stops the node without telling any coordinator. Recovery
  /// happens automatically when the watchdog sees the lease expire.
  Status CrashQueryNode(NodeId id);
  /// Abrupt kill of a data node; the watchdog hands its shard channels to a
  /// survivor that replays the WAL from the archived floor.
  Status CrashDataNode(NodeId id);
  size_t NumQueryNodes() const { return query_coord_->NumQueryNodes(); }

  // --- Introspection ---
  /// Snapshot of cluster state: node fleet, per-collection segments and
  /// rows, memory, per-node liveness (lease epoch, heartbeat age),
  /// cumulative QPS counters and latency percentiles — the data behind the
  /// Attu GUI's "system view" (Section 4.2). Formatted as human-readable
  /// text.
  std::string DescribeCluster();

  // --- Component access (benches, tuner, advanced callers) ---
  RootCoordinator* root_coord() { return root_coord_.get(); }
  DataCoordinator* data_coord() { return data_coord_.get(); }
  IndexCoordinator* index_coord() { return index_coord_.get(); }
  QueryCoordinator* query_coord() { return query_coord_.get(); }
  Proxy* proxy() { return proxy_.get(); }
  ObjectStore* object_store() { return durable_->store.get(); }
  MessageQueue* mq() { return &durable_->mq; }
  Tso* tso() { return &durable_->tso; }
  LeaseManager* leases() { return leases_.get(); }
  int64_t instance_epoch() const { return instance_epoch_; }
  const ManuConfig& config() const { return config_; }

  /// The durable substrate. Holding this shared_ptr across this instance's
  /// destruction keeps the MetaStore/WAL/object store alive for Recover().
  std::shared_ptr<DurableState> durable_state() { return durable_; }

 private:
  ManuInstance(ManuConfig config, std::shared_ptr<DurableState> durable,
               bool recovered);

  CoreContext MakeContext() const;
  void BackgroundLoop();
  /// One watchdog sweep: revoke (fence) expired leases, then fail the dead
  /// workers over by role.
  void RunWatchdog();

  ManuConfig config_;
  std::shared_ptr<DurableState> durable_;
  std::unique_ptr<LeaseManager> leases_;  ///< Null when liveness disabled.
  int64_t instance_epoch_ = 0;
  std::unique_ptr<TimeTickEmitter> ticker_;

  std::unique_ptr<RootCoordinator> root_coord_;
  std::unique_ptr<DataCoordinator> data_coord_;
  std::unique_ptr<IndexCoordinator> index_coord_;
  std::unique_ptr<QueryCoordinator> query_coord_;
  std::unique_ptr<LoggerFleet> loggers_;
  std::unique_ptr<Proxy> proxy_;

  std::vector<std::unique_ptr<DataNode>> data_nodes_;
  std::vector<std::unique_ptr<IndexNode>> index_nodes_;

  std::atomic<int64_t> next_node_id_{100};
  std::atomic<bool> stop_{false};
  std::thread background_;
};

}  // namespace manu

#endif  // MANU_CORE_MANU_H_
