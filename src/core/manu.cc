#include "core/manu.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace manu {

namespace {

/// Recovery pre-check: every shard channel must retain the WAL above the
/// shard's archived floor (max last_lsn over its non-compaction sealed
/// segments). A truncation above the floor dropped acked writes that exist
/// neither in binlogs nor in the log — surviving state is still consistent,
/// but recovery cannot honor "every acked write is visible", so it refuses
/// with DataLoss instead of silently serving a hole. Truncations at or
/// below the floor are the safe clamp: everything dropped is in binlogs.
Status ValidateWalCoverage(DurableState* durable) {
  for (const auto& [key, entry] : durable->meta.List("collection/")) {
    auto meta = CollectionMeta::Deserialize(entry.value);
    if (!meta.ok() || meta.value().dropped) continue;
    const CollectionId cid = meta.value().id;

    std::map<ShardId, Timestamp> floors;
    const std::string prefix = "segment/" + std::to_string(cid) + "/";
    for (const auto& [skey, sentry] : durable->meta.List(prefix)) {
      auto seg = SegmentMeta::Deserialize(sentry.value);
      if (!seg.ok() || seg.value().from_compaction) continue;
      Timestamp& floor = floors[seg.value().shard];
      floor = std::max(floor, seg.value().last_lsn);
    }

    for (ShardId shard = 0; shard < meta.value().num_shards; ++shard) {
      const std::string channel = ShardChannelName(cid, shard);
      const Timestamp floor =
          floors.count(shard) > 0 ? floors[shard] : Timestamp{0};
      const Timestamp trunc = durable->mq.TruncatedBelowTs(channel);
      const Timestamp trunc_del = durable->mq.TruncatedDeleteTs(channel);
      if (trunc > floor || trunc_del > floor) {
        return Status::DataLoss(
            "collection " + std::to_string(cid) + " shard " +
            std::to_string(shard) + ": WAL truncated through lsn " +
            std::to_string(std::max(trunc, trunc_del)) +
            " but binlogs only cover lsn " + std::to_string(floor));
      }
    }
  }
  return Status::OK();
}

}  // namespace

ManuInstance::ManuInstance(ManuConfig config,
                           std::shared_ptr<ObjectStore> store)
    : ManuInstance(std::move(config),
                   std::make_shared<DurableState>(std::move(store)),
                   /*recovered=*/false) {}

Result<std::unique_ptr<ManuInstance>> ManuInstance::Recover(
    ManuConfig config, std::shared_ptr<DurableState> durable) {
  if (durable == nullptr) {
    return Status::InvalidArgument("Recover needs a durable state");
  }
  MANU_RETURN_NOT_OK(ValidateWalCoverage(durable.get()));
  // Private ctor: not reachable via make_unique.
  return std::unique_ptr<ManuInstance>(new ManuInstance(
      std::move(config), std::move(durable), /*recovered=*/true));
}

CoreContext ManuInstance::MakeContext() const {
  CoreContext ctx;
  ctx.config = config_;
  ctx.meta = &durable_->meta;
  ctx.store = durable_->store.get();
  ctx.mq = &durable_->mq;
  ctx.tso = &durable_->tso;
  ctx.ticker = ticker_.get();
  ctx.leases = leases_.get();
  ctx.instance_epoch = instance_epoch_;
  return ctx;
}

ManuInstance::ManuInstance(ManuConfig config,
                           std::shared_ptr<DurableState> durable,
                           bool recovered)
    : config_(config), durable_(std::move(durable)) {
  // Process-wide tracer follows the last-constructed instance's config
  // (tests construct instances serially; a production deployment has one).
  Tracer::Global().Configure(config_.trace_sample_every,
                             config_.slow_query_trace_ms * 1000);

  WalOptions wal_options;
  wal_options.group_max_entries = config_.wal_group_max_entries;
  wal_options.flush_linger_us = config_.wal_flush_linger_us;
  wal_options.sim_flush_latency_us = config_.wal_sim_flush_latency_us;
  durable_->mq.SetOptions(wal_options);

  ticker_ = std::make_unique<TimeTickEmitter>(
      &durable_->mq, &durable_->tso, config_.time_tick_interval_ms);

  leases_ = std::make_unique<LeaseManager>(&durable_->meta,
                                           config_.lease_ttl_ms);
  // Fences the previous incarnation (its loggers / data coordinator see
  // epoch mismatches at their commit points from here on).
  instance_epoch_ = leases_->AcquireInstanceEpoch();

  const CoreContext ctx = MakeContext();

  root_coord_ = std::make_unique<RootCoordinator>(ctx);
  data_coord_ = std::make_unique<DataCoordinator>(ctx);
  index_coord_ = std::make_unique<IndexCoordinator>(ctx, data_coord_.get(),
                                                    root_coord_.get());
  query_coord_ = std::make_unique<QueryCoordinator>(ctx, data_coord_.get(),
                                                    root_coord_.get());
  loggers_ = std::make_unique<LoggerFleet>(ctx, data_coord_.get(),
                                           config_.num_loggers);
  proxy_ = std::make_unique<Proxy>(ctx, root_coord_.get(),
                                   query_coord_.get(), loggers_.get());

  for (int32_t i = 0; i < config_.num_data_nodes; ++i) {
    auto node = std::make_unique<DataNode>(
        next_node_id_.fetch_add(1), ctx, data_coord_.get());
    node->Start();
    data_coord_->AddDataNode(node.get());
    data_nodes_.push_back(std::move(node));
  }
  for (int32_t i = 0; i < config_.num_index_nodes; ++i) {
    index_nodes_.push_back(std::make_unique<IndexNode>(
        next_node_id_.fetch_add(1), ctx, data_coord_.get(),
        config_.index_build_threads));
    index_coord_->AddIndexNode(index_nodes_.back().get());
  }
  for (int32_t i = 0; i < config_.num_query_nodes; ++i) {
    auto node = std::make_shared<QueryNode>(next_node_id_.fetch_add(1), ctx);
    node->Start();
    query_coord_->AddQueryNode(std::move(node));
  }

  if (recovered) {
    // Rebuild control-plane state from the MetaStore, then re-bind the data
    // plane: shard channels replay the WAL from each shard's archived floor
    // (rows at or below it live in sealed binlogs), and the coordination
    // channel — consumed from kEarliest when the coordinators start below —
    // replays kSegmentSealed/kIndexBuilt so query nodes reload every sealed
    // segment and index.
    std::vector<CollectionMeta> restored = root_coord_->Restore();
    data_coord_->Restore(restored);
    for (const CollectionMeta& meta : restored) {
      for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
        ticker_->RegisterChannel(ShardChannelName(meta.id, shard), meta.id,
                                 shard);
      }
      Status st =
          data_coord_->AssignShardChannels(meta, /*replay_from_floor=*/true);
      if (st.ok()) st = query_coord_->LoadCollection(meta);
      if (!st.ok()) {
        MANU_LOG_ERROR << "recovery of collection " << meta.id
                       << " failed: " << st.ToString();
      }
    }
    if (!restored.empty()) {
      MANU_LOG_INFO << "recovered instance (epoch " << instance_epoch_
                    << ") serving " << restored.size() << " collections";
    }
  }

  index_coord_->Start();
  query_coord_->Start();
  background_ = std::thread([this] { BackgroundLoop(); });
}

ManuInstance::~ManuInstance() {
  stop_.store(true, std::memory_order_release);
  if (background_.joinable()) background_.join();
  // Order matters: stop log consumers before the broker, producers last.
  index_coord_->Stop();
  query_coord_->Stop();
  for (auto& node : query_coord_->Nodes()) node->Stop();
  for (auto& node : data_nodes_) node->Stop();
  index_nodes_.clear();  // Joins build pools.
  ticker_->Stop();
  // The broker shuts down only with the last owner of the durable state: a
  // caller holding durable_state() for Recover() needs the retained WAL.
  if (durable_.use_count() == 1) durable_->mq.Shutdown();
}

void ManuInstance::BackgroundLoop() {
  const int64_t seal_interval =
      std::max<int64_t>(10, config_.segment_idle_seal_ms / 4);
  const int64_t watchdog_interval =
      std::max<int64_t>(10, config_.watchdog_interval_ms);
  int64_t next_seal = NowMs() + seal_interval;
  int64_t next_watchdog = NowMs() + watchdog_interval;
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep in small slices so shutdown never waits out a long interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (NowMs() >= next_seal) {
      next_seal = NowMs() + seal_interval;
      data_coord_->CheckIdleSegments();
    }
    if (NowMs() >= next_watchdog) {
      next_watchdog = NowMs() + watchdog_interval;
      RunWatchdog();
    }
  }
}

void ManuInstance::RunWatchdog() {
  for (const LeaseInfo& lease : leases_->ExpiredLeases(NowMs())) {
    MetricsRegistry::Global().GetCounter("lease.missed_heartbeats")->Add(1);
    // Fence first (persisted epoch bump rejects the zombie's in-flight
    // commits), then fail over.
    leases_->Revoke(lease.node);
    MANU_LOG_WARN << lease.role << " node " << lease.node
                  << " missed its lease (last heartbeat "
                  << NowMs() - lease.last_renew_ms << "ms ago); failing over";
    Status st = Status::OK();
    if (lease.role == "query") {
      st = query_coord_->OnNodeDead(lease.node);
    } else if (lease.role == "data") {
      st = data_coord_->OnDataNodeDead(lease.node);
    } else if (lease.role == "index") {
      // In-flight builds are fenced at RegisterIndex; pending ones get
      // re-dispatched by a future CreateIndex/RequestBuildAll.
      index_coord_->RemoveIndexNode(lease.node);
    }
    if (st.ok()) {
      // MTTR as a user would see it: from the last successful heartbeat
      // (the crash happened some unknown time after it) to failover done.
      MetricsRegistry::Global()
          .GetGauge("cluster.mttr_ms")
          ->Set(NowMs() - lease.last_renew_ms);
    } else {
      MANU_LOG_ERROR << "failover of " << lease.role << " node "
                     << lease.node << " failed: " << st.ToString();
    }
  }
}

Result<CollectionMeta> ManuInstance::CreateCollection(
    CollectionSchema schema) {
  MANU_ASSIGN_OR_RETURN(
      CollectionMeta meta,
      root_coord_->CreateCollection(std::move(schema), config_.num_shards));
  data_coord_->OnCollectionCreated(meta);

  for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
    // Shard channels: ticked by the emitter, archived by a data node.
    ticker_->RegisterChannel(ShardChannelName(meta.id, shard), meta.id,
                             shard);
  }
  MANU_RETURN_NOT_OK(data_coord_->AssignShardChannels(meta));
  MANU_RETURN_NOT_OK(query_coord_->LoadCollection(meta));
  return meta;
}

Status ManuInstance::DropCollection(const std::string& name) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(name));
  MANU_RETURN_NOT_OK(root_coord_->DropCollection(name));
  query_coord_->ReleaseCollection(meta.id);
  for (auto& node : data_nodes_) node->UnassignCollection(meta.id);
  for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
    ticker_->UnregisterChannel(ShardChannelName(meta.id, shard));
  }
  data_coord_->OnCollectionDropped(meta.id);
  return Status::OK();
}

Status ManuInstance::CreateIndex(const std::string& collection,
                                 const std::string& field,
                                 IndexParams params) {
  MANU_RETURN_NOT_OK(root_coord_->DeclareIndex(collection, field, params));
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  return index_coord_->RequestBuildAll(meta.id);
}

Result<Timestamp> ManuInstance::Insert(const std::string& collection,
                                       EntityBatch batch) {
  return proxy_->Insert(collection, std::move(batch));
}

Result<Timestamp> ManuInstance::Delete(const std::string& collection,
                                       const std::vector<int64_t>& pks) {
  return proxy_->Delete(collection, pks);
}

Result<SearchResult> ManuInstance::Search(const SearchRequest& req) {
  return proxy_->Search(req);
}

std::vector<Result<SearchResult>> ManuInstance::BatchSearch(
    const std::vector<SearchRequest>& reqs) {
  return proxy_->BatchSearch(reqs);
}

Status ManuInstance::FlushAndWait(const std::string& collection,
                                  int64_t timeout_ms) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  MANU_ASSIGN_OR_RETURN(std::vector<SegmentId> rolled,
                        data_coord_->Flush(meta.id));

  const bool wants_index = !meta.index_params.empty();
  const int64_t deadline = NowMs() + timeout_ms;

  auto segment_ready = [&](SegmentId segment) {
    auto seg = data_coord_->GetSegment(meta.id, segment);
    if (!seg.ok()) return false;
    if (seg.value().state == SegmentState::kDropped) return true;
    if (wants_index) {
      // Every declared field must be indexed at the current declaration
      // version (covers re-index after CreateIndex with new params).
      for (const auto& [field, _] : meta.index_params) {
        auto v = seg.value().index_versions.find(field);
        if (v == seg.value().index_versions.end() ||
            v->second < meta.index_version) {
          return false;
        }
      }
    }
    for (const auto& node : query_coord_->Nodes()) {
      for (SegmentId s : node->SealedSegments(meta.id)) {
        if (s == segment) return true;  // Loaded somewhere.
      }
    }
    return false;
  };

  // Wait for every segment ever allocated for the collection (including
  // ones the data nodes have not yet registered — their index builds may
  // still be queued) plus registered extras (e.g. compaction results) to
  // reach sealed -> indexed(current version) -> loaded (or dropped).
  std::vector<SegmentId> targets = rolled;
  for (SegmentId id : data_coord_->AllocatedSegments(meta.id)) {
    targets.push_back(id);
  }
  for (const SegmentMeta& seg : data_coord_->ListSegments(meta.id)) {
    if (seg.state != SegmentState::kDropped) targets.push_back(seg.id);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (SegmentId segment : targets) {
    while (!segment_ready(segment)) {
      if (NowMs() > deadline) {
        return Status::Timeout("flush wait timed out on segment " +
                               std::to_string(segment));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return Status::OK();
}

Status ManuInstance::WaitUntilVisible(const std::string& collection,
                                      Timestamp ts, int64_t timeout_ms) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  const int64_t deadline = NowMs() + timeout_ms;
  for (const auto& node : query_coord_->NodesFor(meta.id)) {
    // One shared budget: N lagging nodes must not stretch the wait to
    // N * timeout_ms.
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0 ||
        !node->WaitServiceTs(meta.id, ts, std::max<int64_t>(1, remaining))) {
      return Status::Timeout("WAL consumption lagging");
    }
  }
  return Status::OK();
}

Status ManuInstance::Compact(const std::string& collection,
                             int64_t timeout_ms) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  // Gather tombstones from the query nodes' delete buffers.
  std::vector<int64_t> deleted;
  for (const auto& node : query_coord_->Nodes()) {
    for (int64_t pk : node->DeletedPks(meta.id)) deleted.push_back(pk);
  }
  std::sort(deleted.begin(), deleted.end());
  deleted.erase(std::unique(deleted.begin(), deleted.end()), deleted.end());

  const int64_t small_rows =
      config_.segment_seal_rows > 0
          ? static_cast<int64_t>(config_.small_segment_ratio *
                                 static_cast<double>(
                                     config_.segment_seal_rows))
          : 0;
  MANU_ASSIGN_OR_RETURN(
      std::vector<SegmentId> merged,
      data_coord_->CompactSegments(meta.id, deleted, small_rows));

  // Wait until every merged segment is served (and so its inputs are
  // released).
  const int64_t deadline = NowMs() + timeout_ms;
  for (SegmentId segment : merged) {
    while (true) {
      bool loaded = false;
      for (const auto& node : query_coord_->Nodes()) {
        for (SegmentId s : node->SealedSegments(meta.id)) {
          if (s == segment) loaded = true;
        }
      }
      if (loaded) break;
      if (NowMs() > deadline) {
        return Status::Timeout("compaction wait timed out");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return Status::OK();
}

Status ManuInstance::Checkpoint(const std::string& collection) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  return data_coord_->WriteCheckpoint(meta.id).status();
}

Status ManuInstance::TruncateLogBefore(const std::string& collection,
                                       Timestamp ts) {
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
    const std::string channel = ShardChannelName(meta.id, shard);
    // Safe clamp: never drop entries above the archived floor — they exist
    // only in the WAL, and crash recovery replays from the floor. (Without
    // the clamp a later Recover() would refuse with DataLoss.)
    const Timestamp floor = data_coord_->ArchivedFloor(meta.id, shard);
    Timestamp effective = ts;
    if (effective > floor + 1) {
      MANU_LOG_WARN << "truncate of " << channel << " clamped from lsn "
                    << ts << " to archived floor " << floor + 1;
      effective = floor + 1;
    }
    durable_->mq.TruncateBefore(
        channel, durable_->mq.FirstOffsetAtOrAfter(channel, effective));
  }
  return Status::OK();
}

Status ManuInstance::ScaleQueryNodes(int32_t target) {
  if (target < 1) return Status::InvalidArgument("need >= 1 query node");
  while (static_cast<int32_t>(query_coord_->NumQueryNodes()) < target) {
    auto node = std::make_shared<QueryNode>(next_node_id_.fetch_add(1),
                                            MakeContext());
    node->Start();
    query_coord_->AddQueryNode(std::move(node));
  }
  while (static_cast<int32_t>(query_coord_->NumQueryNodes()) > target) {
    auto nodes = query_coord_->Nodes();
    MANU_RETURN_NOT_OK(query_coord_->RemoveQueryNode(nodes.back()->id()));
  }
  return query_coord_->Rebalance();
}

Status ManuInstance::KillQueryNode(NodeId id) {
  return query_coord_->KillQueryNode(id);
}

Status ManuInstance::CrashQueryNode(NodeId id) {
  return query_coord_->CrashNode(id);
}

Status ManuInstance::CrashDataNode(NodeId id) {
  for (auto& node : data_nodes_) {
    if (node->id() != id) continue;
    // Stop the pump only; the data coordinator still believes this node
    // owns its shard channels until the watchdog revokes the lease.
    node->Stop();
    MANU_LOG_INFO << "data node " << id << " crashed (abrupt, no recovery)";
    return Status::OK();
  }
  return Status::NotFound("data node");
}

std::string ManuInstance::DescribeCluster() {
  std::ostringstream out;
  out << "=== Manu cluster ===\n";
  out << "workers: " << query_coord_->NumQueryNodes() << " query, "
      << data_nodes_.size() << " data, " << index_nodes_.size()
      << " index, " << loggers_->NumLoggers() << " logger\n";

  for (const CollectionMeta& meta : root_coord_->ListCollections()) {
    int64_t sealed_rows = 0;
    int32_t sealed = 0, indexed = 0, dropped = 0;
    for (const SegmentMeta& seg : data_coord_->ListSegments(meta.id)) {
      switch (seg.state) {
        case SegmentState::kSealed:
          ++sealed;
          sealed_rows += seg.num_rows;
          break;
        case SegmentState::kIndexed:
          ++indexed;
          sealed_rows += seg.num_rows;
          break;
        case SegmentState::kDropped:
          ++dropped;
          break;
        default:
          break;
      }
    }
    int64_t growing_rows = 0;
    for (const auto& node : query_coord_->Nodes()) {
      growing_rows += node->NumGrowingRows(meta.id);
    }
    out << "collection '" << meta.schema.name() << "' (id=" << meta.id
        << "): shards=" << meta.num_shards << " segments(sealed=" << sealed
        << " indexed=" << indexed << " dropped=" << dropped
        << ") rows(sealed=" << sealed_rows << " growing=" << growing_rows
        << ") declared_indexes=" << meta.index_params.size() << "\n";
  }

  out << "query nodes:\n";
  for (const auto& node : query_coord_->Nodes()) {
    const NodeLoad load = node->LoadSnapshot();
    out << "  node " << node->id() << ": mem="
        << node->MemoryBytes() / (1 << 20) << "MB inflight=" << load.inflight
        << " queue_depth=" << load.queue_depth
        << " ewma_latency_us=" << load.ewma_latency_us
        << " deadline_rejects=" << load.deadline_rejects
        << " overload_rejects=" << load.overload_rejects << "\n";
  }

  if (proxy_ != nullptr) {
    const AdmissionController& adm = proxy_->admission();
    out << "admission: brownout_stage=" << adm.stage() << " pressure="
        << adm.pressure() << " inflight=" << adm.inflight() << "\n";
  }

  out << "placement: under_replicated="
      << query_coord_->placement()->UnderReplicatedCount()
      << " reconcile_interval_ms="
      << config_.placement_reconcile_interval_ms << "\n";

  out << "liveness (instance epoch " << instance_epoch_ << ", lease ttl "
      << leases_->ttl_ms() << "ms):\n";
  const int64_t now = NowMs();
  for (const LeaseInfo& lease : leases_->Snapshot()) {
    out << "  node " << lease.node << ": role=" << lease.role
        << " epoch=" << lease.epoch << " heartbeat_age_ms="
        << std::max<int64_t>(0, now - lease.last_renew_ms)
        << (lease.dead ? " DEAD" : " alive") << "\n";
  }

  out << "--- metrics ---\n" << MetricsRegistry::Global().Dump();

  const std::string slow = Tracer::Global().collector().DumpSlow();
  if (!slow.empty()) {
    out << "--- slow queries (>= " << config_.slow_query_trace_ms
        << "ms) ---\n"
        << slow;
  }
  return out.str();
}

}  // namespace manu
