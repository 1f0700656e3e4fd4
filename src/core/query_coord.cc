#include "core/query_coord.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/lease.h"

namespace manu {

QueryCoordinator::QueryCoordinator(const CoreContext& ctx,
                                   DataCoordinator* data_coord,
                                   RootCoordinator* root_coord)
    : ctx_(ctx),
      data_coord_(data_coord),
      root_coord_(root_coord),
      placement_(std::make_unique<PlacementManager>(ctx.config, this)) {}

QueryCoordinator::~QueryCoordinator() { Stop(); }

void QueryCoordinator::Start() {
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  placement_->Start();
}

void QueryCoordinator::Stop() {
  placement_->Stop();
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void QueryCoordinator::Run() {
  auto sub = ctx_.mq->Subscribe(CoordChannelName(),
                                SubscribePosition::kEarliest);
  while (!stop_.load(std::memory_order_acquire)) {
    auto entries = sub->Poll(
        ctx_.config.poll_batch,
        std::chrono::milliseconds(ctx_.config.poll_timeout_ms));
    for (const auto& entry : entries) {
      switch (entry->type) {
        case LogEntryType::kIndexBuilt: {
          auto meta = SegmentMeta::Deserialize(entry->payload);
          if (meta.ok()) OnSegmentReady(meta.value());
          break;
        }
        case LogEntryType::kSegmentSealed: {
          // Collections without a declared index still hand sealed segments
          // off to a query node (binlog only) so growing memory is bounded.
          auto meta = SegmentMeta::Deserialize(entry->payload);
          if (!meta.ok()) break;
          auto coll = root_coord_->GetCollectionById(meta.value().collection);
          if (coll.ok() && coll.value().index_params.empty()) {
            OnSegmentReady(meta.value());
          }
          break;
        }
        case LogEntryType::kCompaction: {
          BinaryReader r(entry->payload);
          auto dropped = r.GetVector<SegmentId>();
          if (!dropped.ok()) break;
          std::lock_guard<std::mutex> lk(mu_);
          auto it = serving_.find(entry->collection);
          if (it == serving_.end()) break;
          if (entry->segment == kInvalidSegmentId ||
              placement_->IsServing(entry->collection, entry->segment)) {
            // Merged result already serving (or everything was deleted):
            // release the inputs now.
            ReleaseSegmentsLocked(entry->collection, dropped.value());
          } else {
            it->second.pending_drops[entry->segment] = dropped.value();
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

std::shared_ptr<QueryNode> QueryCoordinator::NodeById(NodeId id) const {
  for (const auto& node : nodes_) {
    if (node->id() == id) return node;
  }
  return nullptr;
}

std::shared_ptr<QueryNode> QueryCoordinator::LeastLoadedLocked() const {
  std::shared_ptr<QueryNode> best;
  uint64_t best_bytes = 0;
  for (const auto& node : nodes_) {
    if (draining_.count(node->id()) > 0) continue;
    const uint64_t bytes = node->MemoryBytes();
    if (best == nullptr || bytes < best_bytes) {
      best = node;
      best_bytes = bytes;
    }
  }
  return best;
}

void QueryCoordinator::AddQueryNode(std::shared_ptr<QueryNode> node) {
  std::lock_guard<std::mutex> lk(mu_);
  // Follow every serving collection's channels (deletes + ticks) so the
  // node can immediately host sealed segments of any shard.
  for (const auto& [collection, serving] : serving_) {
    for (ShardId shard = 0; shard < serving.num_shards; ++shard) {
      node->AddChannel(collection, shard, serving.schema, /*primary=*/false);
    }
  }
  nodes_.push_back(std::move(node));
  topo_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

// --- PlacementHost -------------------------------------------------------

std::vector<std::pair<NodeId, uint64_t>> QueryCoordinator::RepairCandidates() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<NodeId, uint64_t>> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (draining_.count(node->id()) > 0) continue;
    out.emplace_back(node->id(), node->MemoryBytes());
  }
  return out;
}

Status QueryCoordinator::LoadReplica(
    NodeId target, const SegmentMeta& meta,
    std::shared_ptr<const CollectionSchema> schema) {
  std::shared_ptr<QueryNode> node;
  {
    std::lock_guard<std::mutex> lk(mu_);
    node = NodeById(target);
    if (node == nullptr || draining_.count(target) > 0) {
      return Status::Unavailable("repair target gone or draining");
    }
  }
  // The load itself runs outside mu_: object-store I/O must not block
  // routing or failover.
  return node->LoadSealedSegment(meta, std::move(schema));
}

void QueryCoordinator::ReleaseReplica(NodeId target, CollectionId collection,
                                      SegmentId segment) {
  std::shared_ptr<QueryNode> node;
  {
    std::lock_guard<std::mutex> lk(mu_);
    node = NodeById(target);
  }
  if (node != nullptr) node->ReleaseSegment(collection, segment);
}

// --- Scale-down (drain) --------------------------------------------------

Status QueryCoordinator::RemoveQueryNode(NodeId id) {
  std::shared_ptr<QueryNode> victim;
  {
    std::lock_guard<std::mutex> lk(mu_);
    victim = NodeById(id);
    if (victim == nullptr) return Status::NotFound("query node");
    size_t live = 0;
    for (const auto& node : nodes_) {
      if (draining_.count(node->id()) == 0) ++live;
    }
    if (live <= 1 || draining_.count(id) > 0) {
      return Status::InvalidArgument("cannot remove the last query node");
    }
    // Phase 1: mark draining (new placements skip it; PlanFor keeps routing
    // to it) and hand primary channels to survivors. The epoch bump fences
    // out any repair planned against the pre-drain topology.
    draining_.insert(id);
    topo_epoch_.fetch_add(1, std::memory_order_acq_rel);
    for (auto& [collection, serving] : serving_) {
      for (auto& [shard, owner] : serving.channel_owner) {
        if (owner != id) continue;
        for (const auto& node : nodes_) {
          if (draining_.count(node->id()) > 0) continue;
          node->PromoteChannel(collection, shard);
          victim->DemoteChannel(collection, shard);
          owner = node->id();
          break;
        }
      }
    }
  }

  // Phase 2: drain sealed replicas WITHOUT holding mu_ — searches keep
  // routing to the victim until every affected segment serves elsewhere
  // (paper: "a query node can be removed once other query nodes load the
  // indexes for the segments it handles").
  Status drained = placement_->DrainNode(id);
  if (!drained.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    draining_.erase(id);
    topo_epoch_.fetch_add(1, std::memory_order_acq_rel);
    MANU_LOG_WARN << "drain of query node " << id
                  << " interrupted: " << drained.ToString();
    return drained;
  }

  // Phase 3: nothing routes to the victim anymore; retire it.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [collection, serving] : serving_) {
      victim->RemoveCollection(collection);
    }
    victim->Stop();
    std::erase_if(nodes_, [&](const auto& n) { return n->id() == id; });
    draining_.erase(id);
    topo_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (ctx_.leases != nullptr) ctx_.leases->Deregister(id);
  MANU_LOG_INFO << "query node " << id << " removed (scale-down)";
  return Status::OK();
}

Status QueryCoordinator::RecoverDeadNodeLocked(NodeId id) {
  const int64_t t0 = NowMicros();
  auto victim = NodeById(id);
  if (victim == nullptr) return Status::NotFound("query node");
  if (nodes_.size() <= 1) {
    return Status::InvalidArgument("cannot kill the last query node");
  }
  // Fence first: a repair planned against the pre-failover topology must
  // not commit (the epoch is re-checked under the placement table mutex,
  // which OnNodeGone below also takes — no commit can slip between).
  topo_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // Crash: no cooperation from the victim.
  victim->Stop();
  std::erase_if(nodes_, [&](const auto& n) { return n->id() == id; });
  draining_.erase(id);

  for (auto& [collection, serving] : serving_) {
    for (auto& [shard, owner] : serving.channel_owner) {
      if (owner != id) continue;
      auto target = nodes_[static_cast<size_t>(shard) % nodes_.size()];
      target->PromoteChannel(collection, shard);
      owner = target->id();
    }
  }

  // Strip the dead node from every replica group. Groups with surviving
  // replicas keep serving untouched — the reconciler restores their
  // redundancy within its interval. Groups at ZERO live replicas are
  // reloaded synchronously here: coverage cannot wait for a background
  // pass.
  for (const auto& entry : placement_->OnNodeGone(id)) {
    auto it = serving_.find(entry.meta.collection);
    if (it == serving_.end()) continue;
    // Prefer the shard's channel owner: the promoted primary replays the
    // channel from the beginning, and hosting the sealed copy there lets
    // the sealed-twin-wins rule suppress the replayed growing twin
    // instead of serving the rows twice from two nodes.
    std::shared_ptr<QueryNode> target;
    auto primary_it = it->second.channel_owner.find(entry.meta.shard);
    if (primary_it != it->second.channel_owner.end()) {
      target = NodeById(primary_it->second);
    }
    if (target == nullptr) target = LeastLoadedLocked();
    if (target == nullptr) continue;
    Status st = target->LoadSealedSegment(entry.meta, entry.schema);
    if (st.ok()) {
      placement_->RecordServing(entry.meta.collection, entry.meta.id,
                                target->id(), entry.target_version);
    } else {
      // Left unroutable: PlanFor accounts it as lost coverage and the
      // reconciler keeps retrying the repair from the object store.
      MANU_LOG_ERROR << "recovery reload of segment " << entry.meta.id
                     << " failed: " << st.ToString();
    }
  }
  // Recovery duration: promotion + segment reloads. The promoted channels
  // keep replaying asynchronously afterwards; their progress is gated by
  // the re-armed service_ts, not this histogram.
  MetricsRegistry::Global()
      .GetHistogram("query_coord.recovery_us")
      ->Observe(static_cast<double>(NowMicros() - t0));
  return Status::OK();
}

Status QueryCoordinator::KillQueryNode(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  MANU_RETURN_NOT_OK(RecoverDeadNodeLocked(id));
  MetricsRegistry::Global().GetCounter("query_coord.nodes_killed")->Add(1);
  // Manual kill: drop the lease too, so the watchdog does not fire a second
  // (NotFound) recovery for the same node.
  if (ctx_.leases != nullptr) ctx_.leases->Deregister(id);
  MANU_LOG_INFO << "query node " << id << " killed and recovered";
  return Status::OK();
}

Status QueryCoordinator::OnNodeDead(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  MANU_RETURN_NOT_OK(RecoverDeadNodeLocked(id));
  MANU_LOG_INFO << "query node " << id
                << " lease expired; channels and segments reassigned";
  return Status::OK();
}

Status QueryCoordinator::CrashNode(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto victim = NodeById(id);
  if (victim == nullptr) return Status::NotFound("query node");
  // Stop the pump only: the node stays registered as a channel/segment
  // owner and its lease keeps counting down. Detection and recovery are the
  // watchdog's job.
  victim->Stop();
  MANU_LOG_INFO << "query node " << id << " crashed (abrupt, no recovery)";
  return Status::OK();
}

size_t QueryCoordinator::NumQueryNodes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_.size();
}

std::vector<std::shared_ptr<QueryNode>> QueryCoordinator::Nodes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_;
}

Status QueryCoordinator::LoadCollection(const CollectionMeta& meta) {
  std::lock_guard<std::mutex> lk(mu_);
  if (nodes_.empty()) return Status::Unavailable("no query nodes");
  CollectionServing& serving = serving_[meta.id];
  serving.schema = std::make_shared<CollectionSchema>(meta.schema);
  serving.index_params = meta.index_params;
  serving.num_shards = meta.num_shards;
  for (ShardId shard = 0; shard < meta.num_shards; ++shard) {
    auto primary = nodes_[static_cast<size_t>(shard) % nodes_.size()];
    serving.channel_owner[shard] = primary->id();
    for (const auto& node : nodes_) {
      node->AddChannel(meta.id, shard, serving.schema,
                       /*primary=*/node == primary);
    }
  }

  LogEntry announce;
  announce.type = LogEntryType::kLoadCollection;
  announce.timestamp = ctx_.tso->Allocate();
  announce.collection = meta.id;
  ctx_.mq->Publish(CoordChannelName(), std::move(announce));
  return Status::OK();
}

Status QueryCoordinator::ReleaseCollection(CollectionId collection) {
  std::lock_guard<std::mutex> lk(mu_);
  serving_.erase(collection);
  placement_->RemoveCollection(collection);
  // Announced via log; nodes release asynchronously (Section 3.3's example
  // of log-based coordination) — here we also release synchronously since
  // nodes are in-process.
  LogEntry announce;
  announce.type = LogEntryType::kReleaseCollection;
  announce.timestamp = ctx_.tso->Allocate();
  announce.collection = collection;
  ctx_.mq->Publish(CoordChannelName(), std::move(announce));
  for (const auto& node : nodes_) node->RemoveCollection(collection);
  return Status::OK();
}

std::vector<std::shared_ptr<QueryNode>> QueryCoordinator::NodesFor(
    CollectionId collection) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::shared_ptr<QueryNode>> out;
  auto it = serving_.find(collection);
  if (it == serving_.end()) return out;
  std::set<NodeId> involved;
  for (const auto& [_, owner] : it->second.channel_owner) {
    involved.insert(owner);
  }
  placement_->ForEachServing(
      collection,
      [&](SegmentId, const std::vector<ReplicaState>& replicas) {
        for (const ReplicaState& replica : replicas) {
          involved.insert(replica.node);
        }
      });
  for (const auto& node : nodes_) {
    if (involved.count(node->id()) > 0) out.push_back(node);
  }
  return out;
}

namespace {

/// splitmix64 finalizer: turns the route counter into an independent draw.
uint64_t MixRouteSeed(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int64_t QueryCoordinator::RouteLoadScore(
    const std::shared_ptr<QueryNode>& node) const {
  NodeLoad load;
  bool fresh = false;
  if (ctx_.leases != nullptr) {
    load = ctx_.leases->LoadOf(node->id());
    fresh = load.updated_ms > 0 &&
            NowMs() - load.updated_ms <= ctx_.leases->ttl_ms();
  }
  if (!fresh) load = node->LoadSnapshot();
  // Outstanding requests dominate; EWMA service time breaks ties between
  // equally-backlogged nodes (a slow node at depth n is worse than a fast
  // one at depth n).
  return load.inflight * 1'000'000 + load.ewma_latency_us;
}

QueryCoordinator::Plan QueryCoordinator::PlanFor(
    CollectionId collection) const {
  std::lock_guard<std::mutex> lk(mu_);
  Plan plan;
  plan.handoff_seq = handoff_seq_;
  auto it = serving_.find(collection);
  if (it == serving_.end()) return plan;
  const CollectionServing& serving = it->second;
  std::vector<NodeRoute>& routes = plan.routes;

  std::map<NodeId, size_t> route_index;
  auto route_for = [&](NodeId id) -> NodeRoute* {
    auto found = route_index.find(id);
    if (found != route_index.end()) return &routes[found->second];
    auto node = NodeById(id);
    if (node == nullptr) return nullptr;
    route_index[id] = routes.size();
    routes.push_back(NodeRoute{std::move(node), 0, {}});
    return &routes.back();
  };

  // Channel owners are always in the plan: growing segments and the
  // consistency gate live only there.
  for (const auto& [shard, owner] : serving.channel_owner) {
    (void)route_for(owner);
  }

  // Power-of-two-choices per sealed segment: two deterministic
  // pseudo-random candidates from the replica set, lower load wins.
  // Against always-least-loaded this avoids herding every segment of a
  // plan onto the momentarily-idlest node. A segment with NO live replica
  // is not dropped: it is reported on the plan so the proxy degrades
  // coverage (or fails a strict search) instead of losing rows silently.
  placement_->ForEachServing(
      collection,
      [&](SegmentId segment, const std::vector<ReplicaState>& replicas) {
        std::vector<NodeId> live;
        live.reserve(replicas.size());
        for (const ReplicaState& replica : replicas) {
          if (NodeById(replica.node) != nullptr) live.push_back(replica.node);
        }
        if (live.empty()) {
          ++plan.unroutable;
          return;
        }
        NodeId chosen = live[0];
        if (live.size() > 1) {
          const uint64_t draw = MixRouteSeed(
              route_seq_.fetch_add(1, std::memory_order_relaxed) ^
              (static_cast<uint64_t>(segment) << 32));
          const size_t a = static_cast<size_t>(draw % live.size());
          const size_t b = static_cast<size_t>(
              (a + 1 + (draw >> 32) % (live.size() - 1)) % live.size());
          chosen = RouteLoadScore(NodeById(live[a])) <=
                           RouteLoadScore(NodeById(live[b]))
                       ? live[a]
                       : live[b];
        }
        NodeRoute* route = route_for(chosen);
        if (route != nullptr) route->sealed_filter.push_back(segment);
      });

  if (plan.unroutable > 0) {
    MetricsRegistry::Global()
        .GetCounter("placement.unroutable_segments")
        ->Add(plan.unroutable);
  }
  for (NodeRoute& route : routes) {
    std::sort(route.sealed_filter.begin(), route.sealed_filter.end());
    route.weight = static_cast<int64_t>(route.sealed_filter.size()) +
                   route.node->NumGrowingOnlySegments(collection);
  }
  return plan;
}

void QueryCoordinator::OnSegmentReady(const SegmentMeta& meta) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = serving_.find(meta.collection);
  if (it == serving_.end()) return;
  CollectionServing& serving = it->second;

  // Pick the replica set: existing replicas reload in place (new index
  // version — one node at a time, so the group is rolling by
  // construction); then the shard's channel owner; missing replicas go to
  // the least-loaded remaining non-draining nodes.
  std::vector<std::shared_ptr<QueryNode>> targets;
  for (NodeId id : placement_->ServingNodes(meta.collection, meta.id)) {
    auto node = NodeById(id);
    if (node != nullptr) targets.push_back(node);
  }
  size_t pool = 0;
  for (const auto& node : nodes_) {
    if (draining_.count(node->id()) == 0) ++pool;
  }
  const size_t want = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(ctx_.config.replica_factor),
                          std::max<size_t>(pool, 1)));
  // The channel owner hosts the growing twin and sits in every proxy
  // fan-out set for this collection, so loading the sealed segment there
  // makes the growing->sealed handoff atomic for in-flight searches: a
  // search that fanned out before this handoff still reaches a node that
  // serves the rows, either from the growing twin (pre-load) or from the
  // sealed copy (the sealed-twin-wins rule covers the overlap). Loading
  // only onto some other node would let DropGrowing below race ahead of a
  // search already queued on the primary, losing the segment's rows from
  // that search entirely.
  auto primary_it = serving.channel_owner.find(meta.shard);
  if (primary_it != serving.channel_owner.end() && targets.size() < want) {
    auto primary = NodeById(primary_it->second);
    if (primary != nullptr &&
        std::find(targets.begin(), targets.end(), primary) == targets.end()) {
      targets.push_back(primary);
    }
  }
  std::vector<std::shared_ptr<QueryNode>> candidates;
  for (const auto& node : nodes_) {
    if (draining_.count(node->id()) == 0) candidates.push_back(node);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a->MemoryBytes() < b->MemoryBytes();
            });
  for (const auto& node : candidates) {
    if (targets.size() >= want) break;
    if (std::find(targets.begin(), targets.end(), node) == targets.end()) {
      targets.push_back(node);
    }
  }
  if (targets.empty()) return;

  // Plans taken before this point route the segment as growing; the
  // sequence number lets the node that retires the growing twin keep
  // scanning the sealed copy for them.
  const uint64_t handoff_seq = ++handoff_seq_;
  std::vector<NodeId> loaded;
  for (const auto& target : targets) {
    Status st = target->LoadSealedSegment(meta, serving.schema, handoff_seq);
    if (!st.ok()) {
      MANU_LOG_ERROR << "segment load failed: " << st.ToString();
      continue;
    }
    loaded.push_back(target->id());
  }
  // Nothing loaded => do not register the segment at all: the growing twin
  // keeps serving its rows, and registering an empty group would both
  // double-count (growing + "sealed") and report false unroutability.
  if (loaded.empty()) return;
  placement_->SetDesired(meta, serving.schema, ctx_.config.replica_factor);
  const int32_t version = PlacementTargetVersion(meta);
  for (NodeId id : loaded) {
    placement_->RecordServing(meta.collection, meta.id, id, version);
  }
  // Every node drops the growing twin (the loader already did).
  for (const auto& node : nodes_) {
    node->DropGrowing(meta.collection, meta.id);
  }
  // If this segment is a compaction result, its inputs can go now.
  auto pending = serving.pending_drops.find(meta.id);
  if (pending != serving.pending_drops.end()) {
    ReleaseSegmentsLocked(meta.collection, pending->second);
    serving.pending_drops.erase(pending);
  }
}

void QueryCoordinator::ReleaseSegmentsLocked(
    CollectionId collection, const std::vector<SegmentId>& segments) {
  for (SegmentId segment : segments) {
    for (NodeId id : placement_->ServingNodes(collection, segment)) {
      auto node = NodeById(id);
      if (node != nullptr) node->ReleaseSegment(collection, segment);
    }
    placement_->Remove(collection, segment);
  }
}

Status QueryCoordinator::Rebalance() {
  // Top up replica groups against the current fleet first (a fresh node is
  // useless to a group that is merely under-replicated unless someone adds
  // the replica), then equalize per-node replica counts. Both run through
  // the reconciler so every move is epoch-fenced and survivor-first.
  placement_->ReconcileOnce();
  return placement_->RebalanceNow();
}

}  // namespace manu
