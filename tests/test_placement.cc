// Self-healing replica groups (core/placement.h, ROADMAP item 3).
// Unit half: a fake PlacementHost drives the reconciler's planning rules —
// top-up ordering, epoch fencing (a stale repair is undone, never
// committed), rolling version reloads, survivor-before-victim drains.
// E2E half: a real ManuInstance exercises the coordinator integration —
// zero coverage dip through a scale-down drain, unroutable-segment
// accounting when every replica of a group is lost, and redundancy
// restoration by the background reconciler after a node kill.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/synthetic.h"
#include "core/manu.h"
#include "core/placement.h"
#include "storage/object_store.h"

namespace manu {
namespace {

constexpr int32_t kDim = 16;

// --- Fake host -----------------------------------------------------------

/// In-memory PlacementHost: a node set with controllable epoch, recording
/// every load/release in order. LoadReplica can be rigged to fail or to
/// bump the epoch mid-flight (the fencing race).
class FakeHost : public PlacementHost {
 public:
  std::vector<std::pair<NodeId, uint64_t>> RepairCandidates() override {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::pair<NodeId, uint64_t>> out;
    for (const auto& [node, bytes] : nodes_) out.emplace_back(node, bytes);
    return out;
  }

  Status LoadReplica(NodeId target, const SegmentMeta& meta,
                     std::shared_ptr<const CollectionSchema>) override {
    std::lock_guard<std::mutex> lk(mu_);
    ops_.push_back({"load", target, meta.id});
    if (fail_loads_) return Status::IOError("injected load failure");
    if (bump_epoch_on_load_) epoch_.fetch_add(1);
    return Status::OK();
  }

  void ReleaseReplica(NodeId target, CollectionId,
                      SegmentId segment) override {
    std::lock_guard<std::mutex> lk(mu_);
    ops_.push_back({"release", target, segment});
  }

  int64_t TopologyEpoch() const override { return epoch_.load(); }

  void AddNode(NodeId id, uint64_t bytes = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    nodes_[id] = bytes;
  }
  void RemoveNode(NodeId id) {
    std::lock_guard<std::mutex> lk(mu_);
    nodes_.erase(id);
  }
  void BumpEpoch() { epoch_.fetch_add(1); }
  void set_fail_loads(bool v) { fail_loads_ = v; }
  void set_bump_epoch_on_load(bool v) { bump_epoch_on_load_ = v; }

  struct Op {
    std::string kind;
    NodeId node;
    SegmentId segment;
  };
  std::vector<Op> ops() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ops_;
  }

 private:
  mutable std::mutex mu_;
  std::map<NodeId, uint64_t> nodes_;
  std::atomic<int64_t> epoch_{0};
  bool fail_loads_ = false;
  bool bump_epoch_on_load_ = false;
  std::vector<Op> ops_;
};

SegmentMeta FakeMeta(CollectionId collection, SegmentId id,
                     int32_t index_version = 1) {
  SegmentMeta meta;
  meta.collection = collection;
  meta.id = id;
  meta.shard = 0;
  meta.state = SegmentState::kIndexed;
  meta.num_rows = 100;
  meta.index_versions[1] = index_version;
  return meta;
}

ManuConfig PlacementConfig() {
  ManuConfig config;
  // Serial repairs: the unit tests assert on the recorded op ORDER, which
  // concurrent workers would interleave. The E2E tests run the default.
  config.placement_repair_concurrency = 1;
  return config;
}

std::map<SegmentId, std::set<NodeId>> GroupsOf(const PlacementManager& pm,
                                               CollectionId collection) {
  std::map<SegmentId, std::set<NodeId>> out;
  for (const SegmentPlacement& entry : pm.CollectionSnapshot(collection)) {
    std::set<NodeId>& nodes = out[entry.meta.id];
    for (const ReplicaState& r : entry.serving) nodes.insert(r.node);
  }
  return out;
}

TEST(PlacementUnit, ReconcilerTopsUpUnderReplicatedGroups) {
  FakeHost host;
  host.AddNode(1, 100);
  host.AddNode(2, 50);
  host.AddNode(3, 10);
  PlacementManager pm(PlacementConfig(), &host);

  pm.SetDesired(FakeMeta(7, 40), nullptr, 2);
  pm.RecordServing(7, 40, 1, 1);
  pm.SetDesired(FakeMeta(7, 41), nullptr, 2);  // zero replicas: repair first
  EXPECT_EQ(pm.UnderReplicatedCount(), 2);

  EXPECT_EQ(pm.ReconcileOnce(), 3);  // 2 adds for seg 41, 1 add for seg 40
  EXPECT_EQ(pm.UnderReplicatedCount(), 0);

  auto groups = GroupsOf(pm, 7);
  EXPECT_EQ(groups[40].size(), 2u);
  EXPECT_EQ(groups[41].size(), 2u);
  // Zero-coverage group repairs before the redundancy top-up.
  const auto ops = host.ops();
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops[0].segment, 41);
  // The heaviest node (1, and already a member of group 40) never receives
  // group 40's top-up.
  for (const auto& op : ops) {
    if (op.segment == 40) EXPECT_NE(op.node, 1);
  }
}

TEST(PlacementUnit, DesiredClampedToFleetSize) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  pm.SetDesired(FakeMeta(7, 40), nullptr, 3);
  pm.RecordServing(7, 40, 1, 1);
  pm.RecordServing(7, 40, 2, 1);
  // Three replicas desired but only two nodes exist: not under-replicated,
  // and a reconcile pass plans nothing.
  EXPECT_EQ(pm.UnderReplicatedCount(), 0);
  EXPECT_EQ(pm.ReconcileOnce(), 0);
}

TEST(PlacementUnit, EpochFenceUndoesStaleRepair) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  pm.SetDesired(FakeMeta(7, 40), nullptr, 2);
  pm.RecordServing(7, 40, 1, 1);

  // The epoch moves while the repair load is in flight (a failover landed):
  // the repair must NOT commit, and the freshly loaded replica is undone.
  host.set_bump_epoch_on_load(true);
  EXPECT_EQ(pm.ReconcileOnce(), 0);
  auto groups = GroupsOf(pm, 7);
  EXPECT_EQ(groups[40], std::set<NodeId>({1}));
  const auto ops = host.ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, "load");
  EXPECT_EQ(ops[1].kind, "release");
  EXPECT_EQ(ops[0].node, ops[1].node);

  // Once the topology is stable again the repair goes through.
  host.set_bump_epoch_on_load(false);
  EXPECT_EQ(pm.ReconcileOnce(), 1);
  EXPECT_EQ(GroupsOf(pm, 7)[40].size(), 2u);
}

TEST(PlacementUnit, FailedLoadsAreRetriedNextPass) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  pm.SetDesired(FakeMeta(7, 40), nullptr, 2);
  pm.RecordServing(7, 40, 1, 1);

  host.set_fail_loads(true);
  EXPECT_EQ(pm.ReconcileOnce(), 0);
  EXPECT_EQ(pm.UnderReplicatedCount(), 1);
  host.set_fail_loads(false);
  EXPECT_EQ(pm.ReconcileOnce(), 1);
  EXPECT_EQ(pm.UnderReplicatedCount(), 0);
}

TEST(PlacementUnit, VersionBumpReloadsOneReplicaPerPass) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  // Both replicas serve version 1; the index rebuilds at version 3.
  pm.SetDesired(FakeMeta(7, 40, /*index_version=*/1), nullptr, 2);
  pm.RecordServing(7, 40, 1, 1);
  pm.RecordServing(7, 40, 2, 1);
  pm.SetDesired(FakeMeta(7, 40, /*index_version=*/3), nullptr, 2);

  // Rolling: exactly one replica reloads per pass, so the group never has
  // all replicas reloading at once.
  EXPECT_EQ(pm.ReconcileOnce(), 1);
  int stale = 0;
  for (const auto& entry : pm.CollectionSnapshot(7)) {
    for (const ReplicaState& r : entry.serving) {
      if (r.version < 3) ++stale;
    }
  }
  EXPECT_EQ(stale, 1);
  EXPECT_EQ(pm.ReconcileOnce(), 1);
  EXPECT_EQ(pm.ReconcileOnce(), 0);  // converged
  for (const auto& entry : pm.CollectionSnapshot(7)) {
    for (const ReplicaState& r : entry.serving) EXPECT_EQ(r.version, 3);
  }
}

TEST(PlacementUnit, DrainLoadsSurvivorBeforeReleasingVictim) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  // Segments 40, 41: sole copies on node 1 (must move). Segment 42: on
  // both (victim copy is redundant, pure release).
  for (SegmentId seg : {40, 41, 42}) {
    pm.SetDesired(FakeMeta(7, seg), nullptr, seg == 42 ? 2 : 1);
    pm.RecordServing(7, seg, 1, 1);
  }
  pm.RecordServing(7, 42, 2, 1);

  // The host stops offering node 1 as a candidate (the coordinator marks
  // it draining), then the drain runs.
  host.RemoveNode(1);
  ASSERT_TRUE(pm.DrainNode(1).ok());

  auto groups = GroupsOf(pm, 7);
  EXPECT_EQ(groups[40], std::set<NodeId>({2}));
  EXPECT_EQ(groups[41], std::set<NodeId>({2}));
  EXPECT_EQ(groups[42], std::set<NodeId>({2}));
  // Per segment: the survivor load strictly precedes the victim release.
  const auto ops = host.ops();
  for (SegmentId seg : {40, 41}) {
    size_t load_at = ops.size(), release_at = ops.size();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].segment != seg) continue;
      if (ops[i].kind == "load" && ops[i].node == 2) {
        load_at = std::min(load_at, i);
      }
      if (ops[i].kind == "release" && ops[i].node == 1) release_at = i;
    }
    EXPECT_LT(load_at, release_at) << "segment " << seg;
  }
}

TEST(PlacementUnit, InterruptedDrainLeavesVictimServing) {
  FakeHost host;
  host.AddNode(1);
  host.AddNode(2);
  PlacementManager pm(PlacementConfig(), &host);
  pm.SetDesired(FakeMeta(7, 40), nullptr, 1);
  pm.RecordServing(7, 40, 1, 1);

  host.RemoveNode(1);
  host.set_bump_epoch_on_load(true);  // a failover interrupts the drain
  Status st = pm.DrainNode(1);
  EXPECT_FALSE(st.ok());
  // The victim still serves its sole copy: no coverage dip from a failed
  // drain.
  EXPECT_EQ(GroupsOf(pm, 7)[40], std::set<NodeId>({1}));
}

TEST(PlacementUnit, RebalanceSpreadsOntoNewNode) {
  FakeHost host;
  host.AddNode(1);
  PlacementManager pm(PlacementConfig(), &host);
  for (SegmentId seg = 40; seg < 46; ++seg) {
    pm.SetDesired(FakeMeta(7, seg), nullptr, 1);
    pm.RecordServing(7, seg, 1, 1);
  }
  host.AddNode(2);  // scale-up
  ASSERT_TRUE(pm.RebalanceNow().ok());
  std::map<NodeId, int> counts;
  for (const auto& [seg, nodes] : GroupsOf(pm, 7)) {
    for (NodeId n : nodes) ++counts[n];
  }
  EXPECT_LE(std::abs(counts[1] - counts[2]), 1);
  EXPECT_EQ(counts[1] + counts[2], 6);
}

// --- E2E: coordinator integration ---------------------------------------

ManuConfig BaseConfig() {
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 500;
  config.segment_idle_seal_ms = 200;
  config.slice_rows = 256;
  config.time_tick_interval_ms = 10;
  config.num_query_nodes = 2;
  return config;
}

CollectionSchema VecSchema(const std::string& name) {
  CollectionSchema schema(name);
  FieldSchema pk;
  pk.name = "id";
  pk.type = DataType::kInt64;
  pk.is_primary = true;
  EXPECT_TRUE(schema.AddField(pk).ok());
  FieldSchema vec;
  vec.name = "embedding";
  vec.type = DataType::kFloatVector;
  vec.dim = kDim;
  vec.metric = MetricType::kL2;
  EXPECT_TRUE(schema.AddField(vec).ok());
  return schema;
}

EntityBatch MakeBatch(const CollectionMeta& meta, const VectorDataset& data,
                      int64_t begin, int64_t end) {
  EntityBatch batch;
  const FieldSchema* vec = meta.schema.FieldByName("embedding");
  std::vector<float> flat(data.data.begin() + begin * data.dim,
                          data.data.begin() + end * data.dim);
  for (int64_t i = begin; i < end; ++i) batch.primary_keys.push_back(i);
  batch.columns.push_back(
      FieldColumn::MakeFloatVector(vec->id, data.dim, std::move(flat)));
  return batch;
}

VectorDataset MakeData(int64_t rows) {
  SyntheticOptions opts;
  opts.num_rows = rows;
  opts.dim = kDim;
  opts.num_clusters = 8;
  return MakeClusteredDataset(opts);
}

TEST(PlacementE2E, DrainKeepsFullCoverageThroughScaleDown) {
  ManuConfig config = BaseConfig();
  config.num_query_nodes = 3;
  // A search planned just before the drained node's final Stop() may still
  // dispatch to it; the retry re-plans against the post-drain routing
  // snapshot. The drain itself guarantees the re-plan has full coverage.
  config.search_retry_attempts = 2;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("placement_drain"));
  ASSERT_TRUE(meta.ok());
  VectorDataset data = MakeData(3000);
  ASSERT_TRUE(
      db.Insert("placement_drain", MakeBatch(meta.value(), data, 0, 3000))
          .ok());
  ASSERT_TRUE(db.FlushAndWait("placement_drain").ok());

  // Hammer strict full-coverage searches while the fleet drains 3 -> 2.
  // Zero coverage dip: every search must succeed with coverage == 1.0
  // (sole-copy segments are loaded on survivors BEFORE the victim's copy
  // is released; the victim keeps serving until then).
  std::atomic<bool> stop{false};
  std::atomic<int64_t> searched{0};
  std::atomic<int64_t> bad{0};
  std::thread searcher([&] {
    SearchRequest req;
    req.collection = "placement_drain";
    req.query.assign(data.Row(3), data.Row(3) + kDim);
    req.k = 5;
    req.consistency = ConsistencyLevel::kEventually;
    while (!stop.load()) {
      auto res = db.Search(req);
      ++searched;
      if (!res.ok() || res.value().coverage < 1.0) ++bad;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(db.ScaleQueryNodes(2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  searcher.join();

  EXPECT_GT(searched.load(), 0);
  EXPECT_EQ(bad.load(), 0) << bad.load() << " of " << searched.load()
                           << " searches lost coverage during the drain";
  EXPECT_EQ(db.query_coord()->NumQueryNodes(), 2u);
  EXPECT_EQ(db.query_coord()->placement()->UnderReplicatedCount(), 0);
}

TEST(PlacementE2E, UnroutableSegmentsAreAccountedAndRepaired) {
  ManuConfig config = BaseConfig();
  config.num_query_nodes = 2;
  config.replica_factor = 1;
  // Failpoint-instrumented store: the kill below happens while reads fail,
  // so the synchronous recovery reload cannot restore coverage.
  auto store = std::make_shared<FaultyObjectStore>(
      std::make_shared<MemoryObjectStore>());
  ManuInstance db(config, store);
  auto meta = db.CreateCollection(VecSchema("placement_unroutable"));
  ASSERT_TRUE(meta.ok());
  VectorDataset data = MakeData(2000);
  ASSERT_TRUE(
      db.Insert("placement_unroutable", MakeBatch(meta.value(), data, 0, 2000))
          .ok());
  ASSERT_TRUE(db.FlushAndWait("placement_unroutable").ok());

  // Find a node that is the sole owner of at least one sealed segment.
  NodeId victim = kInvalidNodeId;
  for (const auto& entry :
       db.query_coord()->placement()->CollectionSnapshot(meta.value().id)) {
    if (entry.serving.size() == 1) {
      victim = entry.serving[0].node;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNodeId);

  const int64_t unroutable_before = MetricsRegistry::Global().CounterValue(
      "placement.unroutable_segments");
  {
    // Kill the node while the object store refuses reads: the synchronous
    // recovery reload fails, leaving its groups with zero replicas.
    ScopedFailPoint down("object_store.get",
                         FailPointPolicy::ErrorWithProbability(1.0));
    ASSERT_TRUE(db.KillQueryNode(victim).ok());

    // Strict searches refuse to silently serve a subset...
    SearchRequest strict;
    strict.collection = "placement_unroutable";
    strict.query.assign(data.Row(3), data.Row(3) + kDim);
    strict.k = 5;
    strict.consistency = ConsistencyLevel::kEventually;
    auto res = db.Search(strict);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);

    // ...while partial searches serve what is left, with the lost segments
    // counted against coverage (not silently dropped).
    SearchRequest partial = strict;
    partial.allow_partial = true;
    auto part = db.Search(partial);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    EXPECT_LT(part.value().coverage, 1.0);

    // A batch applies the same rule per request.
    auto batch = db.BatchSearch({strict, partial});
    ASSERT_EQ(batch.size(), 2u);
    ASSERT_FALSE(batch[0].ok());
    EXPECT_EQ(batch[0].status().code(), StatusCode::kUnavailable);
    ASSERT_TRUE(batch[1].ok()) << batch[1].status().ToString();
    EXPECT_LT(batch[1].value().coverage, 1.0);

    // A refused strict request is never dispatched: a strict-only batch
    // reaches no query node.
    const int64_t node_searches = MetricsRegistry::Global().HistogramCount(
        "query_node.search_latency");
    auto refused = db.BatchSearch({strict, strict});
    ASSERT_EQ(refused.size(), 2u);
    for (const auto& res : refused) {
      ASSERT_FALSE(res.ok());
      EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);
    }
    EXPECT_EQ(MetricsRegistry::Global().HistogramCount(
                  "query_node.search_latency"),
              node_searches);
    EXPECT_GT(MetricsRegistry::Global().CounterValue(
                  "placement.unroutable_segments"),
              unroutable_before);
    EXPECT_GT(db.query_coord()->placement()->UnderReplicatedCount(), 0);
  }

  // Storage healed: one reconcile pass repairs the orphaned groups from
  // the object store and full-coverage strict searches resume.
  EXPECT_GT(db.query_coord()->placement()->ReconcileOnce(), 0);
  EXPECT_EQ(db.query_coord()->placement()->UnderReplicatedCount(), 0);
  SearchRequest req;
  req.collection = "placement_unroutable";
  req.query.assign(data.Row(3), data.Row(3) + kDim);
  req.k = 5;
  req.consistency = ConsistencyLevel::kEventually;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
}

TEST(PlacementE2E, ReconcilerRestoresRedundancyAfterKill) {
  ManuConfig config = BaseConfig();
  config.num_query_nodes = 3;
  config.replica_factor = 2;
  config.placement_reconcile_interval_ms = 50;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("placement_heal"));
  ASSERT_TRUE(meta.ok());
  VectorDataset data = MakeData(2000);
  ASSERT_TRUE(
      db.Insert("placement_heal", MakeBatch(meta.value(), data, 0, 2000))
          .ok());
  ASSERT_TRUE(db.FlushAndWait("placement_heal").ok());

  auto* pm = db.query_coord()->placement();
  auto groups = GroupsOf(*pm, meta.value().id);
  ASSERT_FALSE(groups.empty());
  for (const auto& [seg, nodes] : groups) {
    EXPECT_EQ(nodes.size(), 2u) << "segment " << seg;
  }

  const NodeId victim = *groups.begin()->second.begin();
  ASSERT_TRUE(db.KillQueryNode(victim).ok());

  // Coverage is immediate (the surviving replica of each group serves);
  // redundancy comes back within the reconcile window.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pm->UnderReplicatedCount() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(pm->UnderReplicatedCount(), 0);
  EXPECT_EQ(MetricsRegistry::Global().GaugeValue("placement.under_replicated"),
            0);
  for (const auto& [seg, nodes] : GroupsOf(*pm, meta.value().id)) {
    EXPECT_EQ(nodes.size(), 2u) << "segment " << seg;
    EXPECT_EQ(nodes.count(victim), 0u) << "segment " << seg;
  }
  EXPECT_GT(MetricsRegistry::Global().CounterValue(
                "placement.repair_ops", {{"trigger", "redundancy"}}),
            0);
}

}  // namespace
}  // namespace manu
