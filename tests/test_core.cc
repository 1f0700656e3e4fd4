#include <gtest/gtest.h>

#include <set>

#include "common/metrics.h"

#include "common/synthetic.h"
#include "core/autoscaler.h"
#include "core/hash_ring.h"
#include "core/manu.h"
#include "core/tuner.h"

namespace manu {
namespace {

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRing, RoutesConsistently) {
  HashRing ring;
  ring.AddNode(1);
  ring.AddNode(2);
  ring.AddNode(3);
  EXPECT_EQ(ring.NumNodes(), 3u);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(ring.Route(key), ring.Route(key));
  }
}

TEST(HashRing, RemovalOnlyMovesVictimsKeys) {
  HashRing ring;
  for (int64_t n = 1; n <= 4; ++n) ring.AddNode(n);
  std::map<uint64_t, int64_t> before;
  for (uint64_t key = 0; key < 1000; ++key) before[key] = ring.Route(key);
  ring.RemoveNode(3);
  for (uint64_t key = 0; key < 1000; ++key) {
    const int64_t now = ring.Route(key);
    EXPECT_NE(now, 3);
    if (before[key] != 3) {
      EXPECT_EQ(now, before[key]) << "key " << key << " moved needlessly";
    }
  }
}

TEST(HashRing, SpreadsLoadAcrossNodes) {
  HashRing ring(64);
  for (int64_t n = 0; n < 4; ++n) ring.AddNode(n);
  std::map<int64_t, int64_t> counts;
  for (uint64_t key = 0; key < 10000; ++key) ++counts[ring.Route(key)];
  for (const auto& [node, count] : counts) {
    EXPECT_GT(count, 1000) << "node " << node << " starved";
  }
}

// ---------------------------------------------------------------------------
// Coordinators + pipeline (through ManuInstance with direct component
// access)
// ---------------------------------------------------------------------------

ManuConfig SmallConfig() {
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 500;
  config.segment_idle_seal_ms = 200;
  config.slice_rows = 128;
  config.time_tick_interval_ms = 10;
  return config;
}

CollectionSchema VecSchema(const std::string& name, int32_t dim) {
  CollectionSchema schema(name);
  FieldSchema vec;
  vec.name = "v";
  vec.type = DataType::kFloatVector;
  vec.dim = dim;
  EXPECT_TRUE(schema.AddField(vec).ok());
  return schema;
}

EntityBatch VecBatch(const CollectionMeta& meta, const VectorDataset& data,
                     int64_t begin, int64_t end) {
  EntityBatch batch;
  for (int64_t i = begin; i < end; ++i) batch.primary_keys.push_back(i);
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      meta.schema.FieldByName("v")->id, data.dim,
      std::vector<float>(data.Row(begin),
                         data.Row(begin) + (end - begin) * data.dim)));
  return batch;
}

TEST(RootCoord, DdlLifecycle) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("a", 4));
  ASSERT_TRUE(meta.ok());
  // Auto primary key added.
  EXPECT_NE(meta.value().schema.PrimaryField(), nullptr);

  // Duplicate name rejected.
  EXPECT_TRUE(db.CreateCollection(VecSchema("a", 4)).status()
                  .IsAlreadyExists());

  // Index declaration validates field.
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  EXPECT_TRUE(db.CreateIndex("a", "nope", params).IsNotFound());
  EXPECT_TRUE(db.CreateIndex("a", "_pk", params).IsInvalidArgument());
  EXPECT_TRUE(db.CreateIndex("a", "v", params).ok());
  // Version bumped.
  EXPECT_EQ(db.root_coord()->GetCollection("a").value().index_version, 1);

  ASSERT_TRUE(db.DropCollection("a").ok());
  EXPECT_TRUE(db.root_coord()->GetCollection("a").status().IsNotFound());
  EXPECT_TRUE(db.DropCollection("a").IsNotFound());
  // Name can be reused.
  EXPECT_TRUE(db.CreateCollection(VecSchema("a", 4)).ok());
}

TEST(DataCoord, SegmentAllocationRollsOver) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("a", 4));
  ASSERT_TRUE(meta.ok());
  auto* dc = db.data_coord();

  auto s1 = dc->AllocateSegment(meta.value().id, 0, 400, 1000);
  ASSERT_TRUE(s1.ok());
  auto s2 = dc->AllocateSegment(meta.value().id, 0, 50, 100);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.value(), s2.value());  // Still under 500-row threshold.
  auto s3 = dc->AllocateSegment(meta.value().id, 0, 200, 100);
  ASSERT_TRUE(s3.ok());
  EXPECT_NE(s1.value(), s3.value());  // Rolled over.
  // Different shard gets a different segment.
  auto other = dc->AllocateSegment(meta.value().id, 1, 10, 10);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value(), s3.value());
  // Unknown collection rejected.
  EXPECT_FALSE(dc->AllocateSegment(999, 0, 1, 1).ok());
}

TEST(Pipeline, SealIndexLoadFlow) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("flow", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("flow", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("flow", VecBatch(meta.value(), data, 0, 2000)).ok());
  ASSERT_TRUE(db.FlushAndWait("flow").ok());

  // Every registered segment must be indexed and carry binlog + index
  // paths, and the binlog objects must exist in the object store.
  auto segments = db.data_coord()->ListSegments(meta.value().id);
  ASSERT_FALSE(segments.empty());
  int64_t total_rows = 0;
  for (const auto& seg : segments) {
    EXPECT_EQ(seg.state, SegmentState::kIndexed);
    EXPECT_FALSE(seg.binlog_path.empty());
    ASSERT_EQ(seg.index_paths.size(), 1u);
    EXPECT_TRUE(db.object_store()->Exists(seg.index_paths.begin()->second));
    total_rows += seg.num_rows;
  }
  EXPECT_EQ(total_rows, 2000);

  // Segments are distributed across both default query nodes (2 shards x
  // several segments; at least both nodes got something).
  std::set<NodeId> owners;
  for (const auto& node : db.query_coord()->Nodes()) {
    if (!node->SealedSegments(meta.value().id).empty()) {
      owners.insert(node->id());
    }
  }
  EXPECT_GE(owners.size(), 1u);
}

TEST(Pipeline, IdleSealTriggersWithoutFlush) {
  ManuConfig config = SmallConfig();
  config.segment_seal_rows = 1000000;  // Only idle can seal.
  config.segment_idle_seal_ms = 100;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("idle", 4));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 100;
  opts.dim = 4;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("idle", VecBatch(meta.value(), data, 0, 100)).ok());

  // Wait for the idle checker to roll + data nodes to seal. Each shard's
  // segment registers on its own, so wait for all rows, not the first one.
  auto sealed_rows = [&] {
    int64_t rows = 0;
    for (const auto& s : db.data_coord()->ListSegments(meta.value().id)) {
      rows += s.num_rows;
    }
    return rows;
  };
  const int64_t deadline = NowMs() + 5000;
  while (sealed_rows() < 100 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(sealed_rows(), 100);
}

TEST(Logger, DeleteOfUnknownPkIsFiltered) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("del", 4));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 10;
  opts.dim = 4;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("del", VecBatch(meta.value(), data, 0, 10)).ok());

  // Deleting an unknown pk publishes nothing (LSN 0 means all filtered).
  auto ts = db.Delete("del", {424242});
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts.value(), 0u);
  // Known pk gets a real LSN.
  ts = db.Delete("del", {3});
  ASSERT_TRUE(ts.ok());
  EXPECT_GT(ts.value(), 0u);
  // Double delete: already tombstoned in the LSM, filtered again.
  ts = db.Delete("del", {3});
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts.value(), 0u);
}

TEST(QueryCoord, KillNodeRecoversSealedSegments) {
  ManuConfig config = SmallConfig();
  config.num_query_nodes = 3;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("ha", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("ha", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("ha", VecBatch(meta.value(), data, 0, 2000)).ok());
  ASSERT_TRUE(db.FlushAndWait("ha").ok());

  SearchRequest req;
  req.collection = "ha";
  req.query.assign(data.Row(99), data.Row(99) + 8);
  req.k = 5;
  req.consistency = ConsistencyLevel::kStrong;
  auto before = db.Search(req);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().ids[0], 99);

  // Crash a node that holds segments; results must survive.
  NodeId victim = kInvalidNodeId;
  for (const auto& node : db.query_coord()->Nodes()) {
    if (!node->SealedSegments(meta.value().id).empty()) {
      victim = node->id();
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNodeId);
  ASSERT_TRUE(db.KillQueryNode(victim).ok());
  EXPECT_EQ(db.NumQueryNodes(), 2u);

  auto after = db.Search(req);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_FALSE(after.value().ids.empty());
  EXPECT_EQ(after.value().ids[0], 99);
  EXPECT_EQ(after.value().ids.size(), before.value().ids.size());
}

TEST(QueryCoord, RebalanceEvensSegmentCounts) {
  ManuConfig config = SmallConfig();
  config.num_query_nodes = 1;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("bal", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 4000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("bal", VecBatch(meta.value(), data, 0, 4000)).ok());
  ASSERT_TRUE(db.FlushAndWait("bal").ok());

  // All segments on the single node; scale to 3 and rebalance.
  ASSERT_TRUE(db.ScaleQueryNodes(3).ok());
  std::vector<size_t> counts;
  for (const auto& node : db.query_coord()->Nodes()) {
    counts.push_back(node->SealedSegments(meta.value().id).size());
  }
  ASSERT_EQ(counts.size(), 3u);
  const auto [min_it, max_it] =
      std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*max_it - *min_it, 1u);
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST(Compaction, MergesSmallSegmentsAndPurgesDeletes) {
  ManuConfig config = SmallConfig();
  config.segment_seal_rows = 400;
  config.small_segment_ratio = 3.0;  // Everything counts as small.
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("cmp", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("cmp", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 1600;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("cmp", VecBatch(meta.value(), data, 0, 1600)).ok());
  ASSERT_TRUE(db.FlushAndWait("cmp").ok());
  const size_t before = db.data_coord()->ListSegments(meta.value().id).size();
  ASSERT_GE(before, 2u);

  // Delete some rows, then compact.
  auto del_ts = db.Delete("cmp", {10, 20, 30});
  ASSERT_TRUE(del_ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("cmp", del_ts.value()).ok());
  ASSERT_TRUE(db.Compact("cmp").ok());

  // Exactly one live segment remains, holding all rows minus the deletes,
  // physically purged.
  std::vector<SegmentMeta> live;
  for (const auto& seg : db.data_coord()->ListSegments(meta.value().id)) {
    if (seg.state != SegmentState::kDropped) live.push_back(seg);
  }
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].num_rows, 1600 - 3);

  // Search still correct: deleted rows gone, everything else findable.
  SearchRequest req;
  req.collection = "cmp";
  req.query.assign(data.Row(10), data.Row(10) + 8);
  req.k = 5;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  for (int64_t id : res.value().ids) EXPECT_NE(id, 10);

  req.query.assign(data.Row(777), data.Row(777) + 8);
  res = db.Search(req);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res.value().ids.empty());
  EXPECT_EQ(res.value().ids[0], 777);
}

TEST(Compaction, NoopWhenNothingQualifies) {
  ManuConfig config = SmallConfig();
  config.small_segment_ratio = 0.0;  // Nothing is "small".
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("noop", 4));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 600;
  opts.dim = 4;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("noop", VecBatch(meta.value(), data, 0, 600)).ok());
  ASSERT_TRUE(db.FlushAndWait("noop").ok());
  const size_t before = db.data_coord()->ListSegments(meta.value().id).size();
  ASSERT_TRUE(db.Compact("noop").ok());
  EXPECT_EQ(db.data_coord()->ListSegments(meta.value().id).size(), before);
}

// ---------------------------------------------------------------------------
// Time travel via checkpoints
// ---------------------------------------------------------------------------

TEST(TimeTravel, CheckpointRecordsSegmentMap) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("tt", 4));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 1200;
  opts.dim = 4;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("tt", VecBatch(meta.value(), data, 0, 1200)).ok());
  ASSERT_TRUE(db.FlushAndWait("tt").ok());
  ASSERT_TRUE(db.Checkpoint("tt").ok());

  auto cp = db.data_coord()->ReadCheckpoint(meta.value().id,
                                            db.tso()->Allocate());
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  int64_t rows = 0;
  for (const auto& seg : cp.value()) rows += seg.num_rows;
  EXPECT_EQ(rows, 1200);

  // No checkpoint exists before creation time.
  EXPECT_TRUE(db.data_coord()
                  ->ReadCheckpoint(meta.value().id, ComposeTimestamp(1, 0))
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// Cluster introspection (the Attu "system view" data source)
// ---------------------------------------------------------------------------

TEST(DescribeCluster, ReportsFleetAndCollections) {
  ManuInstance db(SmallConfig());
  auto meta = db.CreateCollection(VecSchema("desc", 4));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 600;
  opts.dim = 4;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("desc", VecBatch(meta.value(), data, 0, 600)).ok());
  ASSERT_TRUE(db.FlushAndWait("desc").ok());

  const std::string view = db.DescribeCluster();
  EXPECT_NE(view.find("collection 'desc'"), std::string::npos) << view;
  EXPECT_NE(view.find("query nodes:"), std::string::npos);
  EXPECT_NE(view.find("rows(sealed=600"), std::string::npos) << view;
  EXPECT_NE(view.find("logger.rows_inserted"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AutoScaler policy
// ---------------------------------------------------------------------------

TEST(AutoScalerPolicyTest, ScalesUpAndDownWithClamps) {
  ManuConfig config = SmallConfig();
  config.num_query_nodes = 2;
  ManuInstance db(config);
  // Need a collection so the scaler's node changes have channels to move.
  ASSERT_TRUE(db.CreateCollection(VecSchema("s", 4)).ok());

  AutoScalerPolicy policy;
  policy.min_nodes = 1;
  policy.max_nodes = 4;
  AutoScaler scaler(&db, policy);

  EXPECT_EQ(scaler.Evaluate(200.0), 4);  // 2 -> 4 (doubling).
  EXPECT_EQ(scaler.Evaluate(200.0), 4);  // Clamped at max.
  EXPECT_EQ(scaler.Evaluate(120.0), 4);  // In band: no change.
  EXPECT_EQ(scaler.Evaluate(50.0), 2);   // Halved.
  EXPECT_EQ(scaler.Evaluate(50.0), 1);
  EXPECT_EQ(scaler.Evaluate(50.0), 1);   // Clamped at min.
  EXPECT_EQ(db.NumQueryNodes(), 1u);
}

// ---------------------------------------------------------------------------
// Tuner
// ---------------------------------------------------------------------------

TEST(Tuner, FindsReasonableIvfConfig) {
  SyntheticOptions opts;
  opts.num_rows = 6000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  TunerOptions topts;
  topts.type = IndexType::kIvfFlat;
  topts.max_trials = 8;
  topts.min_budget_rows = 1000;
  topts.max_budget_rows = 6000;
  topts.eval_queries = 16;
  IndexAutoTuner tuner(topts);
  auto trials = tuner.Tune(data);
  ASSERT_TRUE(trials.ok()) << trials.status().ToString();
  ASSERT_FALSE(trials.value().empty());
  // Best trial should have decent recall (the utility gates on it).
  EXPECT_GE(trials.value().front().recall, 0.5);
  // Trials are sorted by utility.
  for (size_t i = 1; i < trials.value().size(); ++i) {
    EXPECT_GE(trials.value()[i - 1].utility, trials.value()[i].utility);
  }
}

TEST(Tuner, CustomUtilityIsRespected) {
  SyntheticOptions opts;
  opts.num_rows = 3000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  TunerOptions topts;
  topts.type = IndexType::kIvfFlat;
  topts.max_trials = 6;
  topts.min_budget_rows = 1000;
  topts.max_budget_rows = 3000;
  topts.eval_queries = 8;
  // Utility = recall only.
  IndexAutoTuner tuner(topts, [](const TunerTrial& t) { return t.recall; });
  auto trials = tuner.Tune(data);
  ASSERT_TRUE(trials.ok());
  EXPECT_DOUBLE_EQ(trials.value().front().utility,
                   trials.value().front().recall);
}

}  // namespace
}  // namespace manu
