// Chaos suite: fault injection, graceful degradation and crash recovery.
// Built as its own test binary (label "chaos") so `ctest -L chaos` runs just
// these, optionally under MANU_SANITIZE=address|thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/synthetic.h"
#include "common/trace.h"
#include "core/manu.h"
#include "storage/lsm_map.h"

namespace manu {
namespace {

CollectionSchema VecSchema(const std::string& name, int32_t dim) {
  CollectionSchema schema(name);
  FieldSchema vec;
  vec.name = "v";
  vec.type = DataType::kFloatVector;
  vec.dim = dim;
  EXPECT_TRUE(schema.AddField(vec).ok());
  return schema;
}

/// Rows [begin, end) of `data` as a batch with pks begin..end-1 shifted by
/// `pk_offset`.
EntityBatch VecBatch(const CollectionMeta& meta, const VectorDataset& data,
                     int64_t begin, int64_t end, int64_t pk_offset = 0) {
  EntityBatch batch;
  for (int64_t i = begin; i < end; ++i) {
    batch.primary_keys.push_back(pk_offset + i);
  }
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      meta.schema.FieldByName("v")->id, data.dim,
      std::vector<float>(data.Row(begin),
                         data.Row(begin) + (end - begin) * data.dim)));
  return batch;
}

// ---------------------------------------------------------------------------
// Recovery gate
// ---------------------------------------------------------------------------

TEST(RecoveryGate, PromotionRearmsServiceTimestamp) {
  // A follower consumes the channel for deletes/ticks WITHOUT materializing
  // inserts, yet its service_ts advances. If promotion kept that service_ts,
  // the consistency gate would report the rebuilt growing state as fresh
  // while replay had not even started. Promotion must reset the gate.
  ManuConfig config;
  MetaStore meta_store;
  MemoryObjectStore store;
  MessageQueue mq;
  Tso tso;
  CoreContext ctx{config, &meta_store, &store, &mq, &tso, nullptr};

  const CollectionId coll = 42;
  auto schema = std::make_shared<CollectionSchema>(VecSchema("gate", 4));
  const FieldId field = schema->FieldByName("v")->id;

  QueryNode node(1, ctx);
  node.AddChannel(coll, /*shard=*/0, schema, /*primary=*/false);
  node.Start();

  // Publish 3 insert batches of 10 rows.
  Timestamp last_ts = 0;
  for (int64_t b = 0; b < 3; ++b) {
    LogEntry entry;
    entry.type = LogEntryType::kInsert;
    entry.collection = coll;
    entry.shard = 0;
    entry.segment = 7;
    for (int64_t i = 0; i < 10; ++i) {
      entry.batch.primary_keys.push_back(b * 10 + i);
      entry.batch.timestamps.push_back(tso.Allocate());
    }
    entry.batch.columns.push_back(FieldColumn::MakeFloatVector(
        field, 4, std::vector<float>(10 * 4, 0.5f)));
    entry.timestamp = entry.batch.timestamps.back();
    last_ts = entry.timestamp;
    ASSERT_GE(mq.Publish(ShardChannelName(coll, 0), std::move(entry)), 0);
  }

  // The follower consumes everything (gate open) but materializes nothing.
  ASSERT_TRUE(node.WaitServiceTs(coll, last_ts, 2000));
  EXPECT_EQ(node.NumGrowingRows(coll), 0);

  // Promote with the pump stopped: the gate must re-arm immediately, before
  // any replay happens.
  node.Stop();
  node.PromoteChannel(coll, 0);
  EXPECT_EQ(node.ServiceTs(coll), 0u);

  // Once the pump resumes, replay rebuilds the growing state and the gate
  // re-opens only after real progress.
  node.Start();
  ASSERT_TRUE(node.WaitServiceTs(coll, last_ts, 2000));
  EXPECT_EQ(node.NumGrowingRows(coll), 30);
  node.Stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

class DegradationTest : public ::testing::Test {
 protected:
  DegradationTest() {
    ManuConfig config;
    config.num_shards = 2;
    config.num_query_nodes = 2;
    config.segment_seal_rows = 100000;  // Keep everything growing.
    config.segment_idle_seal_ms = 600000;
    config.time_tick_interval_ms = 10;
    db_ = std::make_unique<ManuInstance>(config);
    auto meta = db_->CreateCollection(VecSchema("deg", 8));
    EXPECT_TRUE(meta.ok());
    meta_ = meta.value();
    SyntheticOptions opts;
    opts.num_rows = 200;
    opts.dim = 8;
    data_ = MakeClusteredDataset(opts);
    auto ts = db_->Insert("deg", VecBatch(meta_, data_, 0, 200));
    EXPECT_TRUE(ts.ok());
    EXPECT_TRUE(db_->WaitUntilVisible("deg", ts.value()).ok());
  }

  SearchRequest Req() {
    SearchRequest req;
    req.collection = "deg";
    req.query.assign(data_.Row(0), data_.Row(0) + 8);
    req.k = 5;
    req.consistency = ConsistencyLevel::kEventually;
    return req;
  }

  std::unique_ptr<ManuInstance> db_;
  CollectionMeta meta_;
  VectorDataset data_;
};

TEST_F(DegradationTest, NodeFailureFailsSearchByDefault) {
  ScopedFailPoint fp("query_node.search_segment",
                     FailPointPolicy::ErrorOnce());
  auto res = db_->Search(Req());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(fp.trips(), 1);
}

TEST_F(DegradationTest, AllowPartialDropsFailingNode) {
  const int64_t partial_before =
      MetricsRegistry::Global().CounterValue("proxy.partial_results");
  {
    // Exactly one of the two fanned-out node searches fails.
    ScopedFailPoint fp("query_node.search_segment",
                       FailPointPolicy::ErrorOnce());
    SearchRequest req = Req();
    req.allow_partial = true;
    auto res = db_->Search(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_LT(res.value().coverage, 1.0);
    EXPECT_GT(res.value().coverage, 0.0);
    EXPECT_FALSE(res.value().ids.empty());
    EXPECT_EQ(fp.trips(), 1);
  }
  EXPECT_EQ(
      MetricsRegistry::Global().CounterValue("proxy.partial_results"),
      partial_before + 1);

  // Guard gone: the same request is whole again.
  SearchRequest req = Req();
  req.allow_partial = true;
  auto res = db_->Search(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().coverage, 1.0);
}

TEST_F(DegradationTest, DeadlineSkipsSlowNode) {
  // One node stalls 300 ms; with a 50 ms per-node deadline and
  // allow_partial, the proxy abandons it and returns fast.
  FailPointPolicy slow = FailPointPolicy::Delay(300000);
  slow.max_trips = 1;
  ScopedFailPoint fp("query_node.search_segment", std::move(slow));

  SearchRequest req = Req();
  req.allow_partial = true;
  req.node_deadline_ms = 50;
  const int64_t t0 = NowMs();
  auto res = db_->Search(req);
  const int64_t elapsed = NowMs() - t0;
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_LT(res.value().coverage, 1.0);
  EXPECT_LT(elapsed, 250) << "proxy waited for the stalled node";

  // Without allow_partial the same deadline miss is an error.
  FailPointPolicy again = FailPointPolicy::Delay(300000);
  again.max_trips = 1;
  FailPointRegistry::Global().Arm("query_node.search_segment",
                                  std::move(again));
  req.allow_partial = false;
  res = db_->Search(req);
  EXPECT_FALSE(res.ok());
}

// ---------------------------------------------------------------------------
// Mixed-workload chaos
// ---------------------------------------------------------------------------

TEST(Chaos, MixedWorkloadWithNodeCrashesAndStorageFaults) {
  std::mt19937_64 rng(20260805);

  ManuConfig config;
  config.num_shards = 2;
  config.num_query_nodes = 3;
  config.segment_seal_rows = 400;
  config.segment_idle_seal_ms = 150;
  config.time_tick_interval_ms = 10;
  config.node_search_deadline_ms = 2000;
  auto store =
      std::make_shared<FaultyObjectStore>(std::make_shared<MemoryObjectStore>());
  ManuInstance db(config, store);

  auto meta = db.CreateCollection(VecSchema("chaos", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("chaos", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 1000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  // Baseline ingest with a healthy store.
  std::set<int64_t> acked;
  int64_t attempted = 0;
  {
    auto ts = db.Insert("chaos", VecBatch(meta.value(), data, 0, 400));
    ASSERT_TRUE(ts.ok());
    for (int64_t pk = 0; pk < 400; ++pk) acked.insert(pk);
    attempted = 400;
    ASSERT_TRUE(db.WaitUntilVisible("chaos", ts.value()).ok());
  }

  const int64_t retry_attempts_before =
      MetricsRegistry::Global().CounterValue("retry.attempts");

  // --- Fault window: 5% of object-store reads and writes fail while the
  // workload keeps inserting and searching and nodes crash underneath it.
  {
    ScopedFailPoint faulty_get(
        "object_store.get",
        FailPointPolicy::ErrorWithProbability(0.05, /*seed=*/rng()));
    ScopedFailPoint faulty_put(
        "object_store.put",
        FailPointPolicy::ErrorWithProbability(0.05, /*seed=*/rng()));

    for (int iter = 0; iter < 20; ++iter) {
      // Insert 20 rows; only an acknowledged insert promises durability.
      const int64_t begin = attempted;
      const int64_t end = attempted + 20;
      attempted = end;
      auto ts =
          db.Insert("chaos", VecBatch(meta.value(), data, begin, end));
      if (ts.ok()) {
        for (int64_t pk = begin; pk < end; ++pk) acked.insert(pk);
      }

      // Searches degrade gracefully, never error, while storage misbehaves.
      SearchRequest req;
      req.collection = "chaos";
      req.query.assign(data.Row(begin % 400), data.Row(begin % 400) + 8);
      req.k = 10;
      req.consistency = ConsistencyLevel::kEventually;
      req.allow_partial = true;
      auto res = db.Search(req);
      ASSERT_TRUE(res.ok()) << "iter " << iter << ": "
                            << res.status().ToString();
      EXPECT_LE(res.value().coverage, 1.0);

      // Crash a random query node twice during the window (keeping >= 2
      // alive), and scale back up in between: recovery runs concurrently
      // with the faulty store.
      if (iter == 5 || iter == 12) {
        auto nodes = db.query_coord()->Nodes();
        ASSERT_GE(nodes.size(), 2u);
        const size_t victim = rng() % nodes.size();
        ASSERT_TRUE(db.KillQueryNode(nodes[victim]->id()).ok());
      }
      if (iter == 8) {
        ASSERT_TRUE(db.ScaleQueryNodes(3).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Deterministic partial result inside the window: one node search fails.
    const size_t serving =
        db.query_coord()->NodesFor(meta.value().id).size();
    ScopedFailPoint one_bad("query_node.search_segment",
                            FailPointPolicy::ErrorOnce());
    SearchRequest req;
    req.collection = "chaos";
    req.query.assign(data.Row(0), data.Row(0) + 8);
    req.k = 10;
    req.consistency = ConsistencyLevel::kEventually;
    req.allow_partial = true;
    auto res = db.Search(req);
    if (serving >= 2) {
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_LT(res.value().coverage, 1.0);
    } else {
      // Channel reassignment collapsed serving onto one node: with its only
      // node failed, even allow_partial has nothing to return.
      EXPECT_FALSE(res.ok());
    }
    EXPECT_GE(one_bad.trips(), 1);
  }
  // Guards out of scope: the store is healthy again.

  // Deterministic retry exercise: one read fails once, the retry layer
  // absorbs it. Every Get through the faulty store here (the probe's table
  // load, or a late index/segment load racing it) sits behind RetryOp, so
  // the counter must advance no matter which call consumes the fault.
  {
    LsmEntityMap probe(store.get(), "chaos/probe",
                       /*memtable_flush_entries=*/2);
    for (int64_t i = 0; i < 4; ++i) ASSERT_TRUE(probe.Put(i, i).ok());
    ScopedFailPoint flaky("object_store.get", FailPointPolicy::ErrorOnce());
    LsmEntityMap recovered(store.get(), "chaos/probe",
                           /*memtable_flush_entries=*/2);
    ASSERT_TRUE(recovered.Recover().ok());
    EXPECT_EQ(*recovered.Lookup(1), 1);
  }
  EXPECT_GT(MetricsRegistry::Global().CounterValue("retry.attempts"),
            retry_attempts_before);
  EXPECT_GT(MetricsRegistry::Global().CounterValue("failpoint.trips"), 0);

  // --- Recovery: writes flow again and every acknowledged insert is
  // searchable at strong consistency.
  {
    const int64_t begin = attempted;
    const int64_t end = attempted + 100;
    attempted = end;
    auto ts = db.Insert("chaos", VecBatch(meta.value(), data, begin, end));
    ASSERT_TRUE(ts.ok()) << ts.status().ToString();
    for (int64_t pk = begin; pk < end; ++pk) acked.insert(pk);
    ASSERT_TRUE(db.WaitUntilVisible("chaos", ts.value(), 30000).ok());
  }

  SearchRequest req;
  req.collection = "chaos";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  // k >= every row that may exist (acked + shards of refused inserts):
  // the result must then contain every acked pk exactly once.
  req.k = static_cast<size_t>(attempted);
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  for (int64_t pk : acked) {
    EXPECT_TRUE(found.count(pk)) << "acked pk " << pk << " lost";
  }
}

// ---------------------------------------------------------------------------
// Concurrency: batched parallel search racing the WAL pump
// ---------------------------------------------------------------------------

TEST(Chaos, ConcurrentSearchBatchUnderWalPump) {
  // Several client threads issue BatchSearch (each request fans segments
  // out across the node executors) while an insert thread keeps the WAL
  // pumps mutating growing segments. Exercises the shared-lock discipline
  // of the parallel fan-out; run under MANU_SANITIZE=thread this is the
  // data-race probe for the intra-query parallel path.
  ManuConfig config;
  config.num_shards = 2;
  config.num_query_nodes = 2;
  config.query_threads = 4;
  config.segment_seal_rows = 100000;  // Keep everything growing.
  config.segment_idle_seal_ms = 600000;
  config.time_tick_interval_ms = 5;
  ManuInstance db(config);

  auto meta = db.CreateCollection(VecSchema("pump", 8));
  ASSERT_TRUE(meta.ok());

  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  // Seed enough rows that every search sees data.
  auto ts0 = db.Insert("pump", VecBatch(meta.value(), data, 0, 200));
  ASSERT_TRUE(ts0.ok());
  ASSERT_TRUE(db.WaitUntilVisible("pump", ts0.value()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{200};
  std::thread writer([&] {
    int64_t begin = 200;
    while (!stop.load() && begin + 20 <= opts.num_rows) {
      auto ts = db.Insert("pump", VecBatch(meta.value(), data, begin,
                                           begin + 20));
      ASSERT_TRUE(ts.ok());
      begin += 20;
      inserted.store(begin);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<int64_t> batches_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(1000 + c);
      for (int iter = 0; iter < 25; ++iter) {
        std::vector<SearchRequest> reqs(8);
        for (auto& req : reqs) {
          const int64_t row = static_cast<int64_t>(
              rng() % static_cast<uint64_t>(inserted.load()));
          req.collection = "pump";
          req.query.assign(data.Row(row), data.Row(row) + 8);
          req.k = 5;
          req.consistency = ConsistencyLevel::kEventually;
        }
        auto results = db.BatchSearch(reqs);
        ASSERT_EQ(results.size(), reqs.size());
        for (const auto& res : results) {
          ASSERT_TRUE(res.ok()) << res.status().ToString();
          EXPECT_FALSE(res.value().ids.empty());
        }
        batches_ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(batches_ok.load(), 3 * 25);
}

// ---------------------------------------------------------------------------
// Liveness: lease-expiry-driven automatic failover (Section 3.6)
// ---------------------------------------------------------------------------

/// Shrunken lease timings so the watchdog acts within a second while still
/// leaving headroom for sanitizer-slowed pump loops.
ManuConfig LivenessConfig() {
  ManuConfig config;
  config.num_shards = 2;
  config.num_query_nodes = 2;
  config.segment_seal_rows = 100000;
  config.segment_idle_seal_ms = 600000;
  config.time_tick_interval_ms = 10;
  config.lease_ttl_ms = 600;
  config.heartbeat_interval_ms = 100;
  config.watchdog_interval_ms = 100;
  return config;
}

int64_t Counter(const std::string& name) {
  return MetricsRegistry::Global().CounterValue(name);
}

TEST(Liveness, QueryNodeLeaseExpiryAutoFailover) {
  ManuConfig config = LivenessConfig();
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("qlease", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 4;
  ASSERT_TRUE(db.CreateIndex("qlease", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 300;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  // Sealed segments on the victim make the failover move real state.
  ASSERT_TRUE(db.Insert("qlease", VecBatch(meta.value(), data, 0, 200)).ok());
  ASSERT_TRUE(db.FlushAndWait("qlease").ok());
  auto ts = db.Insert("qlease", VecBatch(meta.value(), data, 200, 300));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("qlease", ts.value()).ok());

  const int64_t missed_before = Counter("lease.missed_heartbeats");
  ASSERT_EQ(db.NumQueryNodes(), 2u);
  const NodeId victim = db.query_coord()->Nodes()[0]->id();
  // Abrupt crash: nothing is told to any coordinator. The ONLY recovery
  // path is the watchdog noticing the expired lease.
  ASSERT_TRUE(db.CrashQueryNode(victim).ok());

  const int64_t deadline = NowMs() + 15000;
  while (db.NumQueryNodes() > 1 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(db.NumQueryNodes(), 1u) << "watchdog never failed the node over";
  EXPECT_GT(Counter("lease.missed_heartbeats"), missed_before);
  // The watchdog records MTTR after the coordinator removal that the loop
  // above observes, so give the gauge its own bounded wait.
  while (MetricsRegistry::Global().GaugeValue("cluster.mttr_ms") <= 0 &&
         NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(MetricsRegistry::Global().GaugeValue("cluster.mttr_ms"), 0);

  // tau=0 on the survivor: every acked write, full coverage.
  SearchRequest req;
  req.collection = "qlease";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 300;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  for (int64_t pk = 0; pk < 300; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

TEST(Liveness, DataNodeLeaseExpiryAutoFailover) {
  ManuConfig config = LivenessConfig();
  config.num_data_nodes = 2;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("dlease", 8));
  ASSERT_TRUE(meta.ok());

  SyntheticOptions opts;
  opts.num_rows = 400;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  // Acked but unarchived: these rows exist only in the WAL, so the shard
  // handoff below must replay them into the survivor for sealing to work.
  auto ts = db.Insert("dlease", VecBatch(meta.value(), data, 0, 200));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("dlease", ts.value()).ok());

  NodeId victim = kInvalidNodeId;
  for (const LeaseInfo& info : db.leases()->Snapshot()) {
    if (info.role == "data") {
      victim = info.node;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNodeId);
  const int64_t missed_before = Counter("lease.missed_heartbeats");
  ASSERT_TRUE(db.CrashDataNode(victim).ok());

  // Wait for the watchdog to revoke the lease and hand the channel over.
  const int64_t deadline = NowMs() + 15000;
  while (Counter("lease.missed_heartbeats") <= missed_before &&
         NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GT(Counter("lease.missed_heartbeats"), missed_before)
      << "watchdog never saw the dead data node";

  // Writes keep flowing, and a flush archives BOTH the replayed backlog
  // and the new rows — it would time out if any shard channel were left
  // without an owner.
  ASSERT_TRUE(db.Insert("dlease", VecBatch(meta.value(), data, 200, 400)).ok());
  ASSERT_TRUE(db.FlushAndWait("dlease").ok());
  int64_t archived = 0;
  for (const SegmentMeta& seg : db.data_coord()->ListSegments(meta.value().id)) {
    if (seg.state != SegmentState::kDropped) archived += seg.num_rows;
  }
  EXPECT_EQ(archived, 400);

  SearchRequest req;
  req.collection = "dlease";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 400;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  for (int64_t pk = 0; pk < 400; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

TEST(Liveness, ZombieDataNodeFencedAtArchiveCommitPoint) {
  // A zombie: the worker is alive and consuming, only its heartbeats are
  // dropped (a network partition, modeled by the per-node failpoint). The
  // watchdog revokes the lease — bumping the persisted epoch — and the
  // zombie's next binlog archive is rejected at the commit point instead
  // of corrupting state the survivor now owns.
  ManuConfig config = LivenessConfig();
  config.num_data_nodes = 2;
  config.segment_seal_rows = 50;  // Every shard's growing segment will seal.
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("zombie", 8));
  ASSERT_TRUE(meta.ok());

  SyntheticOptions opts;
  opts.num_rows = 300;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  auto ts0 = db.Insert("zombie", VecBatch(meta.value(), data, 0, 40));
  ASSERT_TRUE(ts0.ok());
  ASSERT_TRUE(db.WaitUntilVisible("zombie", ts0.value()).ok());

  NodeId zombie = kInvalidNodeId;
  for (const LeaseInfo& info : db.leases()->Snapshot()) {
    if (info.role == "data") {
      zombie = info.node;
      break;
    }
  }
  ASSERT_NE(zombie, kInvalidNodeId);

  const int64_t missed_before = Counter("lease.missed_heartbeats");
  ScopedFailPoint partition("lease.heartbeat." + std::to_string(zombie),
                            FailPointPolicy::ErrorWithProbability(1.0));
  const int64_t deadline = NowMs() + 15000;
  while (Counter("lease.missed_heartbeats") <= missed_before &&
         NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GT(Counter("lease.missed_heartbeats"), missed_before)
      << "watchdog never revoked the partitioned node";

  // Push every shard past the seal threshold: the zombie (still pumping
  // its old channel) tries to archive and is fenced; the survivor, which
  // replayed the channel after the handoff, archives successfully.
  const int64_t rejected_before = Counter("lease.fencing_rejections");
  ASSERT_TRUE(db.Insert("zombie", VecBatch(meta.value(), data, 40, 300)).ok());
  const int64_t fence_deadline = NowMs() + 15000;
  while (Counter("lease.fencing_rejections") <= rejected_before &&
         NowMs() < fence_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(Counter("lease.fencing_rejections"), rejected_before)
      << "zombie's archive was never rejected";

  // No acked write lost and none duplicated despite the split brain.
  ASSERT_TRUE(db.FlushAndWait("zombie").ok());
  SearchRequest req;
  req.collection = "zombie";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 300;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  for (int64_t pk = 0; pk < 300; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

TEST(Liveness, BatchSearchReportsReducedCoverageDuringFailover) {
  ManuConfig config = LivenessConfig();
  config.lease_ttl_ms = 2500;  // Wide pre-failover window to observe.
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("bcov", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 4;
  ASSERT_TRUE(db.CreateIndex("bcov", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 200;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("bcov", VecBatch(meta.value(), data, 0, 200)).ok());
  ASSERT_TRUE(db.FlushAndWait("bcov").ok());

  ASSERT_EQ(db.NumQueryNodes(), 2u);
  const NodeId victim = db.query_coord()->Nodes()[0]->id();
  ASSERT_TRUE(db.CrashQueryNode(victim).ok());

  // In the window between the crash and the watchdog's failover, the dead
  // node is still in the fan-out set: allow_partial keeps the batch
  // serving but must REPORT the reduced coverage, not paper over it.
  std::vector<SearchRequest> reqs(4);
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].collection = "bcov";
    reqs[i].query.assign(data.Row(i), data.Row(i) + 8);
    reqs[i].k = 10;
    reqs[i].consistency = ConsistencyLevel::kEventually;
    reqs[i].allow_partial = true;
  }
  double min_coverage = 1.0;
  auto results = db.BatchSearch(reqs);
  ASSERT_EQ(results.size(), reqs.size());
  for (const auto& res : results) {
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    min_coverage = std::min(min_coverage, res.value().coverage);
  }
  EXPECT_LT(min_coverage, 1.0)
      << "degraded batch reported full coverage with a node down";

  // After the watchdog rebalances, the same batch reaches full coverage
  // and, at tau=0, full content.
  const int64_t deadline = NowMs() + 15000;
  while (db.NumQueryNodes() > 1 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(db.NumQueryNodes(), 1u) << "watchdog never failed the node over";
  for (auto& req : reqs) {
    req.consistency = ConsistencyLevel::kStrong;
    req.k = 200;
  }
  results = db.BatchSearch(reqs);
  for (const auto& res : results) {
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().coverage, 1.0);
    std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
    for (int64_t pk = 0; pk < 200; ++pk) {
      EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
    }
  }
}

// ---------------------------------------------------------------------------
// Trace propagation under faults
// ---------------------------------------------------------------------------

const SpanRecord* FindSpanNamed(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string SpanTag(const SpanRecord& rec, const std::string& key) {
  for (const auto& [k, v] : rec.tags) {
    if (k == key) return v;
  }
  return "";
}

std::shared_ptr<Trace> LastSearchTrace() {
  auto traces = Tracer::Global().collector().Traces();
  for (auto it = traces.rbegin(); it != traces.rend(); ++it) {
    if ((*it)->root_name() == "proxy.search") return *it;
  }
  return nullptr;
}

TEST(Liveness, TraceSurvivesRetryAndFailoverRedispatch) {
  Tracer::Global().ResetForTest();
  ManuConfig config = LivenessConfig();
  config.search_retry_attempts = 1;
  config.trace_sample_every = 1;  // Retain every request's trace.
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("tprop", 8));
  ASSERT_TRUE(meta.ok());

  SyntheticOptions opts;
  opts.num_rows = 200;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  auto ts = db.Insert("tprop", VecBatch(meta.value(), data, 0, 200));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("tprop", ts.value()).ok());

  SearchRequest req;
  req.collection = "tprop";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 10;

  // Phase 1: transient fault. The first fan-out hits an injected
  // kUnavailable, the proxy retries, and the retry succeeds — the whole
  // story must land in ONE trace: the failed attempt's node span under the
  // root, the re-dispatched node span under a proxy.retry child.
  const int64_t retries_before = Counter("proxy.search_retries");
  {
    ScopedFailPoint fp(
        "query_node.search_segment",
        FailPointPolicy::ErrorOnce(StatusCode::kUnavailable));
    auto res = db.Search(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(fp.trips(), 1);
  }
  EXPECT_EQ(Counter("proxy.search_retries"), retries_before + 1);

  auto trace = LastSearchTrace();
  ASSERT_NE(trace, nullptr);
  auto spans = trace->Snapshot();
  const SpanRecord* root = FindSpanNamed(spans, "proxy.search");
  const SpanRecord* retry = FindSpanNamed(spans, "proxy.retry");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(retry, nullptr) << "retry attempt did not record a span";
  EXPECT_EQ(retry->parent_id, root->span_id);
  EXPECT_EQ(SpanTag(*retry, "attempt"), "1");
  EXPECT_NE(SpanTag(*retry, "cause"), "");
  bool failed_attempt_under_root = false;
  bool redispatch_under_retry = false;
  for (const auto& s : spans) {
    if (s.name != "query_node.search") continue;
    if (s.parent_id == root->span_id) failed_attempt_under_root = true;
    if (s.parent_id == retry->span_id) redispatch_under_retry = true;
  }
  EXPECT_TRUE(failed_attempt_under_root)
      << "first attempt's node span lost from the trace";
  EXPECT_TRUE(redispatch_under_retry)
      << "re-dispatched node search not parented to the retry span";

  // A batch takes the same retry loop, re-dispatching only the request
  // whose fan-out hit the fault. Phase 1's strict request stopped waiting
  // at its first node failure; the other node's task may still be queued
  // or running as an abandoned straggler, and must not take this trip.
  for (const auto& node : db.query_coord()->Nodes()) {
    const int64_t idle_by = NowMs() + 5000;
    while (node->LoadSnapshot().inflight > 0 && NowMs() < idle_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(node->LoadSnapshot().inflight, 0) << "node " << node->id();
  }
  {
    ScopedFailPoint fp(
        "query_node.search_segment",
        FailPointPolicy::ErrorOnce(StatusCode::kUnavailable));
    auto results = db.BatchSearch({req, req, req});
    ASSERT_EQ(results.size(), 3u);
    for (const auto& batched : results) {
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      EXPECT_EQ(batched.value().coverage, 1.0);
    }
    EXPECT_EQ(fp.trips(), 1);
  }
  EXPECT_EQ(Counter("proxy.search_retries"), retries_before + 2);

  // Phase 2: hard failover. Crash a query node, let the watchdog hand its
  // shards to the survivor, and verify a fresh search traces end-to-end on
  // the NEW routing — node spans tagged with the survivor's id, with
  // per-segment scans underneath.
  ASSERT_EQ(db.NumQueryNodes(), 2u);
  const NodeId victim = db.query_coord()->Nodes()[0]->id();
  ASSERT_TRUE(db.CrashQueryNode(victim).ok());
  const int64_t deadline = NowMs() + 15000;
  while (db.NumQueryNodes() > 1 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(db.NumQueryNodes(), 1u) << "watchdog never failed the node over";
  const NodeId survivor = db.query_coord()->Nodes()[0]->id();

  req.k = 200;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);

  trace = LastSearchTrace();
  ASSERT_NE(trace, nullptr);
  spans = trace->Snapshot();
  root = FindSpanNamed(spans, "proxy.search");
  ASSERT_NE(root, nullptr);
  int node_spans = 0;
  for (const auto& s : spans) {
    if (s.name != "query_node.search") continue;
    ++node_spans;
    EXPECT_EQ(SpanTag(s, "node"), std::to_string(survivor))
        << "post-failover trace still references a dead node";
  }
  EXPECT_GT(node_spans, 0);
  EXPECT_NE(FindSpanNamed(spans, "segment.scan"), nullptr);
  Tracer::Global().ResetForTest();
}

// ---------------------------------------------------------------------------
// Overload storm (core/admission.h)
// ---------------------------------------------------------------------------

TEST(Chaos, OverloadStormShedsBeforeRejectAndDrains) {
  // ~10x the sustainable concurrency against an armed admission front door.
  // Proves the brownout ladder engages in order (degrade -> shed ->
  // reject), that refusals carry retry-after hints instead of queueing,
  // that goodput holds up under the storm, that admitted latency stays
  // bounded, that no acked write is lost, and that everything drains back
  // to stage 0 once the storm passes.
  ManuConfig config;
  config.num_shards = 2;
  config.num_query_nodes = 2;
  config.query_threads = 2;
  config.segment_seal_rows = 1000;
  config.segment_idle_seal_ms = 300;
  config.time_tick_interval_ms = 10;
  config.sim_segment_search_us = 2000;  // Calibrated 2ms/segment service.
  config.admission_max_inflight = 16;
  config.admission_node_inflight = 4;
  config.node_search_deadline_ms = 500;
  config.shed_retry_after_ms = 5;
  config.shed_degraded_deadline_ms = 250;
  config.logger_inflight_limit = 2;
  config.admission_write_retry_attempts = 4;
  ManuInstance db(config);

  auto meta = db.CreateCollection(VecSchema("storm", 16));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 4000;
  opts.dim = 16;
  opts.num_clusters = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("storm", VecBatch(meta.value(), data, 0, 4000)).ok());
  ASSERT_TRUE(db.FlushAndWait("storm").ok());

  auto search_once = [&](int64_t row, int32_t priority,
                         const std::string& tenant) {
    SearchRequest req;
    req.collection = "storm";
    req.query.assign(data.Row(row % 4000), data.Row(row % 4000) + 16);
    req.k = 10;
    req.consistency = ConsistencyLevel::kEventually;
    req.tenant = tenant;
    req.priority = priority;
    return db.Search(req);
  };

  // Closed-loop driver; shed clients honor the retry-after hint (sleep)
  // instead of hammering, like a well-behaved SDK.
  struct LoopStats {
    std::atomic<int64_t> ok{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> timeout{0};
    std::atomic<int64_t> unavailable{0};
    std::atomic<int64_t> unexpected{0};
  };
  auto run_loop = [&](int threads, int64_t duration_ms, bool mixed_priority,
                      LoopStats* stats, LatencyHistogram* ok_lat) {
    std::vector<std::thread> workers;
    const int64_t t_end = NowMs() + duration_ms;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        int64_t n = 0;
        while (NowMs() < t_end) {
          const int32_t priority = mixed_priority && (w % 2 == 1) ? 1 : 0;
          const std::string tenant = "t" + std::to_string(w % 4);
          const int64_t t0 = NowMicros();
          auto res = search_once(w * 10007 + n++, priority, tenant);
          if (res.ok()) {
            stats->ok.fetch_add(1);
            if (ok_lat != nullptr) {
              ok_lat->Observe(static_cast<double>(NowMicros() - t0));
            }
            continue;
          }
          switch (res.status().code()) {
            case StatusCode::kResourceExhausted: {
              stats->shed.fetch_add(1);
              int64_t hint =
                  AdmissionController::RetryAfterHintMs(res.status());
              if (hint < 1) hint = 5;
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(std::min<int64_t>(hint, 50)));
              break;
            }
            case StatusCode::kTimeout:
              stats->timeout.fetch_add(1);
              break;
            case StatusCode::kUnavailable:
              // Degraded fan-out where every node refused at once.
              stats->unavailable.fetch_add(1);
              break;
            default:
              stats->unexpected.fetch_add(1);
              ADD_FAILURE() << "unexpected storm error: "
                            << res.status().ToString();
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  };

  // --- Pre-storm saturation: near-capacity, below the brownout knee. ---
  LoopStats sat;
  const int64_t sat_t0 = NowMs();
  run_loop(/*threads=*/4, /*duration_ms=*/600, /*mixed_priority=*/false,
           &sat, nullptr);
  const double sat_qps = static_cast<double>(sat.ok.load()) /
                         (static_cast<double>(NowMs() - sat_t0) / 1000.0);
  ASSERT_GT(sat.ok.load(), 0);

  // --- The storm: ~10x the saturation concurrency, plus writers. ---
  std::atomic<bool> stop_writers{false};
  std::atomic<Timestamp> max_acked_ts{0};
  std::vector<int64_t> acked_pks;
  std::mutex acked_mu;
  // Written rows come from a differently-seeded mixture so their vectors
  // don't collide with the base corpus (presence is verifiable by search).
  SyntheticOptions wopts = opts;
  wopts.num_rows = 2000;
  wopts.seed = 1234;
  VectorDataset wdata = MakeClusteredDataset(wopts);
  std::vector<std::thread> writers;
  std::atomic<int64_t> next_wrow{0};
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      while (!stop_writers.load()) {
        const int64_t row = next_wrow.fetch_add(20);
        if (row + 20 > wdata.NumRows()) break;
        auto ts = db.Insert(
            "storm", VecBatch(meta.value(), wdata, row, row + 20, 100000));
        if (ts.ok()) {
          Timestamp prev = max_acked_ts.load();
          while (prev < ts.value() &&
                 !max_acked_ts.compare_exchange_weak(prev, ts.value())) {
          }
          std::lock_guard<std::mutex> lk(acked_mu);
          for (int64_t i = row; i < row + 20; ++i) {
            acked_pks.push_back(100000 + i);
          }
        } else {
          // Backpressured past the proxy's retry budget: the write was
          // refused with zero side effects; only RE is acceptable here.
          EXPECT_EQ(ts.status().code(), StatusCode::kResourceExhausted)
              << ts.status().ToString();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  LoopStats storm;
  LatencyHistogram admitted_lat;
  const int64_t storm_t0 = NowMs();
  run_loop(/*threads=*/40, /*duration_ms=*/1500, /*mixed_priority=*/true,
           &storm, &admitted_lat);
  const double storm_secs =
      static_cast<double>(NowMs() - storm_t0) / 1000.0;
  stop_writers.store(true);
  for (auto& w : writers) w.join();

  // The ladder engaged, and in order: degrade before shed before reject.
  const AdmissionController& adm = db.proxy()->admission();
  const int64_t s1 = adm.StageFirstEngagedMs(1);
  const int64_t s2 = adm.StageFirstEngagedMs(2);
  const int64_t s3 = adm.StageFirstEngagedMs(3);
  EXPECT_GT(s1, 0) << "storm never engaged the brownout ladder";
  if (s2 > 0) {
    EXPECT_LE(s1, s2);
  }
  if (s3 > 0) {
    EXPECT_GT(s2, 0) << "reject engaged without passing through shed";
    EXPECT_LE(s2, s3);
  }
  EXPECT_GT(storm.shed.load(), 0) << "overload must shed, not queue";
  EXPECT_EQ(storm.unexpected.load(), 0);

  // Goodput holds up: admitted work still completes at a healthy fraction
  // of the pre-storm saturation rate (the bench demonstrates the >= 0.7
  // SLO; the bar here is relaxed because sanitizer instrumentation on a
  // loaded single-core CI box skews the 40-thread storm far more than the
  // 4-thread saturation probe — collapse would read ~0.1x, not ~0.5x).
  const double storm_qps = static_cast<double>(storm.ok.load()) / storm_secs;
  EXPECT_GE(storm_qps, 0.35 * sat_qps)
      << "goodput collapsed under overload: " << storm_qps << " vs saturation "
      << sat_qps;

  // Admitted latency stays bounded (degraded deadlines cap node waits).
  EXPECT_GT(admitted_lat.Count(), 0);
  EXPECT_LT(admitted_lat.Percentile(99), 2'000'000.0)
      << "admitted p99 exploded: " << admitted_lat.Percentile(99) / 1000.0
      << "ms";

  // --- Drain: pressure decays, the ladder releases, queues empty. ---
  bool drained = false;
  for (int i = 0; i < 100; ++i) {
    (void)search_once(i, 0, "drain");  // Each call re-samples pressure.
    bool nodes_idle = true;
    for (const auto& node : db.query_coord()->Nodes()) {
      if (node->LoadSnapshot().inflight > 0) nodes_idle = false;
    }
    if (adm.stage() == 0 && adm.inflight() == 0 && nodes_idle) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(drained) << "stage=" << adm.stage()
                       << " inflight=" << adm.inflight();

  // --- No acked write lost. ---
  ASSERT_TRUE(db.WaitUntilVisible("storm", max_acked_ts.load()).ok());
  std::vector<int64_t> sample;
  {
    std::lock_guard<std::mutex> lk(acked_mu);
    for (size_t i = 0; i < acked_pks.size(); i += 37) {
      sample.push_back(acked_pks[i]);
    }
  }
  EXPECT_FALSE(sample.empty()) << "every storm write was backpressured away";
  for (int64_t pk : sample) {
    SearchRequest req;
    req.collection = "storm";
    const int64_t row = pk - 100000;
    req.query.assign(wdata.Row(row), wdata.Row(row) + 16);
    req.k = 1;
    req.consistency = ConsistencyLevel::kStrong;
    auto res = db.Search(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_FALSE(res.value().ids.empty());
    EXPECT_EQ(res.value().ids[0], pk) << "acked write lost";
  }
}

// ---------------------------------------------------------------------------
// Replica groups: self-healing placement under an abrupt kill + live load
// ---------------------------------------------------------------------------

TEST(Chaos, ReplicaGroupSelfHealsAfterAbruptKillUnderLoad) {
  // replica_factor=2 on a 3-node fleet: every sealed segment has two
  // serving copies, so an abrupt single-node kill never loses coverage.
  // The reconciler must then restore redundancy on the survivors while a
  // mixed insert/search workload keeps running — searches never fail (at
  // most reduced coverage inside the detection window) and no acked write
  // is lost.
  ManuConfig config = LivenessConfig();
  config.num_query_nodes = 3;
  config.replica_factor = 2;
  config.segment_seal_rows = 400;
  config.placement_reconcile_interval_ms = 100;
  config.search_retry_attempts = 3;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("heal", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 4;
  ASSERT_TRUE(db.CreateIndex("heal", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  // Seed sealed, replicated segments before the fault.
  std::mutex ack_mu;
  std::set<int64_t> acked;
  int64_t attempted = 1200;
  ASSERT_TRUE(db.Insert("heal", VecBatch(meta.value(), data, 0, 1200)).ok());
  for (int64_t pk = 0; pk < 1200; ++pk) acked.insert(pk);
  ASSERT_TRUE(db.FlushAndWait("heal").ok());

  auto* placement = db.query_coord()->placement();
  ASSERT_EQ(placement->UnderReplicatedCount(), 0);
  auto groups = placement->CollectionSnapshot(meta.value().id);
  ASSERT_FALSE(groups.empty());
  for (const auto& g : groups) {
    ASSERT_EQ(g.serving.size(), 2u) << "segment " << g.meta.id;
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> searches{0};
  std::atomic<int64_t> failed_searches{0};
  std::mutex err_mu;
  std::string first_error;

  std::thread searcher([&] {
    std::mt19937 rng(7);
    while (!stop.load()) {
      SearchRequest req;
      req.collection = "heal";
      const int64_t row = static_cast<int64_t>(rng() % 1200);
      req.query.assign(data.Row(row), data.Row(row) + 8);
      req.k = 10;
      req.consistency = ConsistencyLevel::kEventually;
      req.allow_partial = true;
      auto res = db.Search(req);
      ++searches;
      if (!res.ok()) {
        ++failed_searches;
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error.empty()) first_error = res.status().ToString();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::thread writer([&] {
    while (!stop.load()) {
      int64_t begin;
      {
        std::lock_guard<std::mutex> lock(ack_mu);
        if (attempted + 40 > opts.num_rows) break;
        begin = attempted;
        attempted += 40;
      }
      auto ts = db.Insert("heal", VecBatch(meta.value(), data, begin,
                                           begin + 40));
      if (ts.ok()) {
        std::lock_guard<std::mutex> lock(ack_mu);
        for (int64_t pk = begin; pk < begin + 40; ++pk) acked.insert(pk);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // Let the workload settle on the healthy fleet, then kill a replica
  // holder abruptly: no coordinator is told, the watchdog must notice.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(db.NumQueryNodes(), 3u);
  const NodeId victim = groups[0].serving[0].node;
  ASSERT_TRUE(db.CrashQueryNode(victim).ok());

  const int64_t deadline = NowMs() + 15000;
  while (db.NumQueryNodes() > 2 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(db.NumQueryNodes(), 2u) << "watchdog never failed the node over";

  // Redundancy must come back on the survivors within a bounded number of
  // reconcile passes.
  while (placement->UnderReplicatedCount() > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(placement->UnderReplicatedCount(), 0)
      << "reconciler never restored redundancy";
  EXPECT_EQ(MetricsRegistry::Global().GaugeValue("placement.under_replicated"),
            0);
  EXPECT_GT(MetricsRegistry::Global().CounterValue(
                "placement.repair_ops", {{"trigger", "redundancy"}}),
            0);

  stop.store(true);
  searcher.join();
  writer.join();

  EXPECT_GT(searches.load(), 0);
  EXPECT_EQ(failed_searches.load(), 0) << first_error;

  // Every repaired group is back at factor 2, and none of the copies sits
  // on the dead node.
  for (const auto& g : placement->CollectionSnapshot(meta.value().id)) {
    EXPECT_EQ(g.serving.size(), 2u) << "segment " << g.meta.id;
    for (const auto& r : g.serving) EXPECT_NE(r.node, victim);
  }

  // No acked write lost: a strong sweep over everything that may exist
  // must return every acked pk exactly once at full coverage.
  SearchRequest req;
  req.collection = "heal";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  {
    std::lock_guard<std::mutex> lock(ack_mu);
    req.k = static_cast<size_t>(attempted);
  }
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  std::lock_guard<std::mutex> lock(ack_mu);
  for (int64_t pk : acked) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

}  // namespace
}  // namespace manu
