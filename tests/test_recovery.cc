// Liveness and crash recovery (Section 3.6): heartbeat leases with
// persisted fencing epochs, instance-epoch fencing of superseded
// deployments, ManuInstance::Recover over a surviving DurableState, WAL
// truncation-vs-archive validation, and deadline regressions for the
// blocking test barriers (FlushAndWait / WaitUntilVisible / Compact).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/synthetic.h"
#include "core/lease.h"
#include "core/manu.h"
#include "wal/message.h"

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

int64_t Counter(const std::string& name) {
  return MetricsRegistry::Global().CounterValue(name);
}

// ---------------------------------------------------------------------------
// Lease manager unit tests
// ---------------------------------------------------------------------------

TEST(Lease, EpochsAreMonotoneAcrossReregistration) {
  MetaStore meta;
  LeaseManager lm(&meta, /*ttl_ms=*/1000);
  const int64_t e1 = lm.Register(7, "query");
  EXPECT_GT(e1, 0);
  EXPECT_TRUE(lm.Renew(7, e1).ok());
  EXPECT_TRUE(lm.CheckEpoch(7, e1).ok());

  // Graceful removal leaves the persisted epoch behind; re-registering the
  // same node id must bump past it so the old incarnation is fenced.
  lm.Deregister(7);
  const int64_t e2 = lm.Register(7, "query");
  EXPECT_GT(e2, e1);
  EXPECT_FALSE(lm.Renew(7, e1).ok());
  EXPECT_FALSE(lm.CheckEpoch(7, e1).ok());
  EXPECT_TRUE(lm.CheckEpoch(7, e2).ok());

  // The epochs survive the LeaseManager itself: a fresh manager over the
  // same MetaStore (process restart) keeps counting up.
  LeaseManager lm2(&meta, 1000);
  const int64_t e3 = lm2.Register(7, "query");
  EXPECT_GT(e3, e2);
}

TEST(Lease, RevokeFencesInFlightCommits) {
  MetaStore meta;
  LeaseManager lm(&meta, 1000);
  const int64_t e1 = lm.Register(9, "data");
  const int64_t rejected_before = Counter("lease.fencing_rejections");

  const int64_t e2 = lm.Revoke(9);
  EXPECT_GT(e2, e1);
  // The zombie's commit-point check fails against the bumped epoch...
  Status st = lm.CheckEpoch(9, e1);
  EXPECT_FALSE(st.ok()) << st.ToString();
  EXPECT_GT(Counter("lease.fencing_rejections"), rejected_before);
  // ...and its heartbeat no longer resurrects the lease.
  EXPECT_FALSE(lm.Renew(9, e1).ok());

  // Revoked leases report dead exactly once (not again as "expired").
  bool found_dead = false;
  for (const LeaseInfo& info : lm.Snapshot()) {
    if (info.node == 9) found_dead = info.dead;
  }
  EXPECT_TRUE(found_dead);
  EXPECT_TRUE(lm.ExpiredLeases(NowMs() + 10000).empty());
}

TEST(Lease, ExpiryAndFailpointPausedHeartbeats) {
  MetaStore meta;
  LeaseManager lm(&meta, /*ttl_ms=*/50);
  const int64_t epoch = lm.Register(11, "query");

  EXPECT_TRUE(lm.ExpiredLeases(NowMs()).empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto expired = lm.ExpiredLeases(NowMs());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].node, 11);

  // A renewal resets the clock.
  ASSERT_TRUE(lm.Renew(11, epoch).ok());
  EXPECT_TRUE(lm.ExpiredLeases(NowMs()).empty());

  // A "network partition": the node is alive but its heartbeats are
  // dropped at the failpoint, so the lease expires anyway.
  ScopedFailPoint partition("lease.heartbeat.11",
                            FailPointPolicy::ErrorWithProbability(1.0));
  EXPECT_FALSE(lm.Renew(11, epoch).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(lm.ExpiredLeases(NowMs()).size(), 1u);
}

// ---------------------------------------------------------------------------
// MQ truncation tracking (what crash recovery validates against)
// ---------------------------------------------------------------------------

TEST(MqTruncation, TracksMaxDroppedLsnPerKind) {
  MessageQueue mq;
  const std::string ch = "trunc-test";
  auto publish = [&](LogEntryType type, Timestamp ts) {
    LogEntry e;
    e.type = type;
    e.timestamp = ts;
    ASSERT_GE(mq.Publish(ch, std::move(e)), 0);
  };
  publish(LogEntryType::kInsert, 10);
  publish(LogEntryType::kDelete, 20);
  publish(LogEntryType::kInsert, 30);
  publish(LogEntryType::kInsert, 40);

  EXPECT_EQ(mq.TruncatedBelowTs(ch), 0u);
  mq.TruncateBefore(ch, 2);  // Drops LSNs 10 and 20 (the delete).
  EXPECT_EQ(mq.TruncatedBelowTs(ch), 20u);
  EXPECT_EQ(mq.TruncatedDeleteTs(ch), 20u);
  mq.TruncateBefore(ch, 3);  // Drops LSN 30.
  EXPECT_EQ(mq.TruncatedBelowTs(ch), 30u);
  EXPECT_EQ(mq.TruncatedDeleteTs(ch), 20u);  // No further deletes dropped.
  EXPECT_EQ(mq.BeginOffset(ch), 3);
  EXPECT_EQ(mq.EndOffset(ch), 4);
}

// ---------------------------------------------------------------------------
// Crash recovery over durable state
// ---------------------------------------------------------------------------

ManuConfig SmallConfig() {
  ManuConfig config;
  config.num_shards = 2;
  config.num_query_nodes = 2;
  config.segment_seal_rows = 100;
  config.segment_idle_seal_ms = 600000;  // Only explicit flushes seal.
  config.time_tick_interval_ms = 10;
  return config;
}

TEST(Recovery, TauZeroSearchSeesAllAckedWritesAfterRestart) {
  ManuConfig config = SmallConfig();
  SyntheticOptions opts;
  opts.num_rows = 300;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  std::shared_ptr<DurableState> durable;
  CollectionMeta meta;
  {
    ManuInstance db(config);
    durable = db.durable_state();
    auto created = db.CreateCollection(VecSchema("crash", 8));
    ASSERT_TRUE(created.ok());
    meta = created.value();
    IndexParams params;
    params.type = IndexType::kIvfFlat;
    params.nlist = 4;
    ASSERT_TRUE(db.CreateIndex("crash", "v", params).ok());

    // 200 rows sealed + archived, 100 rows only in the WAL, 10 deletes.
    ASSERT_TRUE(db.Insert("crash", VecBatch(meta, data, 0, 200)).ok());
    ASSERT_TRUE(db.FlushAndWait("crash").ok());
    ASSERT_TRUE(db.Insert("crash", VecBatch(meta, data, 200, 300)).ok());
    std::vector<int64_t> dead_pks;
    for (int64_t pk = 0; pk < 10; ++pk) dead_pks.push_back(pk);
    auto del_ts = db.Delete("crash", dead_pks);
    ASSERT_TRUE(del_ts.ok());
    ASSERT_TRUE(db.WaitUntilVisible("crash", del_ts.value()).ok());
  }  // Abrupt end of the process: every node object is gone.

  auto recovered = ManuInstance::Recover(config, durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ManuInstance& db = *recovered.value();

  SearchRequest req;
  req.collection = "crash";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 300;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(found.size(), res.value().ids.size()) << "duplicate pks";
  for (int64_t pk = 0; pk < 10; ++pk) {
    EXPECT_EQ(found.count(pk), 0u) << "deleted pk " << pk << " resurrected";
  }
  for (int64_t pk = 10; pk < 300; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }

  // Recovery is itself durable: writes keep flowing on the new instance.
  auto ts = db.Insert("crash", VecBatch(meta, data, 0, 10));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("crash", ts.value()).ok());
}

TEST(Recovery, InstanceEpochFencesSupersededInstance) {
  ManuConfig config = SmallConfig();
  SyntheticOptions opts;
  opts.num_rows = 50;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  auto old_db = std::make_unique<ManuInstance>(config);
  auto created = old_db->CreateCollection(VecSchema("fence", 8));
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(
      old_db->Insert("fence", VecBatch(created.value(), data, 0, 50)).ok());

  // Fail over to a new instance while the old one is still running (a
  // split-brain): acquiring the instance epoch fences the old loggers.
  auto new_db = ManuInstance::Recover(config, old_db->durable_state());
  ASSERT_TRUE(new_db.ok()) << new_db.status().ToString();
  EXPECT_GT(new_db.value()->instance_epoch(), old_db->instance_epoch());

  const int64_t rejected_before = Counter("lease.fencing_rejections");
  auto stale = old_db->Insert("fence", VecBatch(created.value(), data, 0, 10));
  EXPECT_FALSE(stale.ok()) << "zombie instance's WAL publish not fenced";
  EXPECT_GT(Counter("lease.fencing_rejections"), rejected_before);

  auto fresh =
      new_db.value()->Insert("fence", VecBatch(created.value(), data, 0, 10));
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Old instance first: its destructor must not tear down the shared WAL
  // broker under the successor.
  old_db.reset();
  auto after =
      new_db.value()->Insert("fence", VecBatch(created.value(), data, 10, 20));
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(Recovery, GroupCommitFencedNeverAckedAckedSurviveRecover) {
  // The group-commit crash drill: with batching on, fenced (zombie) and
  // live publishes share commit groups on one channel. Refused publishes
  // must never be acked or installed; everything acked must survive a
  // subsequent abrupt failover. This is the "fencing inside the commit
  // decision" property — a pre-publish check would pass for entries staged
  // before the epoch bump but flushed after it.
  ManuConfig config = SmallConfig();
  config.num_shards = 1;  // One channel: zombie and successor share groups.
  config.wal_group_max_entries = 64;
  config.wal_flush_linger_us = 200;  // Encourage mixed groups.
  config.wal_sim_flush_latency_us = 100;
  SyntheticOptions opts;
  opts.num_rows = 300;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  auto old_db = std::make_unique<ManuInstance>(config);
  auto created = old_db->CreateCollection(VecSchema("gc", 8));
  ASSERT_TRUE(created.ok());
  const CollectionMeta meta = created.value();
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 4;
  ASSERT_TRUE(old_db->CreateIndex("gc", "v", params).ok());

  // Phase 1: concurrent writers through the grouped publish path; every
  // batch acked. Rows [0, 100).
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&, w] {
        for (int b = 0; b < 5; ++b) {
          const int64_t lo = w * 25 + b * 5;
          auto st = old_db->Insert("gc", VecBatch(meta, data, lo, lo + 5));
          EXPECT_TRUE(st.ok()) << st.status().ToString();
        }
      });
    }
    for (auto& t : writers) t.join();
  }

  // Phase 2: failover while the old instance keeps running (split brain).
  auto new_db = ManuInstance::Recover(config, old_db->durable_state());
  ASSERT_TRUE(new_db.ok()) << new_db.status().ToString();

  // Phase 3: mixed traffic on the same shard channel. The zombie's rows
  // [100, 150) must all be refused; the successor's rows [200, 250) must
  // all commit — even when both sit in the same commit group.
  std::atomic<int> stale_failures{0};
  std::vector<std::thread> mixed;
  for (int w = 0; w < 2; ++w) {
    mixed.emplace_back([&, w] {
      for (int b = 0; b < 5; ++b) {
        const int64_t lo = 100 + w * 25 + b * 5;
        auto st = old_db->Insert("gc", VecBatch(meta, data, lo, lo + 5));
        if (!st.ok()) stale_failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < 2; ++w) {
    mixed.emplace_back([&, w] {
      for (int b = 0; b < 5; ++b) {
        const int64_t lo = 200 + w * 25 + b * 5;
        auto st =
            new_db.value()->Insert("gc", VecBatch(meta, data, lo, lo + 5));
        EXPECT_TRUE(st.ok()) << st.status().ToString();
      }
    });
  }
  for (auto& t : mixed) t.join();
  EXPECT_EQ(stale_failures.load(), 10) << "a fenced publish was acked";

  // Abrupt end of both instances (zombie first: it must not tear down the
  // shared broker under the successor), then recover from durable state.
  auto durable = new_db.value()->durable_state();
  old_db.reset();
  new_db.value().reset();
  auto recovered = ManuInstance::Recover(config, durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  SearchRequest req;
  req.collection = "gc";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 300;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = recovered.value()->Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  for (int64_t pk = 0; pk < 100; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
  for (int64_t pk = 100; pk < 150; ++pk) {
    EXPECT_EQ(found.count(pk), 0u)
        << "fenced pk " << pk << " leaked into the log";
  }
  for (int64_t pk = 200; pk < 250; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

TEST(Recovery, DetectsWalTruncatedAboveArchivedFloor) {
  ManuConfig config = SmallConfig();
  SyntheticOptions opts;
  opts.num_rows = 50;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  std::shared_ptr<DurableState> durable;
  {
    ManuInstance db(config);
    durable = db.durable_state();
    auto created = db.CreateCollection(VecSchema("loss", 8));
    ASSERT_TRUE(created.ok());
    // Acked but never archived: these rows exist only in the WAL.
    auto ts = db.Insert("loss", VecBatch(created.value(), data, 0, 50));
    ASSERT_TRUE(ts.ok());
    ASSERT_TRUE(db.WaitUntilVisible("loss", ts.value()).ok());

    // Force-expire the whole shard channel behind the system's back (the
    // guarded TruncateLogBefore would refuse to cut above the floor).
    const CollectionId cid = created.value().id;
    for (ShardId shard = 0; shard < config.num_shards; ++shard) {
      const std::string ch = ShardChannelName(cid, shard);
      durable->mq.TruncateBefore(ch, durable->mq.EndOffset(ch));
    }
  }

  auto recovered = ManuInstance::Recover(config, durable);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
}

TEST(Recovery, TruncateLogBeforeClampsToArchivedFloor) {
  ManuConfig config = SmallConfig();
  SyntheticOptions opts;
  opts.num_rows = 200;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);

  std::shared_ptr<DurableState> durable;
  CollectionMeta meta;
  {
    ManuInstance db(config);
    durable = db.durable_state();
    auto created = db.CreateCollection(VecSchema("expire", 8));
    ASSERT_TRUE(created.ok());
    meta = created.value();
    // Archived prefix + a growing tail that only the WAL holds.
    ASSERT_TRUE(db.Insert("expire", VecBatch(meta, data, 0, 100)).ok());
    ASSERT_TRUE(db.FlushAndWait("expire").ok());
    auto ts = db.Insert("expire", VecBatch(meta, data, 100, 200));
    ASSERT_TRUE(ts.ok());
    ASSERT_TRUE(db.WaitUntilVisible("expire", ts.value()).ok());

    // Ask to expire *everything*: the clamp must retain the unarchived
    // tail, so recovery below still replays rows 100..199.
    ASSERT_TRUE(db.TruncateLogBefore("expire", kMaxTimestamp).ok());
  }

  auto recovered = ManuInstance::Recover(config, durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  SearchRequest req;
  req.collection = "expire";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 200;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = recovered.value()->Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::set<int64_t> found(res.value().ids.begin(), res.value().ids.end());
  for (int64_t pk = 0; pk < 200; ++pk) {
    EXPECT_EQ(found.count(pk), 1u) << "acked pk " << pk << " lost";
  }
}

// ---------------------------------------------------------------------------
// Deadline regressions: the blocking barriers must report kTimeout
// ---------------------------------------------------------------------------

class TimeoutTest : public ::testing::Test {
 protected:
  TimeoutTest() {
    ManuConfig config = SmallConfig();
    db_ = std::make_unique<ManuInstance>(config);
    auto created = db_->CreateCollection(VecSchema("slow", 8));
    EXPECT_TRUE(created.ok());
    meta_ = created.value();
    SyntheticOptions opts;
    opts.num_rows = 120;
    opts.dim = 8;
    data_ = MakeClusteredDataset(opts);
  }

  std::unique_ptr<ManuInstance> db_;
  CollectionMeta meta_;
  VectorDataset data_;
};

TEST_F(TimeoutTest, FlushAndWaitHonorsDeadline) {
  ASSERT_TRUE(db_->Insert("slow", VecBatch(meta_, data_, 0, 120)).ok());
  // Every shard's seal stalls 400 ms; the 100 ms deadline fires first.
  FailPointPolicy stall = FailPointPolicy::Delay(400000);
  stall.max_trips = 4;
  ScopedFailPoint fp("data_node.seal", std::move(stall));
  Status st = db_->FlushAndWait("slow", /*timeout_ms=*/100);
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
  // The flush completes once the stall passes (clean teardown).
  EXPECT_TRUE(db_->FlushAndWait("slow").ok());
}

TEST_F(TimeoutTest, WaitUntilVisibleHonorsSharedBudget) {
  auto ts = db_->Insert("slow", VecBatch(meta_, data_, 0, 120));
  ASSERT_TRUE(ts.ok());
  // A timestamp ~100 s in the future can't become visible; the deadline
  // bounds the WHOLE call even though multiple nodes are waited on in turn.
  const Timestamp future =
      ComposeTimestamp(PhysicalMs(ts.value()) + 100000, 0);
  const int64_t t0 = NowMs();
  Status st = db_->WaitUntilVisible("slow", future, /*timeout_ms=*/150);
  const int64_t elapsed = NowMs() - t0;
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
  EXPECT_LT(elapsed, 2000) << "per-node waits burned the budget repeatedly";
}

TEST_F(TimeoutTest, CompactHonorsDeadline) {
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 4;
  ASSERT_TRUE(db_->CreateIndex("slow", "v", params).ok());
  // Two flushes of 30 rows over 2 shards leave ~15-row segments — all under
  // the small-segment bar (0.25 * segment_seal_rows = 25), so Compact has a
  // real merge to do.
  ASSERT_TRUE(db_->Insert("slow", VecBatch(meta_, data_, 0, 30)).ok());
  ASSERT_TRUE(db_->FlushAndWait("slow").ok());
  ASSERT_TRUE(db_->Insert("slow", VecBatch(meta_, data_, 30, 60)).ok());
  ASSERT_TRUE(db_->FlushAndWait("slow").ok());

  // The merged segment's index build stalls past the compaction deadline.
  FailPointPolicy stall = FailPointPolicy::Delay(400000);
  stall.max_trips = 2;
  ScopedFailPoint fp("index_node.build", std::move(stall));
  Status st = db_->Compact("slow", /*timeout_ms=*/100);
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
}

}  // namespace
}  // namespace manu
