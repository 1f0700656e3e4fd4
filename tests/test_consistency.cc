#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/synthetic.h"
#include "core/manu.h"

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

/// With time-ticks effectively disabled, the consistency gate is exposed
/// directly: a node's service timestamp only advances on the entries
/// consumed from the log — data entries, and the ticks a strong read's own
/// fence publishes — so whether a query waits depends on tau.
class ConsistencyGateTest : public ::testing::Test {
 protected:
  ConsistencyGateTest() {
    ManuConfig config;
    config.num_shards = 2;
    config.segment_seal_rows = 100000;
    config.segment_idle_seal_ms = 600000;
    config.time_tick_interval_ms = 60000;  // No ticks during the test.
    config.max_consistency_wait_ms = 250;  // Fast, deterministic timeouts.
    db_ = std::make_unique<ManuInstance>(config);
    auto meta = db_->CreateCollection(VecSchema("gate", 8));
    EXPECT_TRUE(meta.ok());
    meta_ = meta.value();

    SyntheticOptions opts;
    opts.num_rows = 100;
    opts.dim = 8;
    data_ = MakeClusteredDataset(opts);
    auto ts = db_->Insert("gate", VecBatch(meta_, data_, 0, 100));
    EXPECT_TRUE(ts.ok());
    // Let the nodes consume the inserts. WaitUntilVisible needs time-ticks
    // (disabled here by design), so poll visibility through eventual reads.
    const int64_t deadline = NowMs() + 5000;
    while (NowMs() < deadline) {
      SearchRequest req = Req(ConsistencyLevel::kEventually);
      req.k = 100;
      auto res = db_->Search(req);
      if (res.ok() && res.value().ids.size() == 100) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "inserts did not become visible";
  }

  SearchRequest Req(ConsistencyLevel level, int64_t staleness_ms = -1) {
    SearchRequest req;
    req.collection = "gate";
    req.query.assign(data_.Row(0), data_.Row(0) + 8);
    req.k = 5;
    req.consistency = level;
    req.staleness_ms = staleness_ms;
    return req;
  }

  std::unique_ptr<ManuInstance> db_;
  CollectionMeta meta_;
  VectorDataset data_;
};

TEST_F(ConsistencyGateTest, StrongReadFencesWithoutPeriodicTicks) {
  // Strong consistency needs Ls >= Lr, and nothing periodic advances Ls
  // after the insert: the read fences the log itself, one tick per lagging
  // shard channel, and returns well inside max_consistency_wait_ms.
  auto& metrics = MetricsRegistry::Global();
  const int64_t ticks0 = metrics.CounterValue("wal.fence_ticks");
  const int64_t t0 = NowMs();
  auto res = db_->Search(Req(ConsistencyLevel::kStrong));
  const int64_t elapsed = NowMs() - t0;
  ASSERT_TRUE(res.ok()) << res.status().ToString() << " after " << elapsed
                        << "ms";
  EXPECT_EQ(res.value().ids[0], 0);
  EXPECT_LT(elapsed, 200);
  EXPECT_EQ(metrics.CounterValue("wal.fence_ticks") - ticks0,
            meta_.num_shards);
}

TEST_F(ConsistencyGateTest, StrongTimesOutWhenTheFenceCannotLand) {
  // The broker refuses every publish, so the fence's ticks never reach the
  // log: nothing advances Ls, and the strong read waits out the bound.
  ScopedFailPoint refuse("mq.publish", FailPointPolicy());
  const int64_t t0 = NowMs();
  auto res = db_->Search(Req(ConsistencyLevel::kStrong));
  const int64_t elapsed = NowMs() - t0;
  ASSERT_FALSE(res.ok()) << "strong read succeeded without a fence after "
                         << elapsed << "ms";
  EXPECT_TRUE(res.status().IsTimeout()) << res.status().ToString();
  EXPECT_GE(elapsed, 240) << res.status().ToString();
}

TEST_F(ConsistencyGateTest, EventualNeverWaits) {
  const int64_t t0 = NowMs();
  auto res = db_->Search(Req(ConsistencyLevel::kEventually));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().ids[0], 0);
  EXPECT_LT(NowMs() - t0, 200);
}

TEST_F(ConsistencyGateTest, BoundedRespectsTolerance) {
  // Tight tolerance: the last data LSN is already older than 1 ms by the
  // time the query timestamp is issued -> gate closed -> timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto res = db_->Search(Req(ConsistencyLevel::kBounded, 1));
  EXPECT_TRUE(res.status().IsTimeout());

  // Loose tolerance: data is well within 60 s staleness -> no wait.
  res = db_->Search(Req(ConsistencyLevel::kBounded, 60000));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().ids[0], 0);
}

TEST_F(ConsistencyGateTest, TimeTravelSkipsTheGate) {
  // A historical read is already consistent; it must not wait even at
  // strong level semantics.
  SearchRequest req = Req(ConsistencyLevel::kStrong);
  req.travel_ts = db_->tso()->Allocate();
  const int64_t t0 = NowMs();
  auto res = db_->Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_LT(NowMs() - t0, 200);
}

TEST(ConsistencyLive, TicksUnblockStrongReads) {
  // With a normal tick cadence, strong reads succeed and the measured gate
  // wait is about one tick interval.
  ManuConfig config;
  config.num_shards = 2;
  config.time_tick_interval_ms = 20;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("live", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 50;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("live", VecBatch(meta.value(), data, 0, 50)).ok());

  SearchRequest req;
  req.collection = "live";
  req.query.assign(data.Row(3), data.Row(3) + 8);
  req.k = 1;
  req.consistency = ConsistencyLevel::kStrong;
  for (int i = 0; i < 5; ++i) {
    auto res = db.Search(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().ids[0], 3);
  }
}

/// Set on the thread whose WAL publish the ordering test holds.
thread_local bool tl_hold_publish = false;

TEST(ConsistencyOrdering, TickCannotPassAHeldInsert) {
  // An insert sits inside mq.publish while periodic ticks keep flowing.
  // Stamped before staging, it would land below ticks already in the
  // channel: a snapshot at a timestamp the nodes have served past would
  // change under a reader. Stamped at staging, it lands above them.
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 100000;
  config.segment_idle_seal_ms = 600000;
  config.time_tick_interval_ms = 5;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("order", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 100;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  auto base = db.Insert("order", VecBatch(meta.value(), data, 0, 100));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(db.WaitUntilVisible("order", base.value(), 5000).ok());

  // The held rows are exact copies of the query vector: any snapshot that
  // holds them ranks them first.
  EntityBatch held_batch;
  for (int64_t pk = 1000; pk < 1010; ++pk) held_batch.primary_keys.push_back(pk);
  std::vector<float> copies;
  for (int i = 0; i < 10; ++i) {
    copies.insert(copies.end(), data.Row(0), data.Row(0) + 8);
  }
  held_batch.columns.push_back(FieldColumn::MakeFloatVector(
      meta.value().schema.FieldByName("v")->id, 8, std::move(copies)));

  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  FailPointPolicy hold = FailPointPolicy::Panic([&] {
    if (!tl_hold_publish) return Status::OK();
    tl_hold_publish = false;  // Hold the first publish only.
    std::unique_lock<std::mutex> lk(mu);
    held = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
    return Status::OK();
  });
  ScopedFailPoint fp("mq.publish", hold);
  std::promise<Result<Timestamp>> inserted;
  std::thread inserter([&] {
    tl_hold_publish = true;
    inserted.set_value(db.Insert("order", std::move(held_batch)));
  });
  auto release = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      released = true;
    }
    cv.notify_all();
    if (inserter.joinable()) inserter.join();
  };
  // Releases the insert on every exit, failed assertions included.
  struct Releaser {
    std::function<void()> fn;
    ~Releaser() { fn(); }
  } releaser{release};
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5), [&] { return held; }));
  }

  const Timestamp t = db.tso()->Allocate();
  for (const auto& node : db.query_coord()->Nodes()) {
    ASSERT_TRUE(node->WaitServiceTs(meta.value().id, t, 5000));
  }
  SearchRequest req;
  req.collection = "order";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 20;
  req.travel_ts = t;
  auto before = db.Search(req);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  release();
  auto ack = inserted.get_future().get();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_GT(ack.value(), t);
  ASSERT_TRUE(db.WaitUntilVisible("order", ack.value(), 5000).ok());

  for (ShardId shard = 0; shard < meta.value().num_shards; ++shard) {
    const std::string channel = ShardChannelName(meta.value().id, shard);
    auto sub = db.mq()->SubscribeAt(channel, db.mq()->BeginOffset(channel));
    const auto entries = sub->TryPoll(1 << 20);
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i]->timestamp, entries[i - 1]->timestamp)
          << channel << " entry " << i << " ("
          << ToString(entries[i]->type) << ") is stamped below entry "
          << i - 1 << " (" << ToString(entries[i - 1]->type) << ")";
    }
  }
  auto after = db.Search(req);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().ids, before.value().ids)
      << "the snapshot at a served timestamp changed";
}

TEST(Recovery, GrowingDataSurvivesPrimaryCrash) {
  // Un-flushed (growing) data lives only in the WAL; when the primary
  // pumping node dies, the promoted node replays the channel from the
  // start and rebuilds the growing segments.
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 100000;  // Keep everything growing.
  config.segment_idle_seal_ms = 600000;
  config.num_query_nodes = 2;
  config.time_tick_interval_ms = 10;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("crash", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 500;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("crash", VecBatch(meta.value(), data, 0, 500)).ok());

  SearchRequest req;
  req.collection = "crash";
  req.query.assign(data.Row(7), data.Row(7) + 8);
  req.k = 1;
  req.consistency = ConsistencyLevel::kStrong;
  auto before = db.Search(req);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().ids[0], 7);

  // Kill each node in turn (one of them is the primary for row 7's shard).
  auto nodes = db.query_coord()->Nodes();
  ASSERT_EQ(nodes.size(), 2u);
  ASSERT_TRUE(db.KillQueryNode(nodes[0]->id()).ok());

  auto after = db.Search(req);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_FALSE(after.value().ids.empty());
  EXPECT_EQ(after.value().ids[0], 7);
}

TEST(Replay, LateSubscriberSeesFullHistory) {
  // A query node added long after ingest replays the WAL and serves the
  // same data (the "log as data" property).
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 100000;
  config.segment_idle_seal_ms = 600000;
  config.num_query_nodes = 1;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("replay", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 300;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  auto ts = db.Insert("replay", VecBatch(meta.value(), data, 0, 300));
  ASSERT_TRUE(ts.ok());
  auto del = db.Delete("replay", {11});
  ASSERT_TRUE(del.ok());

  // Scale to 2: the new node follows all channels; kill the old primary so
  // the new node must reconstruct everything from the log, including the
  // delete.
  ASSERT_TRUE(db.ScaleQueryNodes(2).ok());
  auto nodes = db.query_coord()->Nodes();
  ASSERT_TRUE(db.KillQueryNode(nodes[0]->id()).ok());

  SearchRequest req;
  req.collection = "replay";
  req.query.assign(data.Row(11), data.Row(11) + 8);
  req.k = 3;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_FALSE(res.value().ids.empty());
  for (int64_t id : res.value().ids) EXPECT_NE(id, 11);  // Delete replayed.
}

TEST(Replicas, HotReplicasServeThroughCrashWithoutReload) {
  // replica_factor 2: each sealed segment lives on two nodes; killing one
  // leaves every segment still loaded (no recovery reload needed).
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 500;
  config.segment_idle_seal_ms = 200;
  config.num_query_nodes = 3;
  config.replica_factor = 2;
  config.time_tick_interval_ms = 10;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("rep", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("rep", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("rep", VecBatch(meta.value(), data, 0, 2000)).ok());
  ASSERT_TRUE(db.FlushAndWait("rep").ok());

  // Every sealed segment is loaded on exactly two nodes.
  std::map<SegmentId, int> copies;
  for (const auto& node : db.query_coord()->Nodes()) {
    for (SegmentId s : node->SealedSegments(meta.value().id)) ++copies[s];
  }
  ASSERT_FALSE(copies.empty());
  for (const auto& [seg, count] : copies) {
    EXPECT_EQ(count, 2) << "segment " << seg;
  }

  // Search returns each pk once despite the duplicates (proxy dedup).
  SearchRequest req;
  req.collection = "rep";
  req.query.assign(data.Row(42), data.Row(42) + 8);
  req.k = 10;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok());
  std::set<int64_t> unique(res.value().ids.begin(), res.value().ids.end());
  EXPECT_EQ(unique.size(), res.value().ids.size());
  EXPECT_EQ(res.value().ids[0], 42);

  // Crash one node: everything is still served by the surviving replicas.
  auto nodes = db.query_coord()->Nodes();
  ASSERT_TRUE(db.KillQueryNode(nodes[0]->id()).ok());
  res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().ids[0], 42);
  EXPECT_EQ(res.value().ids.size(), 10u);
}

TEST(Handoff, SearchPlannedBeforeHandoffKeepsTheSegment) {
  // The proxy takes its routing plan before the node reads its segment
  // set. A growing->sealed handoff that lands in between leaves the
  // segment in no route's sealed filter (placement did not list it at plan
  // time) while the node has already replaced its growing twin with the
  // sealed copy. The node must still scan that copy, or the segment's rows
  // vanish from a search that reports coverage 1.
  ManuConfig config;
  config.num_shards = 1;
  config.num_query_nodes = 1;
  config.segment_seal_rows = 100000;
  config.segment_idle_seal_ms = 600000;
  config.time_tick_interval_ms = 10;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("handoff", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 200;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  // The first segment is sealed, so the plan's sealed filter is non-empty;
  // the second is still growing when the plan is taken.
  ASSERT_TRUE(
      db.Insert("handoff", VecBatch(meta.value(), data, 0, 100)).ok());
  ASSERT_TRUE(db.FlushAndWait("handoff").ok());
  ASSERT_TRUE(
      db.Insert("handoff", VecBatch(meta.value(), data, 100, 200)).ok());

  // Hold the node between plan and scan until the handoff is done.
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  ScopedFailPoint hold("query_node.search_segment",
                       FailPointPolicy::Panic([&] {
                         std::unique_lock lk(mu);
                         held = true;
                         cv.notify_all();
                         cv.wait(lk, [&] { return released; });
                         return Status::OK();
                       }));
  SearchRequest req;
  req.collection = "handoff";
  req.query.assign(data.Row(0), data.Row(0) + 8);
  req.k = 200;
  req.consistency = ConsistencyLevel::kStrong;
  auto search = std::async(std::launch::async, [&] { return db.Search(req); });
  bool was_held = false;
  {
    std::unique_lock lk(mu);
    was_held = cv.wait_for(lk, std::chrono::seconds(10), [&] { return held; });
  }
  const Status flushed = was_held ? db.FlushAndWait("handoff") : Status::OK();
  {
    std::lock_guard lk(mu);
    released = true;
  }
  cv.notify_all();
  auto res = search.get();

  ASSERT_TRUE(was_held) << "search never reached the node";
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().coverage, 1.0);
  EXPECT_EQ(res.value().ids.size(), 200u);
}

TEST(BatchSearchTest, MatchesIndividualSearches) {
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 100000;
  config.time_tick_interval_ms = 10;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("batch", 8));
  ASSERT_TRUE(meta.ok());
  SyntheticOptions opts;
  opts.num_rows = 500;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ASSERT_TRUE(db.Insert("batch", VecBatch(meta.value(), data, 0, 500)).ok());

  std::vector<SearchRequest> reqs;
  for (int64_t q = 0; q < 8; ++q) {
    SearchRequest req;
    req.collection = "batch";
    req.query.assign(data.Row(q * 50), data.Row(q * 50) + 8);
    req.k = 5;
    req.consistency = ConsistencyLevel::kStrong;
    reqs.push_back(std::move(req));
  }
  // One bad request in the middle must not poison the batch.
  SearchRequest bad;
  bad.collection = "no_such_collection";
  bad.query = {1, 2};
  reqs.insert(reqs.begin() + 3, bad);

  auto batched = db.BatchSearch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());
  EXPECT_FALSE(batched[3].ok());
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    auto single = db.Search(reqs[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched[i].value().ids, single.value().ids) << "query " << i;
  }
}

TEST(LogRetention, TruncationBoundsReplayButKeepsServing) {
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = 400;
  config.segment_idle_seal_ms = 200;
  config.num_query_nodes = 1;
  config.time_tick_interval_ms = 10;
  ManuInstance db(config);
  auto meta = db.CreateCollection(VecSchema("ret", 8));
  ASSERT_TRUE(meta.ok());
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.nlist = 8;
  ASSERT_TRUE(db.CreateIndex("ret", "v", params).ok());

  SyntheticOptions opts;
  opts.num_rows = 1200;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  // Let at least one time tick land in each shard channel first: the test
  // below asserts the truncation dropped something, and ticks below the
  // archived floor are the entries guaranteed to go (the insert entry
  // itself carries the batch's max LSN, which can sit above the floor).
  for (ShardId shard = 0; shard < 2; ++shard) {
    const std::string channel = ShardChannelName(meta.value().id, shard);
    while (db.mq()->EndOffset(channel) < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(db.Insert("ret", VecBatch(meta.value(), data, 0, 1200)).ok());
  ASSERT_TRUE(db.FlushAndWait("ret").ok());

  // Expire everything older than "now": sealed binlogs are unaffected.
  const Timestamp cutoff = db.tso()->Allocate();
  ASSERT_TRUE(db.TruncateLogBefore("ret", cutoff).ok());
  for (ShardId shard = 0; shard < 2; ++shard) {
    const std::string channel = ShardChannelName(meta.value().id, shard);
    EXPECT_GE(db.mq()->BeginOffset(channel), 1);
  }

  SearchRequest req;
  req.collection = "ret";
  req.query.assign(data.Row(7), data.Row(7) + 8);
  req.k = 5;
  req.consistency = ConsistencyLevel::kStrong;
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().ids[0], 7);

  // New writes after truncation still flow.
  SyntheticOptions more = opts;
  more.seed = 77;
  VectorDataset extra = MakeClusteredDataset(more);
  EntityBatch batch;
  for (int64_t i = 0; i < 100; ++i) batch.primary_keys.push_back(5000 + i);
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      meta.value().schema.FieldByName("v")->id, 8,
      std::vector<float>(extra.Row(0), extra.Row(0) + 100 * 8)));
  auto ts = db.Insert("ret", std::move(batch));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(db.WaitUntilVisible("ret", ts.value()).ok());
  req.query.assign(extra.Row(0), extra.Row(0) + 8);
  res = db.Search(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().ids[0], 5000);
}

TEST(MessageQueueRetention, FirstOffsetAtOrAfter) {
  MessageQueue mq;
  for (Timestamp ts : {10u, 20u, 30u, 40u}) {
    LogEntry e;
    e.type = LogEntryType::kTimeTick;
    e.timestamp = ts;
    mq.Publish("ch", std::move(e));
  }
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 5), 0);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 20), 1);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 21), 2);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 100), 4);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("missing", 1), 0);
}

}  // namespace
}  // namespace manu
