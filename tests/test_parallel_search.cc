// Intra-query parallel segment search (Section 6.4 / Fig. 8): determinism
// vs. the serial scan, nested-dispatch deadlock freedom, the stop_-mid-wait
// consistency-gate fix and the delete-tombstone buffer compaction. These
// drive QueryNode directly over published WAL entries so both the serial
// and the parallel node see byte-identical segment state.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "core/query_node.h"
#include "storage/binlog.h"
#include "storage/meta_store.h"
#include "storage/object_store.h"
#include "wal/mq.h"
#include "wal/tso.h"

namespace manu {
namespace {

constexpr CollectionId kColl = 7;
constexpr int32_t kDim = 8;

CollectionSchema TwoVectorSchema() {
  CollectionSchema schema("par");
  FieldSchema a;
  a.name = "a";
  a.type = DataType::kFloatVector;
  a.dim = kDim;
  EXPECT_TRUE(schema.AddField(a).ok());
  FieldSchema b;
  b.name = "b";
  b.type = DataType::kFloatVector;
  b.dim = kDim;
  EXPECT_TRUE(schema.AddField(b).ok());
  return schema;
}

/// Deterministic pseudo-random but fully reproducible row vectors.
std::vector<float> RowVector(int64_t pk, int32_t salt) {
  std::vector<float> v(kDim);
  for (int32_t d = 0; d < kDim; ++d) {
    v[d] = std::sin(static_cast<float>(pk * 31 + d * 7 + salt));
  }
  return v;
}

/// Publishes `num_segments` growing segments of `rows_per_segment` rows
/// each onto shard 0's channel and returns the max LSN published.
Timestamp PublishSegments(MessageQueue* mq, Tso* tso,
                          const CollectionSchema& schema,
                          int64_t num_segments, int64_t rows_per_segment) {
  const FieldId fa = schema.FieldByName("a")->id;
  const FieldId fb = schema.FieldByName("b")->id;
  Timestamp last = 0;
  for (int64_t seg = 0; seg < num_segments; ++seg) {
    LogEntry entry;
    entry.type = LogEntryType::kInsert;
    entry.collection = kColl;
    entry.shard = 0;
    entry.segment = 100 + seg;
    std::vector<float> va, vb;
    for (int64_t r = 0; r < rows_per_segment; ++r) {
      const int64_t pk = seg * rows_per_segment + r;
      entry.batch.primary_keys.push_back(pk);
      entry.batch.timestamps.push_back(tso->Allocate());
      auto ra = RowVector(pk, 0);
      auto rb = RowVector(pk, 1000);
      va.insert(va.end(), ra.begin(), ra.end());
      vb.insert(vb.end(), rb.begin(), rb.end());
    }
    entry.batch.columns.push_back(
        FieldColumn::MakeFloatVector(fa, kDim, std::move(va)));
    entry.batch.columns.push_back(
        FieldColumn::MakeFloatVector(fb, kDim, std::move(vb)));
    entry.timestamp = entry.batch.timestamps.back();
    last = entry.timestamp;
    EXPECT_GE(mq->Publish(ShardChannelName(kColl, 0), std::move(entry)), 0);
  }
  return last;
}

/// Builds a batch of `pks` rows with fresh TSO timestamps (the same layout
/// PublishSegments uses), for tests that need the raw rows again to write a
/// binlog for LoadSealedSegment.
EntityBatch MakeBatch(const CollectionSchema& schema, Tso* tso,
                      const std::vector<int64_t>& pks) {
  const FieldId fa = schema.FieldByName("a")->id;
  const FieldId fb = schema.FieldByName("b")->id;
  EntityBatch batch;
  std::vector<float> va, vb;
  for (int64_t pk : pks) {
    batch.primary_keys.push_back(pk);
    batch.timestamps.push_back(tso->Allocate());
    auto ra = RowVector(pk, 0);
    auto rb = RowVector(pk, 1000);
    va.insert(va.end(), ra.begin(), ra.end());
    vb.insert(vb.end(), rb.begin(), rb.end());
  }
  batch.columns.push_back(
      FieldColumn::MakeFloatVector(fa, kDim, std::move(va)));
  batch.columns.push_back(
      FieldColumn::MakeFloatVector(fb, kDim, std::move(vb)));
  return batch;
}

Timestamp PublishInsert(MessageQueue* mq, SegmentId segment,
                        const EntityBatch& batch) {
  LogEntry entry;
  entry.type = LogEntryType::kInsert;
  entry.collection = kColl;
  entry.shard = 0;
  entry.segment = segment;
  entry.batch = batch;
  entry.timestamp = batch.timestamps.back();
  EXPECT_GE(mq->Publish(ShardChannelName(kColl, 0), std::move(entry)), 0);
  return batch.timestamps.back();
}

struct NodeFixture {
  explicit NodeFixture(const ManuConfig& config, NodeId id = 1)
      : ctx{config, &meta, &store, &mq, &tso, nullptr},
        schema(std::make_shared<CollectionSchema>(TwoVectorSchema())),
        node(id, ctx) {
    node.AddChannel(kColl, /*shard=*/0, schema, /*primary=*/true);
    node.Start();
  }
  ~NodeFixture() { node.Stop(); }

  MetaStore meta;
  MemoryObjectStore store;
  MessageQueue mq;
  Tso tso;
  CoreContext ctx;
  std::shared_ptr<CollectionSchema> schema;
  QueryNode node;
};

NodeSearchRequest SingleReq(const CollectionSchema& schema,
                            const std::vector<float>& query, size_t k) {
  NodeSearchRequest req;
  req.collection = kColl;
  req.targets.push_back({schema.FieldByName("a")->id, query.data(), 1.0f});
  req.params.k = k;
  req.staleness_ms = -1;  // Eventual: segment state is already settled.
  return req;
}

TEST(ParallelSearch, MatchesSerialTopKExactly) {
  ManuConfig serial_cfg;
  serial_cfg.parallel_search = false;
  ManuConfig parallel_cfg;
  parallel_cfg.parallel_search = true;
  parallel_cfg.query_threads = 4;

  NodeFixture serial(serial_cfg, 1);
  NodeFixture parallel(parallel_cfg, 2);

  const Timestamp last_serial =
      PublishSegments(&serial.mq, &serial.tso, *serial.schema, 12, 40);
  const Timestamp last_parallel =
      PublishSegments(&parallel.mq, &parallel.tso, *parallel.schema, 12, 40);
  ASSERT_TRUE(serial.node.WaitServiceTs(kColl, last_serial, 5000));
  ASSERT_TRUE(parallel.node.WaitServiceTs(kColl, last_parallel, 5000));

  for (int64_t probe = 0; probe < 8; ++probe) {
    const auto query = RowVector(probe * 53 % 480, 0);
    auto rs = serial.node.Search(SingleReq(*serial.schema, query, 10));
    auto rp = parallel.node.Search(SingleReq(*parallel.schema, query, 10));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_EQ(rs.value().size(), rp.value().size());
    for (size_t i = 0; i < rs.value().size(); ++i) {
      EXPECT_EQ(rs.value()[i].pk, rp.value()[i].pk) << "probe " << probe;
      // Byte-identical scores: the parallel path runs the same kernel per
      // segment and the reduce is order-independent.
      EXPECT_EQ(rs.value()[i].score, rp.value()[i].score);
    }
  }
}

TEST(ParallelSearch, MultiVectorFusionMatchesSerial) {
  ManuConfig serial_cfg;
  serial_cfg.parallel_search = false;
  ManuConfig parallel_cfg;
  parallel_cfg.query_threads = 4;

  NodeFixture serial(serial_cfg, 1);
  NodeFixture parallel(parallel_cfg, 2);
  const Timestamp ls =
      PublishSegments(&serial.mq, &serial.tso, *serial.schema, 9, 30);
  const Timestamp lp =
      PublishSegments(&parallel.mq, &parallel.tso, *parallel.schema, 9, 30);
  ASSERT_TRUE(serial.node.WaitServiceTs(kColl, ls, 5000));
  ASSERT_TRUE(parallel.node.WaitServiceTs(kColl, lp, 5000));

  const auto qa = RowVector(17, 0);
  const auto qb = RowVector(17, 1000);
  auto make_req = [&](const CollectionSchema& schema) {
    NodeSearchRequest req;
    req.collection = kColl;
    req.targets.push_back({schema.FieldByName("a")->id, qa.data(), 0.7f});
    req.targets.push_back({schema.FieldByName("b")->id, qb.data(), 0.3f});
    req.params.k = 12;
    req.staleness_ms = -1;
    return req;
  };
  auto rs = serial.node.Search(make_req(*serial.schema));
  auto rp = parallel.node.Search(make_req(*parallel.schema));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_EQ(rs.value().size(), rp.value().size());
  for (size_t i = 0; i < rs.value().size(); ++i) {
    EXPECT_EQ(rs.value()[i].pk, rp.value()[i].pk);
    EXPECT_EQ(rs.value()[i].score, rp.value()[i].score);
  }
}

TEST(ParallelSearch, NoDeadlockWithSingleExecutorThread) {
  // The nested dispatch (Search task -> per-segment fan-out on the same
  // pool) must complete when the pool has exactly one thread: the searching
  // task itself claims and runs every chunk.
  ManuConfig config;
  config.query_threads = 1;
  NodeFixture fx(config);
  const Timestamp last =
      PublishSegments(&fx.mq, &fx.tso, *fx.schema, 10, 20);
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, last, 5000));

  const auto query = RowVector(3, 0);
  auto res = fx.node.Search(SingleReq(*fx.schema, query, 5));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().size(), 5u);
}

TEST(ParallelSearch, BatchUsesPoolAndStaysCorrect) {
  ManuConfig config;
  config.query_threads = 4;
  NodeFixture fx(config);
  const Timestamp last =
      PublishSegments(&fx.mq, &fx.tso, *fx.schema, 8, 25);
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, last, 5000));

  // 16 requests in flight at once on a 4-thread executor, the way the
  // proxy dispatches a batch: each SearchAsync is its own executor task,
  // and each task owns its query vector (the keepalive) so the caller's
  // copies can go before the results are read.
  std::vector<std::future<Result<std::vector<SegmentHit>>>> futures;
  for (int64_t i = 0; i < 16; ++i) {
    auto query =
        std::make_shared<const std::vector<float>>(RowVector(i * 11 % 200, 0));
    futures.push_back(
        fx.node.SearchAsync(SingleReq(*fx.schema, *query, 3), query));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto res = futures[i].get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    // The best hit for a query equal to a stored row is that row.
    EXPECT_EQ(res.value()[0].pk, static_cast<int64_t>(i) * 11 % 200);
  }
}

TEST(ParallelSearch, SimulatedServiceTimeBillsActualChunkSizes) {
  // One segment per task: with 4 executor threads, 2 segments clear in a
  // single wave, so the modeled service target bills ceil(2 / 4) = 1
  // segment (20 ms here), not the 2 a serial scan would (40 ms). The upper
  // bound leaves 15 ms of scheduling slack below the two-wave bill.
  ManuConfig config;
  config.query_threads = 4;
  config.sim_segment_search_us = 20000;
  NodeFixture fx(config);
  const Timestamp last = PublishSegments(&fx.mq, &fx.tso, *fx.schema, 2, 20);
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, last, 5000));

  const auto query = RowVector(3, 0);
  auto res = fx.node.Search(SingleReq(*fx.schema, query, 5));  // Warm-up.
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto t0 = std::chrono::steady_clock::now();
  res = fx.node.Search(SingleReq(*fx.schema, query, 5));
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GE(elapsed_us, config.sim_segment_search_us);
  EXPECT_LT(elapsed_us, 2 * config.sim_segment_search_us - 5000);
}

TEST(ConsistencyGate, StopMidWaitReturnsUnavailable) {
  // No time-ticks flow, so a strong-consistency search parks on the gate;
  // stopping the node must surface Unavailable, not bless the stale
  // snapshot (the wait predicate is also satisfied by stop_).
  ManuConfig config;
  config.max_consistency_wait_ms = 10000;
  NodeFixture fx(config);
  const Timestamp last = PublishSegments(&fx.mq, &fx.tso, *fx.schema, 2, 10);
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, last, 5000));

  const auto query = RowVector(1, 0);
  NodeSearchRequest req = SingleReq(*fx.schema, query, 3);
  // Allocate the read point a full physical tick after the last consumed
  // entry: if both land in the same millisecond the gate is already
  // satisfied and the search never parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  req.read_ts = fx.tso.Allocate();
  req.staleness_ms = 0;  // Strong: needs a fresher tick than will ever come.

  Result<std::vector<SegmentHit>> res;  // Default = Internal error.
  std::thread searcher([&] { res = fx.node.Search(req); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fx.node.Stop();
  searcher.join();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsUnavailable()) << res.status().ToString();
}

Timestamp PublishDelete(MessageQueue* mq, Tso* tso,
                        std::vector<int64_t> pks) {
  LogEntry entry;
  entry.type = LogEntryType::kDelete;
  entry.collection = kColl;
  entry.shard = 0;
  entry.delete_pks = std::move(pks);
  entry.timestamp = tso->Allocate();
  const Timestamp ts = entry.timestamp;
  EXPECT_GE(mq->Publish(ShardChannelName(kColl, 0), std::move(entry)), 0);
  return ts;
}

Timestamp PublishTick(MessageQueue* mq, Tso* tso) {
  LogEntry entry;
  entry.type = LogEntryType::kTimeTick;
  entry.collection = kColl;
  entry.shard = 0;
  entry.timestamp = tso->Allocate();
  const Timestamp ts = entry.timestamp;
  EXPECT_GE(mq->Publish(ShardChannelName(kColl, 0), std::move(entry)), 0);
  return ts;
}

TEST(DeleteBuffer, DedupesPerPkAndCompactsBelowServiceTs) {
  ManuConfig config;
  config.delete_buffer_compact_min = 4;
  NodeFixture fx(config);

  // One growing segment with pks 0..9.
  const Timestamp seeded =
      PublishSegments(&fx.mq, &fx.tso, *fx.schema, 1, 10);
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, seeded, 5000));
  ASSERT_EQ(fx.node.NumGrowingRows(kColl), 10);

  auto publish_delete = [&](std::vector<int64_t> pks) {
    LogEntry entry;
    entry.type = LogEntryType::kDelete;
    entry.collection = kColl;
    entry.shard = 0;
    entry.delete_pks = std::move(pks);
    entry.timestamp = fx.tso.Allocate();
    const Timestamp ts = entry.timestamp;
    EXPECT_GE(fx.mq.Publish(ShardChannelName(kColl, 0), std::move(entry)),
              0);
    return ts;
  };
  auto publish_tick = [&] {
    LogEntry entry;
    entry.type = LogEntryType::kTimeTick;
    entry.collection = kColl;
    entry.shard = 0;
    entry.timestamp = fx.tso.Allocate();
    const Timestamp ts = entry.timestamp;
    EXPECT_GE(fx.mq.Publish(ShardChannelName(kColl, 0), std::move(entry)),
              0);
    return ts;
  };

  // Duplicate deletes of the same pk collapse to one buffered tombstone.
  publish_delete({1});
  publish_delete({1, 2});
  Timestamp ts = publish_delete({1});
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, ts, 5000));
  EXPECT_EQ(fx.node.DeletedPks(kColl).size(), 2u);  // pks {1, 2}.

  // Advance the consumed-tick floor past those deletes, then trip the
  // compaction threshold (4 buffered pks): everything below the floor is
  // compacted away, only the in-flight suffix survives.
  ts = publish_tick();
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, ts, 5000));
  publish_delete({3});
  ts = publish_delete({4, 5});  // Buffer reaches 5 >= 4: compaction runs.
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, ts, 5000));

  auto pks = fx.node.DeletedPks(kColl);
  std::sort(pks.begin(), pks.end());
  // {1, 2} were below the tick floor; {3} landed after it (kept), and the
  // {4, 5} entry that tripped the scan is above the floor as well.
  EXPECT_EQ(pks, (std::vector<int64_t>{3, 4, 5}));

  // The deletes themselves stay in force.
  const auto query = RowVector(1, 0);
  auto res = fx.node.Search(SingleReq(*fx.schema, query, 10));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 5u);  // 10 rows minus 5 deleted pks.
  for (const auto& hit : res.value()) {
    EXPECT_NE(hit.pk, 1);
    EXPECT_NE(hit.pk, 2);
  }
}

TEST(DeleteBuffer, CompactedTombstonesSurviveSegmentHandoff) {
  // The resurrection regression: a segment handed to a node *after* the
  // node's delete buffer was compacted (kill / remove / rebalance paths —
  // the node's channel subscriptions are already past those deletes and
  // never re-seek, and the sealed binlog is inserts-only) must still hide
  // rows deleted below the compaction floor. LoadSealedSegment backfills
  // those tombstones from the retained WAL.
  ManuConfig config;
  config.delete_buffer_compact_min = 2;
  NodeFixture fx(config);

  std::vector<int64_t> pks;
  for (int64_t pk = 0; pk < 10; ++pk) pks.push_back(pk);
  const EntityBatch rows = MakeBatch(*fx.schema, &fx.tso, pks);
  PublishInsert(&fx.mq, /*segment=*/100, rows);

  PublishDelete(&fx.mq, &fx.tso, {1});
  PublishDelete(&fx.mq, &fx.tso, {2});  // Trips the first compaction scan.
  Timestamp ts = PublishTick(&fx.mq, &fx.tso);  // Floor passes both deletes.
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, ts, 5000));
  PublishDelete(&fx.mq, &fx.tso, {3});
  ts = PublishDelete(&fx.mq, &fx.tso, {4});  // Scan prunes {1, 2}.
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, ts, 5000));

  // The buffer really did lose the sub-floor tombstones.
  auto buffered = fx.node.DeletedPks(kColl);
  std::sort(buffered.begin(), buffered.end());
  ASSERT_EQ(buffered, (std::vector<int64_t>{3, 4}));

  // Hand the sealed twin to the node: inserts only, as a data node wrote it.
  const std::string path = "binlog/c7/seg100";
  ASSERT_TRUE(binlog::WriteSegment(&fx.store, path, rows).ok());
  SegmentMeta meta;
  meta.id = 100;
  meta.collection = kColl;
  meta.shard = 0;
  meta.state = SegmentState::kSealed;
  meta.num_rows = rows.NumRows();
  meta.binlog_path = path;
  ASSERT_TRUE(fx.node.LoadSealedSegment(meta, fx.schema).ok());

  const auto query = RowVector(1, 0);
  auto res = fx.node.Search(SingleReq(*fx.schema, query, 10));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().size(), 6u);  // 10 rows minus 4 deleted pks.
  for (const auto& hit : res.value()) {
    EXPECT_TRUE(hit.pk != 1 && hit.pk != 2) << "resurrected pk " << hit.pk;
    EXPECT_TRUE(hit.pk != 3 && hit.pk != 4) << "buffered delete lost";
  }
}

TEST(DeleteBuffer, IntermediateTombstonesReplayedToLoadedSegments) {
  // delete(pk, t1) -> reinsert -> delete(pk, t2): a segment loaded after t2
  // must serve an MVCC read at read_ts in [t1, t2) from the *post-t1* state
  // (pk hidden until the reinsert, visible after it) — collapsing the
  // buffer to the max delete LSN per pk would leak the pre-t1 version.
  ManuConfig config;  // Default compact_min: no compaction interferes.
  NodeFixture fx(config);

  std::vector<int64_t> pks;
  for (int64_t pk = 0; pk < 5; ++pk) pks.push_back(pk);
  EntityBatch rows = MakeBatch(*fx.schema, &fx.tso, pks);
  PublishInsert(&fx.mq, /*segment=*/100, rows);

  PublishDelete(&fx.mq, &fx.tso, {2});
  const Timestamp between = fx.tso.Allocate();
  const EntityBatch reinsert = MakeBatch(*fx.schema, &fx.tso, {2});
  const Timestamp reinsert_ts = PublishInsert(&fx.mq, /*segment=*/100,
                                              reinsert);
  const Timestamp t2 = PublishDelete(&fx.mq, &fx.tso, {2});
  ASSERT_TRUE(fx.node.WaitServiceTs(kColl, t2, 5000));

  // Sealed twin holds both versions of pk 2 in LSN order.
  ASSERT_TRUE(rows.Append(reinsert).ok());
  const std::string path = "binlog/c7/seg100";
  ASSERT_TRUE(binlog::WriteSegment(&fx.store, path, rows).ok());
  SegmentMeta meta;
  meta.id = 100;
  meta.collection = kColl;
  meta.shard = 0;
  meta.state = SegmentState::kSealed;
  meta.num_rows = rows.NumRows();
  meta.binlog_path = path;
  ASSERT_TRUE(fx.node.LoadSealedSegment(meta, fx.schema).ok());

  const auto query = RowVector(2, 0);
  auto count_pk2 = [&](Timestamp read_ts) {
    NodeSearchRequest req = SingleReq(*fx.schema, query, 5);
    req.read_ts = read_ts;
    auto res = fx.node.Search(req);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    int64_t n = 0;
    for (const auto& hit : res.value()) n += hit.pk == 2 ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count_pk2(between), 0);      // First delete hides version 1.
  EXPECT_EQ(count_pk2(reinsert_ts), 1);  // Reinserted version visible.
  EXPECT_EQ(count_pk2(t2), 0);           // Second delete hides it again.
  EXPECT_EQ(count_pk2(kMaxTimestamp), 0);
}

}  // namespace
}  // namespace manu
