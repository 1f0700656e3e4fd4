#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "wal/message.h"
#include "wal/mq.h"
#include "wal/time_tick.h"
#include "wal/tso.h"

namespace manu {
namespace {

// ---------------------------------------------------------------------------
// LogEntry
// ---------------------------------------------------------------------------

TEST(LogEntry, SerializeRoundTrip) {
  LogEntry entry;
  entry.type = LogEntryType::kInsert;
  entry.timestamp = 12345;
  entry.collection = 7;
  entry.shard = 2;
  entry.segment = 99;
  entry.batch.primary_keys = {1, 2};
  entry.batch.timestamps = {10, 11};
  entry.batch.columns.push_back(
      FieldColumn::MakeFloatVector(100, 2, {1, 2, 3, 4}));
  entry.delete_pks = {5};
  entry.payload = "aux";

  auto back = LogEntry::Deserialize(entry.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, LogEntryType::kInsert);
  EXPECT_EQ(back.value().timestamp, 12345u);
  EXPECT_EQ(back.value().collection, 7);
  EXPECT_EQ(back.value().shard, 2);
  EXPECT_EQ(back.value().segment, 99);
  EXPECT_EQ(back.value().batch.primary_keys, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(back.value().delete_pks, (std::vector<int64_t>{5}));
  EXPECT_EQ(back.value().payload, "aux");
}

TEST(LogEntry, DeserializeGarbageFails) {
  EXPECT_FALSE(LogEntry::Deserialize("xx").ok());
}

TEST(LogEntry, GroupSerializeRoundTrip) {
  std::vector<std::shared_ptr<const LogEntry>> group;
  for (int i = 0; i < 3; ++i) {
    LogEntry e;
    e.type = i == 1 ? LogEntryType::kDelete : LogEntryType::kInsert;
    e.timestamp = 100 + i;
    e.collection = 7;
    e.shard = i;
    if (i == 1) e.delete_pks = {42, 43};
    e.payload = "p" + std::to_string(i);
    group.push_back(std::make_shared<const LogEntry>(std::move(e)));
  }
  const std::string frame = SerializeGroup(group);
  auto back = DeserializeGroup(frame);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(back.value()[i].timestamp, group[i]->timestamp);
    EXPECT_EQ(back.value()[i].type, group[i]->type);
    EXPECT_EQ(back.value()[i].payload, group[i]->payload);
  }
  EXPECT_EQ(back.value()[1].delete_pks, (std::vector<int64_t>{42, 43}));
  EXPECT_FALSE(DeserializeGroup(frame.substr(0, frame.size() - 3)).ok());
  EXPECT_FALSE(DeserializeGroup("").ok());  // Truncated count header.
}

TEST(ChannelNames, AreDistinctPerShard) {
  EXPECT_NE(ShardChannelName(1, 0), ShardChannelName(1, 1));
  EXPECT_NE(ShardChannelName(1, 0), ShardChannelName(2, 0));
  EXPECT_NE(DdlChannelName(), CoordChannelName());
}

// ---------------------------------------------------------------------------
// Tso
// ---------------------------------------------------------------------------

TEST(Tso, StrictlyMonotonic) {
  Tso tso;
  Timestamp last = 0;
  for (int i = 0; i < 10000; ++i) {
    const Timestamp ts = tso.Allocate();
    EXPECT_GT(ts, last);
    last = ts;
  }
}

TEST(Tso, BlockAllocationIsContiguousAndOrdered) {
  Tso tso;
  const Timestamp first = tso.AllocateBlock(100);
  const Timestamp next = tso.Allocate();
  EXPECT_GE(next, first + 100);
  EXPECT_EQ(tso.Last(), next);
}

TEST(Tso, PhysicalTracksWallClock) {
  Tso tso;
  const Timestamp ts = tso.Allocate();
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  EXPECT_NEAR(static_cast<double>(PhysicalMs(ts)), static_cast<double>(now),
              1000.0);
}

TEST(Tso, ConcurrentAllocationsUnique) {
  Tso tso;
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::vector<Timestamp>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        results[t].push_back(tso.Allocate());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Timestamp> all;
  for (const auto& r : results) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
}

// ---------------------------------------------------------------------------
// MessageQueue
// ---------------------------------------------------------------------------

LogEntry Tick(Timestamp ts) {
  LogEntry e;
  e.type = LogEntryType::kTimeTick;
  e.timestamp = ts;
  return e;
}

TEST(MessageQueue, PublishSubscribeOrdered) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  EXPECT_EQ(mq.Publish("ch", Tick(1)), 0);
  EXPECT_EQ(mq.Publish("ch", Tick(2)), 1);
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->timestamp, 1u);
  EXPECT_EQ(entries[1]->timestamp, 2u);
  EXPECT_EQ(sub->position(), 2);
}

TEST(MessageQueue, LatestSubscriptionSkipsHistory) {
  MessageQueue mq;
  mq.Publish("ch", Tick(1));
  auto sub = mq.Subscribe("ch", SubscribePosition::kLatest);
  EXPECT_TRUE(sub->TryPoll(10).empty());
  mq.Publish("ch", Tick(2));
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->timestamp, 2u);
}

TEST(MessageQueue, IndependentSubscriberPositions) {
  MessageQueue mq;
  auto a = mq.Subscribe("ch", SubscribePosition::kEarliest);
  auto b = mq.Subscribe("ch", SubscribePosition::kEarliest);
  mq.Publish("ch", Tick(1));
  EXPECT_EQ(a->TryPoll(10).size(), 1u);
  EXPECT_EQ(b->TryPoll(10).size(), 1u);  // b unaffected by a's progress.
}

TEST(MessageQueue, SeekReplays) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  for (int i = 0; i < 5; ++i) mq.Publish("ch", Tick(i));
  EXPECT_EQ(sub->TryPoll(10).size(), 5u);
  sub->Seek(2);
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->timestamp, 2u);
}

TEST(MessageQueue, TruncationSnapsOldReadersForward) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  for (int i = 0; i < 10; ++i) mq.Publish("ch", Tick(i));
  mq.TruncateBefore("ch", 6);
  EXPECT_EQ(mq.BeginOffset("ch"), 6);
  EXPECT_EQ(mq.EndOffset("ch"), 10);
  auto entries = sub->TryPoll(100);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0]->timestamp, 6u);
}

TEST(MessageQueue, BlockingPollWakesOnPublish) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    mq.Publish("ch", Tick(42));
  });
  auto entries = sub->Poll(1, std::chrono::milliseconds(2000));
  publisher.join();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->timestamp, 42u);
}

TEST(MessageQueue, ListChannels) {
  MessageQueue mq;
  mq.Publish("wal/c1/s0", Tick(1));
  mq.Publish("wal/c1/s1", Tick(1));
  mq.Publish("wal/ddl", Tick(1));
  EXPECT_EQ(mq.ListChannels("wal/c1/").size(), 2u);
  EXPECT_EQ(mq.ListChannels("wal/").size(), 3u);
}

TEST(MessageQueue, ManyProducersOneConsumer) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  constexpr int kProducers = 4, kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) mq.Publish("ch", Tick(1));
    });
  }
  for (auto& t : producers) t.join();
  size_t total = 0;
  while (true) {
    auto entries = sub->TryPoll(256);
    if (entries.empty()) break;
    total += entries.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers * kPerProducer));
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

WalOptions GroupedOptions(int64_t linger_us = 0, int64_t sim_us = 0) {
  WalOptions opt;
  opt.group_max_entries = 256;
  opt.flush_linger_us = linger_us;
  opt.sim_flush_latency_us = sim_us;
  return opt;
}

TEST(MessageQueue, GroupCommitPreservesOrderAndAcks) {
  MessageQueue mq(GroupedOptions(/*linger_us=*/0, /*sim_us=*/500));
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  const int64_t groups_before =
      MetricsRegistry::Global().CounterValue("wal.group_commits");
  constexpr int kProducers = 8, kPerProducer = 50;
  std::vector<std::vector<int64_t>> acked(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t off = mq.Publish("ch", Tick(1 + p * kPerProducer + i));
        ASSERT_GE(off, 0);
        acked[p].push_back(off);
      }
    });
  }
  for (auto& t : producers) t.join();
  // Every publish acked exactly one distinct offset, densely covering
  // [0, end): the whole-group ack never skips or double-assigns.
  std::vector<int64_t> all;
  for (const auto& a : acked) {
    // Each producer's acks are strictly increasing (program order holds).
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    all.insert(all.end(), a.begin(), a.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int64_t>(i));
  }
  EXPECT_EQ(mq.EndOffset("ch"), kProducers * kPerProducer);
  // The consumer sees every entry, in offset order.
  size_t total = 0;
  while (true) {
    auto entries = sub->TryPoll(4096);
    if (entries.empty()) break;
    total += entries.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers * kPerProducer));
  // With 8 publishers serialized behind a 500 us simulated flush, groups
  // must actually have batched: far fewer flushes than entries.
  const int64_t groups =
      MetricsRegistry::Global().CounterValue("wal.group_commits") -
      groups_before;
  EXPECT_GT(groups, 0);
  EXPECT_LT(groups, kProducers * kPerProducer);
}

TEST(MessageQueue, GroupCommitLingerReturnsLonePublishPromptly) {
  // A lingering leader must not hold a lone publisher for the full linger
  // budget forever — it flushes once the linger elapses (and the linger is
  // bounded), so a single low-rate publisher still makes progress.
  MessageQueue mq(GroupedOptions(/*linger_us=*/20000));
  const int64_t t0 = NowMicros();
  EXPECT_EQ(mq.Publish("ch", Tick(1)), 0);
  EXPECT_LT(NowMicros() - t0, 5000000);
  EXPECT_EQ(mq.EndOffset("ch"), 1);
}

TEST(MessageQueue, FenceRefusedInsideCommitGroup) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  bool allow = true;
  MessageQueue::PublishFence fence = [&allow] {
    return allow ? Status::OK() : Status::Aborted("zombie epoch");
  };
  Status fs;
  EXPECT_EQ(mq.Publish("ch", Tick(1), fence, &fs), 0);
  EXPECT_TRUE(fs.ok());
  allow = false;
  EXPECT_EQ(mq.Publish("ch", Tick(2), fence, &fs), -1);
  EXPECT_EQ(fs.code(), StatusCode::kAborted);
  allow = true;
  EXPECT_EQ(mq.Publish("ch", Tick(3), fence, &fs), 1);
  // The fenced entry was never installed: subscribers see 1 then 3.
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->timestamp, 1u);
  EXPECT_EQ(entries[1]->timestamp, 3u);
}

TEST(MessageQueue, FenceRefusalExcludedFromMixedGroup) {
  // Two publishers land in the same lingered commit group; the fenced one
  // is excluded at the commit decision while its groupmate commits.
  MessageQueue mq(GroupedOptions(/*linger_us=*/30000));
  MessageQueue::PublishFence refuse = [] {
    return Status::Aborted("superseded");
  };
  Status fenced_status;
  int64_t fenced_off = 0, ok_off = -2;
  std::thread fenced_pub([&] {
    fenced_off = mq.Publish("ch", Tick(10), refuse, &fenced_status);
  });
  std::thread ok_pub([&] { ok_off = mq.Publish("ch", Tick(11)); });
  fenced_pub.join();
  ok_pub.join();
  EXPECT_EQ(fenced_off, -1);
  EXPECT_EQ(fenced_status.code(), StatusCode::kAborted);
  EXPECT_EQ(ok_off, 0);
  EXPECT_EQ(mq.EndOffset("ch"), 1);
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->timestamp, 11u);
}

TEST(MessageQueue, PublishRacingShutdownNeverAcksUninstalledEntry) {
  // The TOCTOU fix: a publish that passes the fast shutdown check but loses
  // the race to Shutdown() must be refused at the commit decision — the set
  // of acked offsets and the set of installed offsets must match exactly.
  for (int round = 0; round < 20; ++round) {
    MessageQueue mq;
    constexpr int kProducers = 4;
    std::vector<std::vector<int64_t>> acked(kProducers);
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 200; ++i) {
          const int64_t off = mq.Publish("ch", Tick(1));
          if (off < 0) break;  // Shutdown reached this publisher.
          acked[p].push_back(off);
        }
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    mq.Shutdown();
    for (auto& t : producers) t.join();
    // EndOffset is read after Shutdown() returned and all publishers
    // joined: nothing installs past it, and every ack below it.
    const int64_t end = mq.EndOffset("ch");
    std::vector<int64_t> all;
    for (const auto& a : acked) all.insert(all.end(), a.begin(), a.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), static_cast<size_t>(end))
        << "acked set != installed set in round " << round;
    for (size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(all[i], static_cast<int64_t>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Inversion-aware replay lookup
// ---------------------------------------------------------------------------

TEST(MessageQueue, FirstOffsetAtOrAfterSpansMultiEntryInversions) {
  // Forced multi-entry inversion: two stale-LSN entries land after a newer
  // one (concurrent publishers draining in arbitrary order). The walk-back
  // must cover the full inversion window, not just one adjacent swap.
  MessageQueue mq;
  for (Timestamp ts : {10, 11, 2, 3, 12}) mq.Publish("ch", Tick(ts));
  // Binary search on the near-sorted LSNs lands past offset 1 (LSN 11);
  // the adjacent-only repair of the old broker returned 4 here, silently
  // skipping a replay-eligible entry.
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 11), 1);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 12), 4);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 1), 0);
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", 13), 5);  // Past the end.

  // A wide inversion (bound 97): the first entry is the only one >= 50 and
  // sits three positions before where the binary search lands.
  MessageQueue mq2;
  for (Timestamp ts : {100, 3, 4, 101}) mq2.Publish("ch", Tick(ts));
  EXPECT_EQ(mq2.FirstOffsetAtOrAfter("ch", 50), 0);
  EXPECT_EQ(mq2.FirstOffsetAtOrAfter("ch", 101), 3);
}

TEST(MessageQueue, StampsUnstampedEntriesAtStaging) {
  // Over a Tso, an unstamped insert gets one LSN per row and the ack
  // reports the last; a hand-stamped entry keeps its timestamp.
  Tso tso;
  MessageQueue mq(&tso);
  EXPECT_EQ(mq.CommittedLsn("ch"), 0u);
  LogEntry insert;
  insert.type = LogEntryType::kInsert;
  insert.batch.primary_keys = {1, 2, 3};
  Timestamp lsn = 0;
  ASSERT_EQ(mq.Publish("ch", std::move(insert), {}, nullptr, &lsn), 0);
  auto entries = mq.Subscribe("ch", SubscribePosition::kEarliest)->TryPoll(10);
  ASSERT_EQ(entries.size(), 1u);
  const auto& rows = entries[0]->batch.timestamps;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], rows[0] + 1);
  EXPECT_EQ(rows[2], rows[0] + 2);
  EXPECT_EQ(entries[0]->timestamp, rows[2]);
  EXPECT_EQ(lsn, rows[2]);
  EXPECT_EQ(mq.CommittedLsn("ch"), rows[2]);

  ASSERT_EQ(mq.Publish("ch", Tick(5), {}, nullptr, &lsn), 1);
  EXPECT_EQ(lsn, 5u);
  EXPECT_EQ(mq.CommittedLsn("ch"), rows[2]);  // The max, not the tail.
  ASSERT_EQ(mq.Publish("ch", LogEntry{}, {}, nullptr, &lsn), 2);
  EXPECT_GT(lsn, rows[2]);
  EXPECT_EQ(mq.CommittedLsn("ch"), lsn);
}

TEST(MessageQueue, ConcurrentStampedPublishesCommitInLsnOrder) {
  // Stamping under the channel mutex makes commit order LSN order however
  // publishers interleave, so the inversion bound stays zero.
  Tso tso;
  MessageQueue mq(&tso);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) mq.Publish("ch", LogEntry{});
    });
  }
  for (auto& t : writers) t.join();
  auto entries = mq.Subscribe("ch", SubscribePosition::kEarliest)->TryPoll(1000);
  ASSERT_EQ(entries.size(), 800u);
  for (size_t i = 1; i < entries.size(); ++i) {
    ASSERT_GT(entries[i]->timestamp, entries[i - 1]->timestamp) << i;
  }
  // With no inversion, the lookup is a plain binary search.
  EXPECT_EQ(mq.FirstOffsetAtOrAfter("ch", entries[400]->timestamp), 400);
}

// ---------------------------------------------------------------------------
// Truncation gap surfacing
// ---------------------------------------------------------------------------

TEST(MessageQueue, TruncationGapIsCountedNotSwallowed) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  const int64_t gap_before =
      MetricsRegistry::Global().CounterValue("wal.subscriber_gap");
  for (int i = 0; i < 10; ++i) mq.Publish("ch", Tick(i + 1));
  EXPECT_EQ(sub->TryPoll(2).size(), 2u);  // Position 2.
  EXPECT_EQ(sub->missed(), 0);
  mq.TruncateBefore("ch", 6);  // Drops offsets [2, 6) under the cursor.
  auto entries = sub->TryPoll(100);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0]->timestamp, 7u);  // Snapped to the floor...
  EXPECT_EQ(sub->missed(), 4);           // ...but the gap is surfaced.
  EXPECT_EQ(
      MetricsRegistry::Global().CounterValue("wal.subscriber_gap") -
          gap_before,
      4);
  // Reading on from the floor accrues no further gap.
  mq.Publish("ch", Tick(11));
  EXPECT_EQ(sub->TryPoll(10).size(), 1u);
  EXPECT_EQ(sub->missed(), 4);
}

// ---------------------------------------------------------------------------
// Concurrency stress (TSan coverage for the lock-free read path)
// ---------------------------------------------------------------------------

TEST(MessageQueue, StressPublishTruncatePollShutdown) {
  // One channel, everything at once: grouped publishers, a truncator
  // re-snapshotting under the readers, wait-free pollers, replay lookups,
  // then a shutdown racing in-flight groups. Run under TSan in the check
  // matrix; the assertions prove per-subscription accounting
  // (delivered + missed == end) and exact ack/install agreement.
  MessageQueue mq(GroupedOptions(/*linger_us=*/0, /*sim_us=*/100));
  constexpr int kProducers = 4, kPollers = 2;
  std::atomic<bool> stop_aux{false};
  std::atomic<int64_t> next_ts{1};
  std::vector<std::vector<int64_t>> acked(kProducers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < 300; ++i) {
        const int64_t off = mq.Publish(
            "ch", Tick(next_ts.fetch_add(1, std::memory_order_relaxed)));
        if (off < 0) break;
        acked[p].push_back(off);
      }
    });
  }
  struct PollerResult {
    int64_t delivered = 0;
    int64_t missed = 0;
    int64_t final_position = 0;
  };
  std::vector<PollerResult> pollers(kPollers);
  for (int q = 0; q < kPollers; ++q) {
    threads.emplace_back([&, q] {
      auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
      int64_t last_off = -1;
      while (true) {
        auto entries = sub->Poll(64, std::chrono::milliseconds(5));
        pollers[q].delivered += static_cast<int64_t>(entries.size());
        // Offsets only move forward even while truncation re-snapshots.
        if (!entries.empty()) {
          EXPECT_GT(sub->position() - static_cast<int64_t>(entries.size()),
                    last_off);
          last_off = sub->position() - 1;
        }
        if (entries.empty() && sub->closed()) break;
      }
      pollers[q].missed = sub->missed();
      pollers[q].final_position = sub->position();
    });
  }
  std::thread truncator([&] {
    while (!stop_aux.load(std::memory_order_acquire)) {
      const int64_t end = mq.EndOffset("ch");
      if (end > 32) mq.TruncateBefore("ch", end - 16);
      (void)mq.FirstOffsetAtOrAfter(
          "ch", static_cast<Timestamp>(
                    next_ts.load(std::memory_order_relaxed) / 2));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mq.Shutdown();
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  stop_aux.store(true, std::memory_order_release);
  truncator.join();
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  // Acked offsets are exactly [0, EndOffset): dense, no gap, no extra.
  const int64_t end = mq.EndOffset("ch");
  std::vector<int64_t> all;
  for (const auto& a : acked) all.insert(all.end(), a.begin(), a.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(end));
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<int64_t>(i));
  }
  // Per subscription: everything committed was either delivered or
  // reported missing — nothing silently vanished.
  for (const auto& pr : pollers) {
    EXPECT_EQ(pr.delivered + pr.missed, end);
    EXPECT_EQ(pr.final_position, end);
  }
}

// ---------------------------------------------------------------------------
// TimeTickEmitter
// ---------------------------------------------------------------------------

TEST(TimeTick, EmitsIntoRegisteredChannels) {
  Tso tso;
  MessageQueue mq(&tso);
  TimeTickEmitter ticker(&mq, /*interval_ms=*/5);
  ticker.RegisterChannel("wal/c1/s0", 1, 0);
  ticker.RegisterChannel("wal/c1/s1", 1, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ticker.Stop();
  for (const char* ch : {"wal/c1/s0", "wal/c1/s1"}) {
    auto sub = mq.Subscribe(ch, SubscribePosition::kEarliest);
    auto entries = sub->TryPoll(1000);
    EXPECT_GE(entries.size(), 3u) << ch;
    Timestamp last = 0;
    for (const auto& e : entries) {
      EXPECT_EQ(e->type, LogEntryType::kTimeTick);
      EXPECT_GT(e->timestamp, last);
      last = e->timestamp;
    }
  }
}

TEST(TimeTick, UnregisterStopsTicks) {
  Tso tso;
  MessageQueue mq(&tso);
  TimeTickEmitter ticker(&mq, 1000000);  // Never fires on its own.
  ticker.RegisterChannel("ch", 1, 0);
  ticker.TickNow();
  ticker.UnregisterChannel("ch");
  ticker.TickNow();
  ticker.Stop();
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  EXPECT_EQ(sub->TryPoll(10).size(), 1u);
}

TEST(TimeTick, TickDominatesPriorPublishes) {
  // A tick's timestamp must be >= every LSN already in the channel.
  Tso tso;
  MessageQueue mq(&tso);
  TimeTickEmitter ticker(&mq, 1000000);
  ticker.RegisterChannel("ch", 1, 0);
  LogEntry data;
  data.type = LogEntryType::kInsert;
  data.timestamp = tso.Allocate();
  mq.Publish("ch", std::move(data));
  ticker.TickNow();
  ticker.Stop();
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  auto entries = sub->TryPoll(10);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_GT(entries[1]->timestamp, entries[0]->timestamp);
}

TEST(TimeTick, FenceTicksOnlyLaggingChannels) {
  // A read fence at read_ts ticks the shard channels whose committed LSN is
  // below it, skips the rest, and its tick lands above read_ts.
  Tso tso;
  MessageQueue mq(&tso);
  TimeTickEmitter ticker(&mq, 1000000);
  const std::string s0 = ShardChannelName(1, 0);
  const std::string s1 = ShardChannelName(1, 1);
  const Timestamp read_ts = tso.Allocate();
  mq.Publish(s0, LogEntry{});  // Stamped past read_ts.
  auto& metrics = MetricsRegistry::Global();
  const int64_t ticks0 = metrics.CounterValue("wal.fence_ticks");
  const int64_t skips0 = metrics.CounterValue("wal.fence_skips");
  ticker.Fence(1, 2, read_ts);
  ticker.Stop();
  EXPECT_EQ(metrics.CounterValue("wal.fence_ticks") - ticks0, 1);
  EXPECT_EQ(metrics.CounterValue("wal.fence_skips") - skips0, 1);
  EXPECT_EQ(mq.EndOffset(s0), 1);
  auto entries = mq.Subscribe(s1, SubscribePosition::kEarliest)->TryPoll(10);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->type, LogEntryType::kTimeTick);
  EXPECT_EQ(entries[0]->shard, 1);
  EXPECT_GT(entries[0]->timestamp, read_ts);
}

// ---------------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------------

TEST(MessageQueue, ShutdownWakesBlockedPollImmediately) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  EXPECT_FALSE(sub->closed());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    mq.Shutdown();
  });
  const int64_t t0 = NowMicros();
  auto entries = sub->Poll(10, std::chrono::milliseconds(10000));
  closer.join();
  EXPECT_TRUE(entries.empty());
  // Woken by Shutdown(), nowhere near the 10 s timeout.
  EXPECT_LT(NowMicros() - t0, 5000000);
  EXPECT_TRUE(sub->closed());
}

TEST(MessageQueue, PollAfterShutdownReturnsWithoutBurningTimeout) {
  MessageQueue mq;
  auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
  mq.Publish("ch", Tick(1));
  mq.Publish("ch", Tick(2));
  mq.Shutdown();
  // Retained entries still drain after shutdown...
  auto entries = sub->Poll(10, std::chrono::milliseconds(10000));
  EXPECT_EQ(entries.size(), 2u);
  // ...and once drained, polls are immediate and final, not timeouts.
  const int64_t t0 = NowMicros();
  EXPECT_TRUE(sub->Poll(10, std::chrono::milliseconds(10000)).empty());
  EXPECT_LT(NowMicros() - t0, 5000000);
  EXPECT_TRUE(sub->closed());
}

TEST(MessageQueue, PublishAfterShutdownIsRefused) {
  MessageQueue mq;
  EXPECT_EQ(mq.Publish("ch", Tick(1)), 0);
  mq.Shutdown();
  EXPECT_EQ(mq.Publish("ch", Tick(2)), -1);
  EXPECT_EQ(mq.EndOffset("ch"), 1);  // Nothing appended.
}

}  // namespace
}  // namespace manu
