// WAL ingest bench: acked publishes/sec straight against the broker, with
// groups of one ("off", group_max_entries = 1) and with full group commit
// ("on", the default group size), under the simulated per-flush device
// latency (the fsync / replication RTT a real log service pays once per
// group).
//
// Expected shape: with groups of one every publish pays the full flush
// latency serially, so a channel tops out near 1/latency regardless of
// publisher count. With group commit the flush leader batches every staged
// publisher into one flush, so acked throughput scales with concurrency —
// the acceptance floor is >= 5x at 8 publishers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "wal/mq.h"

namespace manu {
namespace {

constexpr int64_t kFlushLatencyUs = 200;  // Simulated device write.
constexpr int64_t kGroupMax = 256;

LogEntry MakeEntry(Timestamp ts) {
  LogEntry e;
  e.type = LogEntryType::kInsert;
  e.timestamp = ts;
  e.collection = 1;
  e.segment = 1;
  e.batch.primary_keys = {static_cast<int64_t>(ts)};
  e.batch.timestamps = {ts};
  e.batch.columns.push_back(FieldColumn::MakeFloatVector(
      100, 8, std::vector<float>(8, static_cast<float>(ts))));
  return e;
}

double RunArm(bool grouped, int32_t publishers, int64_t duration_ms) {
  WalOptions opt;
  opt.group_max_entries = grouped ? kGroupMax : 1;  // 1 = groups of one.
  opt.flush_linger_us = 0;  // Natural batching only: whatever queued.
  opt.sim_flush_latency_us = kFlushLatencyUs;
  MessageQueue mq(opt);
  // A subscriber drains concurrently so the bench also exercises the
  // wait-free read path under publish load (and bounds memory).
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    auto sub = mq.Subscribe("ch", SubscribePosition::kEarliest);
    while (!stop.load(std::memory_order_acquire)) {
      if (sub->Poll(1024, std::chrono::milliseconds(5)).empty() &&
          sub->closed()) {
        break;
      }
      const int64_t pos = sub->position();
      if (pos > 4096) mq.TruncateBefore("ch", pos - 1024);
    }
  });
  std::atomic<int64_t> ts{1};
  auto result = bench::MeasureThroughput(
      publishers, duration_ms, [&](int32_t, int64_t) {
        mq.Publish(
            "ch", MakeEntry(static_cast<Timestamp>(
                      ts.fetch_add(1, std::memory_order_relaxed))));
      });
  stop.store(true, std::memory_order_release);
  mq.Shutdown();
  drainer.join();
  return result.qps;
}

void Run() {
  const int64_t duration_ms = bench::Scaled(1500);
  std::printf("WAL ingest: acked publishes/sec, one channel, simulated "
              "flush latency %lld us, group max %lld\n\n",
              static_cast<long long>(kFlushLatencyUs),
              static_cast<long long>(kGroupMax));
  bench::Table table(
      {"publishers", "group_commit", "acked/s", "speedup_vs_off"});
  bench::BenchReport report("ingest");
  for (int32_t publishers : {1, 4, 8}) {
    const double off = RunArm(/*grouped=*/false, publishers, duration_ms);
    const double on = RunArm(/*grouped=*/true, publishers, duration_ms);
    const double speedup = off > 0 ? on / off : 0;
    table.AddRow({std::to_string(publishers), "off", bench::Fmt(off, 0), ""});
    table.AddRow({std::to_string(publishers), "on", bench::Fmt(on, 0),
                  bench::Fmt(speedup, 2)});
    report.Add("p" + std::to_string(publishers) + "_off",
               {{"publishers", publishers}, {"acked_per_sec", off}});
    report.Add("p" + std::to_string(publishers) + "_on",
               {{"publishers", publishers},
                {"acked_per_sec", on},
                {"speedup_vs_off", speedup}});
  }
  table.Print();
  report.WriteIfRequested();
}

}  // namespace
}  // namespace manu

int main() {
  manu::Run();
  return 0;
}
