#ifndef MANU_WAL_TIME_TICK_H_
#define MANU_WAL_TIME_TICK_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "wal/mq.h"

namespace manu {

/// Periodically publishes kTimeTick control entries into every registered
/// channel (Section 3.4, "similar to watermarks in Apache Flink"). A tick
/// carrying timestamp T promises the channel will carry no further data
/// entries with LSN <= T, which is what lets subscribers bound staleness:
/// shorter intervals let waiting queries release sooner (Figure 12 sweeps
/// exactly this interval).
///
/// The paper has loggers write ticks into the channels they own; here one
/// emitter thread serves all channels. Ticks are published unstamped: the
/// broker (built over the Tso) stamps each one at staging, after every
/// entry already staged in that channel, which is what makes the promise
/// hold.
///
/// Strong (tau=0) reads do not wait for the interval: Fence() publishes a
/// tick on demand into each channel that lags the read's timestamp.
class TimeTickEmitter {
 public:
  TimeTickEmitter(MessageQueue* mq, int64_t interval_ms);
  ~TimeTickEmitter();

  TimeTickEmitter(const TimeTickEmitter&) = delete;
  TimeTickEmitter& operator=(const TimeTickEmitter&) = delete;

  /// Registers a channel for ticking; collection/shard are echoed into the
  /// tick entries so subscribers can route them.
  void RegisterChannel(const std::string& channel, CollectionId collection,
                       ShardId shard);
  void UnregisterChannel(const std::string& channel);

  /// Emits one round of ticks immediately (tests use this to avoid sleeping).
  void TickNow();

  /// The read fence of a strong search at `read_ts`: for each of the
  /// collection's `num_shards` shard channels whose committed LSN is below
  /// `read_ts`, publishes one tick, which staging stamps above `read_ts`.
  /// A channel already at or past `read_ts` is skipped: entries are
  /// stamped in staging order, so nothing below its tail can still arrive.
  /// Counted as wal.fence_ticks (ticks committed) / wal.fence_skips.
  void Fence(CollectionId collection, int32_t num_shards, Timestamp read_ts);

  void Stop();

  int64_t interval_ms() const { return interval_ms_; }

 private:
  struct Target {
    CollectionId collection;
    ShardId shard;
  };

  void Run();
  /// Publishes one unstamped tick; returns its offset, or -1 if refused.
  int64_t PublishTick(const std::string& channel, CollectionId collection,
                      ShardId shard);

  MessageQueue* mq_;
  int64_t interval_ms_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Target> channels_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace manu

#endif  // MANU_WAL_TIME_TICK_H_
