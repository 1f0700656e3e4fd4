#include "wal/time_tick.h"

#include "common/metrics.h"

namespace manu {

namespace {

/// Read-fence counters, resolved once (the registry lookup takes a lock).
struct FenceCounters {
  Counter* ticks;
  Counter* skips;

  static const FenceCounters& Get() {
    static FenceCounters c = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      FenceCounters out;
      out.ticks = reg.GetCounter("wal.fence_ticks");
      out.skips = reg.GetCounter("wal.fence_skips");
      return out;
    }();
    return c;
  }
};

}  // namespace

TimeTickEmitter::TimeTickEmitter(MessageQueue* mq, int64_t interval_ms)
    : mq_(mq), interval_ms_(interval_ms) {
  thread_ = std::thread([this] { Run(); });
}

TimeTickEmitter::~TimeTickEmitter() { Stop(); }

void TimeTickEmitter::RegisterChannel(const std::string& channel,
                                      CollectionId collection,
                                      ShardId shard) {
  std::lock_guard<std::mutex> lk(mu_);
  channels_[channel] = {collection, shard};
}

void TimeTickEmitter::UnregisterChannel(const std::string& channel) {
  std::lock_guard<std::mutex> lk(mu_);
  channels_.erase(channel);
}

void TimeTickEmitter::TickNow() {
  std::map<std::string, Target> channels;
  {
    std::lock_guard<std::mutex> lk(mu_);
    channels = channels_;
  }
  for (const auto& [channel, target] : channels) {
    PublishTick(channel, target.collection, target.shard);
  }
}

void TimeTickEmitter::Fence(CollectionId collection, int32_t num_shards,
                            Timestamp read_ts) {
  const FenceCounters& counters = FenceCounters::Get();
  for (ShardId shard = 0; shard < num_shards; ++shard) {
    const std::string channel = ShardChannelName(collection, shard);
    if (mq_->CommittedLsn(channel) >= read_ts) {
      counters.skips->Add(1);
      continue;
    }
    // A refused tick (broker fault) is not counted; the read then waits
    // for the periodic tick or its bound.
    if (PublishTick(channel, collection, shard) >= 0) counters.ticks->Add(1);
  }
}

int64_t TimeTickEmitter::PublishTick(const std::string& channel,
                                     CollectionId collection, ShardId shard) {
  // Unstamped: the broker stamps the tick at staging, above every LSN
  // already staged in the channel.
  LogEntry tick;
  tick.type = LogEntryType::kTimeTick;
  tick.collection = collection;
  tick.shard = shard;
  return mq_->Publish(channel, std::move(tick));
}

void TimeTickEmitter::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TimeTickEmitter::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                 [&] { return stop_; });
    if (stop_) break;
    lk.unlock();
    TickNow();
    lk.lock();
  }
}

}  // namespace manu
