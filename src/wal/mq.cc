#include "wal/mq.h"

#include <algorithm>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace manu {

namespace {

/// Hot-path counters, resolved once (the registry lookup takes a lock).
struct WalCounters {
  Counter* publishes;
  Counter* refused;
  Counter* group_commits;
  Counter* group_entries;
  Counter* flush_bytes;
  Counter* subscriber_gap;

  static const WalCounters& Get() {
    static WalCounters c = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      WalCounters out;
      out.publishes = reg.GetCounter("wal.publishes");
      out.refused = reg.GetCounter("wal.publish_refused");
      out.group_commits = reg.GetCounter("wal.group_commits");
      out.group_entries = reg.GetCounter("wal.group_entries");
      out.flush_bytes = reg.GetCounter("wal.flush_bytes");
      out.subscriber_gap = reg.GetCounter("wal.subscriber_gap");
      return out;
    }();
    return c;
  }
};

}  // namespace

void MessageQueue::SetOptions(const WalOptions& options) {
  group_max_entries_.store(std::max<int64_t>(1, options.group_max_entries),
                           std::memory_order_relaxed);
  flush_linger_us_.store(options.flush_linger_us, std::memory_order_relaxed);
  sim_flush_latency_us_.store(options.sim_flush_latency_us,
                              std::memory_order_relaxed);
}

MessageQueue::ChannelState* MessageQueue::GetOrCreate(
    const std::string& channel) {
  std::lock_guard<std::mutex> lk(channels_mu_);
  auto& slot = channels_[channel];
  if (slot == nullptr) slot = std::make_unique<ChannelState>();
  return slot.get();
}

const MessageQueue::ChannelState* MessageQueue::Find(
    const std::string& channel) const {
  std::lock_guard<std::mutex> lk(channels_mu_);
  auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.get();
}

void MessageQueue::InstallSnapshot(ChannelState* state,
                                   std::shared_ptr<const Snapshot> next) {
  state->retired.push_back(std::move(state->snap_owner));
  state->snap_owner = std::move(next);
  // seq_cst store-then-load against SnapRef's seq_cst fetch_add-then-load:
  // this is the store-buffer litmus, and anything weaker would let the
  // writer read a stale zero while a reader holds a retired snapshot.
  state->snap_raw.store(state->snap_owner.get(), std::memory_order_seq_cst);
  if (state->active_readers.load(std::memory_order_seq_cst) == 0) {
    state->retired.clear();
  }
}

const std::shared_ptr<const LogEntry>& MessageQueue::EntryAt(
    const Snapshot& snap, int64_t offset) {
  // Chunks are sorted by first_offset; find the last chunk starting at or
  // before `offset`.
  auto it = std::upper_bound(
      snap.chunks.begin(), snap.chunks.end(), offset,
      [](int64_t off, const std::shared_ptr<const Chunk>& c) {
        return off < c->first_offset;
      });
  const Chunk& chunk = **std::prev(it);
  return chunk.entries[static_cast<size_t>(offset - chunk.first_offset)];
}

void MessageQueue::StampLocked(LogEntry* entry) {
  const bool insert = entry->type == LogEntryType::kInsert;
  const int64_t n =
      insert ? std::max<int64_t>(1, entry->batch.NumRows()) : 1;
  const Timestamp first = tso_->AllocateBlock(static_cast<uint32_t>(n));
  if (insert) {
    // Sized before the lock was taken; only the stamps are written here.
    std::vector<Timestamp>& stamps = entry->batch.timestamps;
    for (size_t i = 0; i < stamps.size(); ++i) {
      stamps[i] = first + static_cast<Timestamp>(i);
    }
  }
  entry->timestamp = first + static_cast<Timestamp>(n - 1);
}

int64_t MessageQueue::Publish(const std::string& channel, LogEntry entry) {
  return Publish(channel, std::move(entry), PublishFence());
}

int64_t MessageQueue::Publish(const std::string& channel, LogEntry entry,
                              const PublishFence& fence,
                              Status* fence_status, Timestamp* lsn) {
  // Publish's int64_t signature carries failure as -1: injected mq.publish
  // faults (delay policies just stall, like a slow broker), publishes
  // racing Shutdown(), and refused fences all refuse the entry, and
  // callers must not ack.
  Status fp;
  MANU_FAILPOINT_CAPTURE("mq.publish", fp);
  if (!fp.ok() || IsShutdown()) return -1;

  ChannelState* state = GetOrCreate(channel);
  const bool stamp = tso_ != nullptr && entry.timestamp == 0;
  if (stamp && entry.type == LogEntryType::kInsert) {
    entry.batch.timestamps.resize(
        static_cast<size_t>(entry.batch.NumRows()));
  }
  auto staged = std::make_shared<LogEntry>(std::move(entry));
  auto ticket = std::make_shared<Ticket>();
  std::unique_lock<std::mutex> lk(state->mu);
  // Re-check under the lock: staging after the Shutdown broadcast would let
  // an entry be installed and acked post-shutdown (the old TOCTOU). The
  // commit decision in RunFlusher re-checks once more for entries that were
  // already staged when Shutdown fired.
  if (IsShutdown()) return -1;
  // Stamp and stage under one hold of the channel mutex: the flusher takes
  // `pending` in staging order, so the channel commits in LSN order.
  if (stamp) StampLocked(staged.get());
  const Timestamp staged_lsn = staged->timestamp;
  Pending p;
  p.entry = std::move(staged);
  p.fence = fence ? &fence : nullptr;
  p.ticket = ticket;
  state->pending.push_back(std::move(p));

  if (!state->flusher_active) {
    // Leader: flush staged groups (including our own entry, which is
    // pending[0] — the buffer was empty when we claimed leadership) until
    // the buffer drains. Followers stage into the buffer while we flush.
    state->flusher_active = true;
    RunFlusher(state, lk);
  } else {
    // Follower: the group fill may satisfy a lingering leader.
    if (static_cast<int64_t>(state->pending.size()) >=
        group_max_entries_.load(std::memory_order_relaxed)) {
      state->ack_cv.notify_all();
    }
    state->ack_cv.wait(lk, [&] { return ticket->offset != kTicketPending; });
  }
  lk.unlock();

  if (ticket->offset < 0) {
    WalCounters::Get().refused->Add(1);
    if (fence_status != nullptr) *fence_status = ticket->fence_status;
  } else {
    WalCounters::Get().publishes->Add(1);
    if (lsn != nullptr) *lsn = staged_lsn;
  }
  return ticket->offset;
}

void MessageQueue::RunFlusher(ChannelState* state,
                              std::unique_lock<std::mutex>& lk) {
  const WalCounters& counters = WalCounters::Get();
  while (!state->pending.empty()) {
    const int64_t group_max =
        group_max_entries_.load(std::memory_order_relaxed);
    const int64_t linger_us = flush_linger_us_.load(std::memory_order_relaxed);
    if (linger_us > 0 &&
        static_cast<int64_t>(state->pending.size()) < group_max &&
        !IsShutdown()) {
      state->ack_cv.wait_for(
          lk, std::chrono::microseconds(linger_us), [&] {
            return static_cast<int64_t>(state->pending.size()) >= group_max ||
                   IsShutdown();
          });
    }
    const size_t take = std::min<size_t>(state->pending.size(),
                                         static_cast<size_t>(group_max));
    std::vector<Pending> group(
        std::make_move_iterator(state->pending.begin()),
        std::make_move_iterator(state->pending.begin() +
                                static_cast<int64_t>(take)));
    state->pending.erase(state->pending.begin(),
                         state->pending.begin() + static_cast<int64_t>(take));

    // --- Flush stage, outside the lock: group N+1 fills while this group
    // batch-serializes and pays the (simulated) device latency. ---
    lk.unlock();
    {
      std::vector<std::shared_ptr<const LogEntry>> entries;
      entries.reserve(group.size());
      for (const Pending& p : group) entries.push_back(p.entry);
      const std::string frame = SerializeGroup(entries);
      counters.flush_bytes->Add(static_cast<int64_t>(frame.size()));
    }
    const int64_t sim_us =
        sim_flush_latency_us_.load(std::memory_order_relaxed);
    if (sim_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sim_us));
    }
    // Commit decision, part 1: fences. Evaluated after the flush and before
    // any ack, outside the channel lock (a fence consults the lease
    // manager / meta store). A refused fence excludes the entry from the
    // group — it is never installed and its publisher sees -1. The
    // fence_status write is safe here (publishers read it only after their
    // ticket resolves, which happens under the lock below); the offset
    // itself is only ever resolved under the lock.
    std::vector<bool> fenced(group.size(), false);
    for (size_t i = 0; i < group.size(); ++i) {
      if (group[i].fence != nullptr) {
        Status fs = (*group[i].fence)();
        if (!fs.ok()) {
          group[i].ticket->fence_status = std::move(fs);
          fenced[i] = true;
        }
      }
    }
    lk.lock();

    // Commit decision, part 2: shutdown. Entries staged before the
    // broadcast but not yet committed are refused — "publishes racing
    // Shutdown refuse the entry" — so nothing is ever installed after
    // Shutdown() returns.
    const bool refused_all = IsShutdown();
    std::vector<std::shared_ptr<const LogEntry>> accepted;
    accepted.reserve(group.size());
    if (!refused_all) {
      for (size_t i = 0; i < group.size(); ++i) {
        if (!fenced[i]) accepted.push_back(group[i].entry);
      }
    }
    if (!accepted.empty()) {
      auto next = std::make_shared<Snapshot>(*state->snap_owner);
      int64_t offset = next->end_offset;
      // Track the worst LSN inversion ever committed (only hand-stamped
      // publishes can interleave); FirstOffsetAtOrAfter's walk-back uses
      // it as a sound bound.
      for (const auto& e : accepted) {
        if (next->max_lsn > e->timestamp) {
          next->max_inversion =
              std::max(next->max_inversion, next->max_lsn - e->timestamp);
        } else {
          next->max_lsn = e->timestamp;
        }
      }
      auto chunk = std::make_shared<Chunk>();
      // Consolidate small tails copy-on-write so the chunk list stays
      // ~entries/kMinChunkEntries long even with groups of one. The
      // previous tail chunk is never mutated — old snapshots keep it.
      if (!next->chunks.empty() &&
          static_cast<int64_t>(next->chunks.back()->entries.size()) <
              kMinChunkEntries &&
          next->chunks.back()->first_offset >= next->begin_offset) {
        const Chunk& tail = *next->chunks.back();
        chunk->first_offset = tail.first_offset;
        chunk->entries = tail.entries;
        next->chunks.pop_back();
      } else {
        chunk->first_offset = offset;
      }
      chunk->entries.insert(chunk->entries.end(), accepted.begin(),
                            accepted.end());
      next->chunks.push_back(std::move(chunk));
      next->end_offset = offset + static_cast<int64_t>(accepted.size());
      InstallSnapshot(state, std::move(next));
      counters.group_commits->Add(1);
      counters.group_entries->Add(static_cast<int64_t>(accepted.size()));
      // Resolve accepted tickets in staging order; fenced ones are refused.
      for (size_t i = 0; i < group.size(); ++i) {
        group[i].ticket->offset = fenced[i] ? -1 : offset++;
      }
    } else {
      for (Pending& p : group) p.ticket->offset = -1;
    }
    // Ack the whole batch at once; wake pollers if anything was installed.
    lk.unlock();
    state->ack_cv.notify_all();
    if (!accepted.empty()) state->data_cv.notify_all();
    lk.lock();
  }
  state->flusher_active = false;
}

std::shared_ptr<MessageQueue::Subscription> MessageQueue::Subscribe(
    const std::string& channel, SubscribePosition position) {
  ChannelState* state = GetOrCreate(channel);
  SnapRef snap(state);
  const int64_t offset = position == SubscribePosition::kEarliest
                             ? snap->begin_offset
                             : snap->end_offset;
  return std::shared_ptr<Subscription>(
      new Subscription(this, state, channel, offset));
}

std::shared_ptr<MessageQueue::Subscription> MessageQueue::SubscribeAt(
    const std::string& channel, int64_t offset) {
  ChannelState* state = GetOrCreate(channel);
  return std::shared_ptr<Subscription>(
      new Subscription(this, state, channel, offset));
}

int64_t MessageQueue::EndOffset(const std::string& channel) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  return SnapRef(state)->end_offset;
}

int64_t MessageQueue::BeginOffset(const std::string& channel) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  return SnapRef(state)->begin_offset;
}

void MessageQueue::TruncateBefore(const std::string& channel,
                                  int64_t offset) {
  ChannelState* state = GetOrCreate(channel);
  std::lock_guard<std::mutex> lk(state->mu);
  const Snapshot& old = *state->snap_owner;
  const int64_t new_begin =
      std::min(std::max(offset, old.begin_offset), old.end_offset);
  if (new_begin <= old.begin_offset) return;
  auto next = std::make_shared<Snapshot>(old);
  for (int64_t off = old.begin_offset; off < new_begin; ++off) {
    const LogEntry& dropped = *EntryAt(old, off);
    next->truncated_ts = std::max(next->truncated_ts, dropped.timestamp);
    if (dropped.type == LogEntryType::kDelete) {
      next->truncated_delete_ts =
          std::max(next->truncated_delete_ts, dropped.timestamp);
    }
  }
  next->begin_offset = new_begin;
  // Drop whole chunks that fell below the retention floor; a chunk
  // straddling the floor is kept (readers clamp to begin_offset) and goes
  // away once the floor passes its end.
  size_t keep_from = 0;
  while (keep_from < next->chunks.size()) {
    const Chunk& c = *next->chunks[keep_from];
    if (c.first_offset + static_cast<int64_t>(c.entries.size()) > new_begin) {
      break;
    }
    ++keep_from;
  }
  next->chunks.erase(next->chunks.begin(),
                     next->chunks.begin() + static_cast<int64_t>(keep_from));
  InstallSnapshot(state, std::move(next));
}

Timestamp MessageQueue::TruncatedBelowTs(const std::string& channel) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  return SnapRef(state)->truncated_ts;
}

Timestamp MessageQueue::TruncatedDeleteTs(const std::string& channel) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  return SnapRef(state)->truncated_delete_ts;
}

Timestamp MessageQueue::CommittedLsn(const std::string& channel) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  return SnapRef(state)->max_lsn;
}

int64_t MessageQueue::FirstOffsetAtOrAfter(const std::string& channel,
                                           Timestamp ts) const {
  const ChannelState* state = Find(channel);
  if (state == nullptr) return 0;
  SnapRef snap(state);
  const int64_t begin = snap->begin_offset;
  const int64_t n = snap->end_offset - begin;
  // Entries are near-LSN-ordered (stamped at staging; hand-stamped
  // publishes can interleave): binary search as if sorted, then walk back
  // over the channel's recorded worst-case inversion window. The bound
  // makes the walk-back sound for ANY interleaving ever committed, not
  // just inversions adjacent to the probe: once an entry's LSN drops below
  // ts - max_inversion, no earlier entry can reach ts.
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    const int64_t mid = (lo + hi) / 2;
    if (EntryAt(*snap, begin + mid)->timestamp < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const Timestamp bound = snap->max_inversion;
  int64_t first = lo;
  for (int64_t i = lo; i > 0; --i) {
    const Timestamp t = EntryAt(*snap, begin + i - 1)->timestamp;
    if (t >= ts) {
      first = i - 1;
    } else if (ts > bound && t < ts - bound) {
      break;  // Everything earlier is provably < ts.
    }
  }
  return begin + first;
}

std::vector<std::string> MessageQueue::ListChannels(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lk(channels_mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : channels_) {
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

void MessageQueue::Shutdown() {
  std::vector<ChannelState*> states;
  {
    std::lock_guard<std::mutex> lk(channels_mu_);
    shutdown_.store(true, std::memory_order_release);
    for (auto& [_, state] : channels_) states.push_back(state.get());
  }
  for (ChannelState* state : states) {
    // Take the channel lock so a poller between its predicate check and its
    // wait cannot miss the wake; in-flight flush groups are refused at the
    // commit decision (which runs under this same lock, after the store
    // above).
    { std::lock_guard<std::mutex> lk(state->mu); }
    state->data_cv.notify_all();
    state->ack_cv.notify_all();
  }
}

std::vector<std::shared_ptr<const LogEntry>>
MessageQueue::Subscription::Poll(size_t max_entries,
                                 std::chrono::milliseconds timeout) {
  {
    SnapRef snap(state_);
    if (position_ < snap->end_offset || timeout.count() <= 0 ||
        mq_->IsShutdown()) {
      return Drain(*snap, max_entries);
    }
  }  // Guard released before blocking: a parked poller must not pin
     // retired snapshots for its whole timeout.
  {
    // Block for data. A shut-down broker wakes the wait immediately:
    // consumers drain whatever remains and then see empty polls without
    // burning `timeout` per call (distinguish "no data yet" from "no data
    // ever" via closed()). The predicate reads snap_owner, which writers
    // only replace under this same mutex.
    std::unique_lock<std::mutex> lk(state_->mu);
    state_->data_cv.wait_for(lk, timeout, [&] {
      return position_ < state_->snap_owner->end_offset || mq_->IsShutdown();
    });
  }
  SnapRef snap(state_);
  return Drain(*snap, max_entries);
}

std::vector<std::shared_ptr<const LogEntry>>
MessageQueue::Subscription::Drain(const Snapshot& snap, size_t max_entries) {
  // A truncated-away position snaps forward to the oldest retained entry —
  // loudly: the skipped entries are gone for this subscriber, and recovery
  // paths must be able to tell this from a clean tail.
  if (position_ < snap.begin_offset) {
    const int64_t gap = snap.begin_offset - position_;
    missed_ += gap;
    WalCounters::Get().subscriber_gap->Add(gap);
    position_ = snap.begin_offset;
  }
  std::vector<std::shared_ptr<const LogEntry>> out;
  const int64_t end =
      std::min(snap.end_offset, position_ + static_cast<int64_t>(max_entries));
  out.reserve(static_cast<size_t>(std::max<int64_t>(0, end - position_)));
  while (position_ < end) {
    out.push_back(EntryAt(snap, position_));
    ++position_;
  }
  return out;
}

std::vector<std::shared_ptr<const LogEntry>>
MessageQueue::Subscription::TryPoll(size_t max_entries) {
  return Poll(max_entries, std::chrono::milliseconds(0));
}

}  // namespace manu
