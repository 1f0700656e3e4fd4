#ifndef MANU_WAL_MQ_H_
#define MANU_WAL_MQ_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "wal/message.h"
#include "wal/tso.h"

namespace manu {

/// Where a new subscription starts reading.
enum class SubscribePosition { kEarliest, kLatest };

/// Tuning for the broker's group-commit publish path (BtrLog recipe): the
/// flush leader batches every staged publish (up to group_max_entries) into
/// one flush, acking the whole group at once.
struct WalOptions {
  /// Max entries batch-serialized and installed per commit group. 1 = each
  /// publish is its own commit group.
  int64_t group_max_entries = 256;
  /// How long the flush leader lingers (us) waiting for the group to fill
  /// before flushing whatever is staged. 0 = never wait.
  int64_t flush_linger_us = 0;
  /// Simulated per-flush device latency (us): the fsync / replication RTT
  /// a real broker pays once per group, no matter how many entries the
  /// group carries. This is the knob that makes the batching win
  /// measurable (bench_ingest). 0 = off.
  int64_t sim_flush_latency_us = 0;
};

/// The WAL backbone service: a multi-channel durable pub/sub log, standing
/// in for Kafka/Pulsar (Section 3.3). Channels are ordered, append-only
/// sequences of LogEntry addressed by offset; every subscriber tracks its
/// own position and can replay from any retained offset — the property the
/// whole "log as data" architecture rests on.
///
/// Write path (group commit): publishers stage entries into a per-channel
/// append buffer and block on a commit ticket. A broker built over a Tso
/// stamps every unstamped entry (timestamp 0) while it stages it, under
/// the channel mutex: a channel's stamped entries are therefore committed
/// in LSN order, and a time-tick can never pass an entry that is stamped
/// but not yet in the log. The first stager becomes the
/// flush leader: it takes the staged group, batch-serializes it into one
/// frame (the simulated device write), evaluates each entry's publish fence
/// at the commit decision, installs the accepted entries as one immutable
/// chunk, and acks every waiter in the batch at once. The append buffer is
/// unlocked during the flush, so group N+1 fills while group N flushes
/// (pipelined flush-and-ack); publishers are never serialized behind more
/// than one flush latency.
///
/// Read path (wait-free cursors): committed entries live in an immutable
/// chunk list published through an atomic snapshot pointer. Subscribers
/// poll by loading the snapshot — no channel mutex, no contention with
/// publishers or truncation. TruncateBefore installs a new snapshot and
/// never blocks or waits for readers: superseded snapshots are *retired*,
/// and a writer frees the retired list the next time it observes the
/// channel's reader count at zero (an epoch-style grace period; readers
/// announce themselves with one wait-free fetch_add per poll).
///
/// Durability note: in the paper the broker replicates to cloud storage; in
/// this in-process reproduction the broker's own memory is the durability
/// domain (node failures are simulated by destroying node objects, never the
/// broker), and retention is bounded only by TruncateBefore(), which models
/// the user-configured log expiration of Section 4.3.
class MessageQueue {
 public:
  class Subscription;

  /// Evaluated by the flush leader at the group-commit decision, after the
  /// flush and before any waiter in the group is acked. A non-OK fence
  /// excludes the entry from the group: it is never installed, never
  /// visible to subscribers, and the publisher gets -1. This is how epoch
  /// fencing (PR 4) lives INSIDE the commit, not before it: a publisher
  /// superseded while its entry sat in the append buffer is still refused.
  using PublishFence = std::function<Status()>;

  MessageQueue() = default;
  explicit MessageQueue(const WalOptions& options) { SetOptions(options); }
  /// A broker that stamps unstamped entries at staging from `tso`.
  explicit MessageQueue(Tso* tso) : tso_(tso) {}
  MessageQueue(const MessageQueue&) = delete;
  MessageQueue& operator=(const MessageQueue&) = delete;

  /// Reconfigures the publish path. Safe to call while traffic is flowing
  /// (fields are atomics; each flush reads a consistent-enough view).
  void SetOptions(const WalOptions& options);

  /// Appends to `channel` (auto-created) and wakes subscribers. Returns the
  /// entry's offset, or -1 when the publish failed (broker shut down, an
  /// injected `mq.publish` fault, or a refused fence). Blocks until the
  /// entry's commit group has flushed; the ack and the install are atomic
  /// per group.
  ///
  /// An entry published with timestamp 0 to a broker built over a Tso is
  /// stamped at staging: it gets the next LSN, and a kInsert entry gets one
  /// per row (rows first..last, entry.timestamp = last). A hand-stamped
  /// entry keeps its timestamp. On ack, the entry's LSN is written to `lsn`
  /// when non-null.
  ///
  /// `fence` (optional) is checked at the commit decision — see
  /// PublishFence. On refusal, the fence's status is copied to
  /// `fence_status` when non-null (OK there + -1 here means the broker
  /// itself refused: shutdown or fault).
  int64_t Publish(const std::string& channel, LogEntry entry);
  int64_t Publish(const std::string& channel, LogEntry entry,
                  const PublishFence& fence, Status* fence_status = nullptr,
                  Timestamp* lsn = nullptr);

  /// Creates a subscription starting at `position`.
  std::shared_ptr<Subscription> Subscribe(const std::string& channel,
                                          SubscribePosition position);
  /// Creates a subscription starting at an explicit offset (replay).
  std::shared_ptr<Subscription> SubscribeAt(const std::string& channel,
                                            int64_t offset);

  /// Offset one past the last published entry (0 for empty/unknown channel).
  int64_t EndOffset(const std::string& channel) const;
  /// Oldest retained offset.
  int64_t BeginOffset(const std::string& channel) const;

  /// Drops entries with offset < `offset` (log expiration). Offsets of
  /// retained entries are unchanged. The max LSN dropped (overall, and of
  /// kDelete entries specifically) is recorded so crash recovery can tell a
  /// safe truncation (everything dropped was archived) from data loss.
  /// Never blocks readers: the new snapshot is installed atomically and
  /// in-flight polls finish against the old one.
  void TruncateBefore(const std::string& channel, int64_t offset);

  /// Highest LSN ever truncated out of `channel` (0 = nothing truncated).
  /// Recovery compares this against the archived-segment floor: a truncated
  /// LSN above the floor means acked writes are unrecoverable (DataLoss).
  Timestamp TruncatedBelowTs(const std::string& channel) const;
  /// Same, restricted to kDelete entries. Deletes are never archived in
  /// binlogs, so recovery flags truncated deletes above the floor.
  Timestamp TruncatedDeleteTs(const std::string& channel) const;

  /// Highest LSN committed to `channel` (0 for an empty/unknown channel),
  /// read wait-free from the committed snapshot. For a channel whose
  /// entries are all stamped at staging this is the tail's LSN, and no
  /// entry below it can still be committed.
  Timestamp CommittedLsn(const std::string& channel) const;

  /// Offset of the first retained entry with LSN >= `ts` (EndOffset if
  /// none). Entries stamped at staging are LSN-ordered, but hand-stamped
  /// publishes from concurrent publishers can interleave, so the search
  /// walks back over the channel's recorded worst-case inversion window —
  /// no entry with LSN >= ts is ever skipped, however wide the
  /// interleaving was.
  int64_t FirstOffsetAtOrAfter(const std::string& channel, Timestamp ts) const;

  std::vector<std::string> ListChannels(const std::string& prefix) const;

  /// Wakes every blocked subscriber and publisher. In-flight commit groups
  /// are refused at their commit decision (a publish racing Shutdown never
  /// acks, and never installs after the broadcast); subsequent polls return
  /// what remains and then empty — immediately, never burning their timeout.
  void Shutdown();

  bool IsShutdown() const {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  static constexpr int64_t kTicketPending = -2;
  /// Small committed groups are consolidated into the previous tail chunk
  /// (copy-on-write) so chunk count stays ~entries/kMinChunkEntries even
  /// with groups of one (group_max_entries = 1).
  static constexpr int64_t kMinChunkEntries = 64;

  /// One immutable run of committed entries (one commit group, possibly
  /// consolidated with the previous tail). Never mutated after install.
  struct Chunk {
    int64_t first_offset = 0;  ///< Offset of entries[0].
    std::vector<std::shared_ptr<const LogEntry>> entries;
  };

  /// Immutable view of a channel's committed state. Readers operate on one
  /// loaded snapshot end to end; writers install a fresh snapshot (sharing
  /// chunk pointers) under the channel mutex.
  struct Snapshot {
    int64_t begin_offset = 0;  ///< Oldest retained offset.
    int64_t end_offset = 0;    ///< One past the last committed offset.
    Timestamp truncated_ts = 0;         ///< Max LSN dropped by truncation.
    Timestamp truncated_delete_ts = 0;  ///< Max kDelete LSN dropped.
    Timestamp max_lsn = 0;              ///< Max LSN ever committed.
    /// Worst observed LSN inversion (hand-stamped publishes only): max
    /// over committed entries of (running max LSN at install) - (entry
    /// LSN). FirstOffsetAtOrAfter's walk-back bound.
    Timestamp max_inversion = 0;
    std::vector<std::shared_ptr<const Chunk>> chunks;  ///< By first_offset.
  };

  /// A publisher's commit ticket: resolved by the flush leader.
  struct Ticket {
    int64_t offset = kTicketPending;  ///< -1 refused, >= 0 committed.
    Status fence_status;              ///< Why the fence refused, if it did.
  };

  struct Pending {
    std::shared_ptr<const LogEntry> entry;
    const PublishFence* fence = nullptr;  ///< Lives on the blocked
                                          ///< publisher's stack.
    std::shared_ptr<Ticket> ticket;
  };

  struct ChannelState {
    ChannelState() {
      snap_owner = std::make_shared<const Snapshot>();
      snap_raw.store(snap_owner.get(), std::memory_order_relaxed);
    }

    mutable std::mutex mu;  ///< Guards pending/flusher_active/installs.
    std::condition_variable data_cv;  ///< Wakes blocked pollers.
    std::condition_variable ack_cv;   ///< Wakes publishers awaiting commit
                                      ///< (and the lingering leader).
    std::vector<Pending> pending;     ///< The filling group (N+1).
    bool flusher_active = false;      ///< A leader is draining pending.
    /// Committed view. Writers replace `snap_owner` under `mu` (via
    /// InstallSnapshot) and publish the raw pointer through `snap_raw`;
    /// readers go through SnapRef and never touch `mu`. A superseded
    /// owner parks in `retired` until a writer observes
    /// `active_readers == 0` strictly after an install — at that instant
    /// no reader can still hold a retired pointer (any reader announcing
    /// itself later loads the new snapshot), so the grace period has
    /// passed and the retired list is freed.
    std::shared_ptr<const Snapshot> snap_owner;            ///< Under mu.
    std::vector<std::shared_ptr<const Snapshot>> retired;  ///< Under mu.
    std::atomic<const Snapshot*> snap_raw{nullptr};
    mutable std::atomic<int64_t> active_readers{0};
  };

  /// Wait-free reader guard: announces the reader (one fetch_add), loads
  /// the current snapshot pointer, and keeps writers from freeing it until
  /// the matching fetch_sub. The seq_cst pairing of the reader's
  /// (announce, load) with the writer's (install, readers == 0 check) is
  /// what makes reclamation sound: if the writer saw zero readers after
  /// installing, every reader that announces later must load the new
  /// snapshot, so everything retired earlier is unreachable.
  ///
  /// (Deliberately hand-rolled instead of std::atomic<shared_ptr>: the
  /// libstdc++ implementation releases its internal spinlock with a
  /// relaxed RMW, which ThreadSanitizer cannot derive happens-before
  /// through, flagging every store/load pair as a race.)
  class SnapRef {
   public:
    explicit SnapRef(const ChannelState* state) : state_(state) {
      state_->active_readers.fetch_add(1, std::memory_order_seq_cst);
      snap_ = state_->snap_raw.load(std::memory_order_seq_cst);
    }
    ~SnapRef() {
      state_->active_readers.fetch_sub(1, std::memory_order_release);
    }
    SnapRef(const SnapRef&) = delete;
    SnapRef& operator=(const SnapRef&) = delete;

    const Snapshot& operator*() const { return *snap_; }
    const Snapshot* operator->() const { return snap_; }

   private:
    const ChannelState* state_;
    const Snapshot* snap_;
  };

  /// Publishes `next` as the channel's committed view (caller holds
  /// state->mu). Retires the superseded snapshot and frees the retired
  /// list if no reader is active strictly after the install — the
  /// grace-period check that keeps installs (and TruncateBefore) from
  /// ever waiting on readers.
  static void InstallSnapshot(ChannelState* state,
                              std::shared_ptr<const Snapshot> next);

  /// Gives `entry` (unstamped) its LSN block from tso_; caller holds the
  /// channel mutex, so staging order is LSN order.
  void StampLocked(LogEntry* entry);

  ChannelState* GetOrCreate(const std::string& channel);
  const ChannelState* Find(const std::string& channel) const;

  /// Entry at logical `offset` within `snap` (must be in
  /// [begin_offset, end_offset)).
  static const std::shared_ptr<const LogEntry>& EntryAt(const Snapshot& snap,
                                                        int64_t offset);

  /// The leader side of group commit: drains `state->pending`, one group
  /// per iteration, flushing outside the lock. Enters and leaves with `lk`
  /// held; clears flusher_active on exit.
  void RunFlusher(ChannelState* state, std::unique_lock<std::mutex>& lk);

  Tso* tso_ = nullptr;  ///< Stamps unstamped entries; null = never stamp.
  mutable std::mutex channels_mu_;
  std::map<std::string, std::unique_ptr<ChannelState>> channels_;
  std::atomic<bool> shutdown_{false};

  // Publish-path knobs (see WalOptions); atomics so SetOptions is safe
  // against in-flight traffic.
  std::atomic<int64_t> group_max_entries_{256};
  std::atomic<int64_t> flush_linger_us_{0};
  std::atomic<int64_t> sim_flush_latency_us_{0};

  friend class Subscription;
};

/// A positioned reader over one channel. Not thread-safe (one consumer per
/// subscription, the Kafka consumer model); create one per consuming thread.
///
/// Polls are wait-free with respect to publishers and truncation: they read
/// an atomic snapshot of the channel's immutable chunk list and touch no
/// lock unless they choose to block for data.
class MessageQueue::Subscription {
 public:
  /// Reads up to `max_entries` starting at the current position, waiting up
  /// to `timeout` for data. Advances the position past returned entries.
  std::vector<std::shared_ptr<const LogEntry>> Poll(
      size_t max_entries, std::chrono::milliseconds timeout);

  /// Non-blocking variant.
  std::vector<std::shared_ptr<const LogEntry>> TryPoll(size_t max_entries);

  int64_t position() const { return position_; }
  void Seek(int64_t offset) { position_ = offset; }
  const std::string& channel() const { return channel_; }

  /// Cumulative count of entries this subscription can never read because
  /// TruncateBefore dropped them while the cursor lagged. A slow consumer
  /// whose position was snapped forward sees this grow (and the
  /// `wal.subscriber_gap` metric bump) instead of a silent skip, so
  /// recovery paths can tell replay-from-floor from a clean tail.
  int64_t missed() const { return missed_; }

  /// True once the broker shut down: an empty Poll() is then final, not a
  /// timeout, and the consumer loop should exit.
  bool closed() const { return mq_->IsShutdown(); }

 private:
  friend class MessageQueue;
  Subscription(MessageQueue* mq, ChannelState* state, std::string channel,
               int64_t position)
      : mq_(mq), state_(state), channel_(std::move(channel)),
        position_(position) {}

  /// Reads up to `max_entries` from `snap` at the current position,
  /// surfacing any truncation gap (missed_ / wal.subscriber_gap) first.
  std::vector<std::shared_ptr<const LogEntry>> Drain(const Snapshot& snap,
                                                     size_t max_entries);

  MessageQueue* mq_;
  ChannelState* state_;
  std::string channel_;
  int64_t position_;
  int64_t missed_ = 0;
};

}  // namespace manu

#endif  // MANU_WAL_MQ_H_
