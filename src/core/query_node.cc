#include "core/query_node.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "core/admission.h"
#include "core/lease.h"
#include "index/index_factory.h"
#include "storage/binlog.h"

namespace manu {

QueryNode::QueryNode(NodeId id, const CoreContext& ctx)
    : id_(id),
      ctx_(ctx),
      executor_(std::make_unique<ThreadPool>(
          std::max(1, ctx.config.query_threads))) {}

QueryNode::~QueryNode() {
  Stop();
  executor_.reset();
}

Status QueryNode::AdmitSearch(const NodeSearchRequest& req) {
  // A request whose deadline already passed is dead on arrival: fail fast
  // instead of letting it claim executor slots just to time out inside the
  // scan path (the pre-admission behavior — see the re-checks in
  // SearchInternal / search_one for requests that expire later).
  if (req.deadline_us > 0 && NowMicros() > req.deadline_us) {
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Global().GetCounter("query_node.deadline_rejects")->Add();
    return Status::Timeout("query node " + std::to_string(id_) +
                           ": deadline already passed at admission");
  }
  const int64_t cap = ctx_.config.admission_node_inflight;
  if (cap > 0) {
    // Optimistic reserve; back out at the cap. The node refuses instead of
    // queueing unboundedly — the proxy's ladder turns this into
    // degrade/shed long before clients see it.
    if (outstanding_.fetch_add(1, std::memory_order_relaxed) + 1 > cap) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      overload_rejects_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global()
          .GetCounter("query_node.overload_rejects")
          ->Add();
      const int64_t hint_ms = std::max<int64_t>(
          1, ewma_latency_us_.load(std::memory_order_relaxed) / 1000);
      return AdmissionController::ShedStatus(
          "query node " + std::to_string(id_), /*stage=*/0, hint_ms);
    }
  } else {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Result<std::vector<SegmentHit>> QueryNode::RunAdmitted(
    const NodeSearchRequest& req) {
  executing_.fetch_add(1, std::memory_order_relaxed);
  const int64_t t0 = NowMicros();
  auto result = SearchInternal(req);
  // EWMA service time (alpha = 1/8), the load signal heartbeats carry for
  // power-of-two-choices routing. Relaxed lost updates only blur an
  // already-approximate signal.
  const int64_t lat = NowMicros() - t0;
  const int64_t prev = ewma_latency_us_.load(std::memory_order_relaxed);
  ewma_latency_us_.store(prev == 0 ? lat : prev - prev / 8 + lat / 8,
                         std::memory_order_relaxed);
  executing_.fetch_sub(1, std::memory_order_relaxed);
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

std::future<Result<std::vector<SegmentHit>>> QueryNode::SearchAsync(
    NodeSearchRequest req, std::shared_ptr<const void> keepalive) {
  Status admitted = AdmitSearch(req);
  if (!admitted.ok()) {
    std::promise<Result<std::vector<SegmentHit>>> refused;
    refused.set_value(std::move(admitted));
    return refused.get_future();
  }
  // By value: an abandoned straggler outlives its caller.
  return executor_->Submit(
      [this, req = std::move(req), keepalive = std::move(keepalive)] {
        return RunAdmitted(req);
      });
}

Result<std::vector<SegmentHit>> QueryNode::Search(
    const NodeSearchRequest& req) {
  return SearchAsync(req).get();
}

void QueryNode::Start() {
  if (ctx_.leases != nullptr) {
    lease_epoch_ = ctx_.leases->Register(id_, "query");
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void QueryNode::Stop() {
  stop_.store(true, std::memory_order_release);
  tick_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void QueryNode::AddChannel(CollectionId collection, ShardId shard,
                           std::shared_ptr<const CollectionSchema> schema,
                           bool primary) {
  auto ch = std::make_shared<ChannelState>();
  ch->sub = ctx_.mq->Subscribe(ShardChannelName(collection, shard),
                               SubscribePosition::kEarliest);
  ch->collection = collection;
  ch->shard = shard;
  ch->primary = primary;
  std::unique_lock lk(mu_);
  collections_[collection].schema = std::move(schema);
  channels_.push_back(std::move(ch));
}

void QueryNode::PromoteChannel(CollectionId collection, ShardId shard) {
  std::unique_lock lk(mu_);
  for (auto& ch : channels_) {
    if (ch->collection != collection || ch->shard != shard) continue;
    if (ch->primary) return;
    ch->primary = true;
    // Replay from the start to rebuild growing state; sealed twins are
    // skipped and deletes/tombstones are idempotent.
    ch->sub->Seek(ctx_.mq->BeginOffset(ch->sub->channel()));
    // Re-arm the consistency gate: while following, this channel's
    // service_ts tracked ticks it consumed WITHOUT materializing inserts,
    // so it overstates how fresh the rebuilt growing state is. Resetting it
    // makes bounded/strong searches wait for the replay to actually catch
    // up instead of serving a recovered shard's stale state as fresh.
    ch->service_ts = 0;
    return;
  }
}

void QueryNode::DemoteChannel(CollectionId collection, ShardId shard) {
  std::unique_lock lk(mu_);
  for (auto& ch : channels_) {
    if (ch->collection == collection && ch->shard == shard) {
      ch->primary = false;
    }
  }
  auto it = collections_.find(collection);
  if (it == collections_.end()) return;
  std::vector<SegmentId> drop;
  for (const auto& [seg, s] : it->second.growing_shard) {
    if (s == shard) drop.push_back(seg);
  }
  for (SegmentId seg : drop) {
    it->second.growing.erase(seg);
    it->second.growing_shard.erase(seg);
  }
}

void QueryNode::RemoveCollection(CollectionId collection) {
  std::unique_lock lk(mu_);
  std::erase_if(channels_, [&](const auto& ch) {
    return ch->collection == collection;
  });
  collections_.erase(collection);
}

void QueryNode::Run() {
  int64_t next_heartbeat_ms = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (ctx_.leases != nullptr && NowMs() >= next_heartbeat_ms) {
      // Renewal failures (dropped heartbeat failpoint, fenced epoch) are
      // deliberate no-ops: the watchdog decides liveness, not the worker.
      // The heartbeat carries this node's load snapshot — the free
      // transport for the coordinator/proxy's load-aware replica routing.
      (void)ctx_.leases->Renew(id_, lease_epoch_, LoadSnapshot());
      next_heartbeat_ms = NowMs() + ctx_.config.heartbeat_interval_ms;
    }
    bool idle = true;
    std::vector<std::shared_ptr<ChannelState>> channels;
    {
      std::shared_lock lk(mu_);
      channels = channels_;
    }
    for (const auto& ch : channels) {
      auto entries = ch->sub->TryPoll(ctx_.config.poll_batch);
      // Surface truncation gaps: deletes dropped below this cursor are
      // only recoverable via LoadSealedSegment's replay-from-floor, so a
      // silent skip here would hide real tombstone loss.
      const int64_t missed = ch->sub->missed();
      if (missed > ch->missed_seen) {
        MANU_LOG_WARN << "query node " << id_ << " channel "
                      << ch->sub->channel() << " lost "
                      << (missed - ch->missed_seen)
                      << " truncated WAL entries (cursor snapped to floor)";
        ch->missed_seen = missed;
      }
      if (entries.empty()) continue;
      idle = false;
      std::unique_lock lk(mu_);
      for (const auto& entry : entries) {
        HandleEntry(ch.get(), *entry);
      }
      lk.unlock();
      tick_cv_.notify_all();
    }
    if (idle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void QueryNode::HandleEntry(ChannelState* ch, const LogEntry& entry) {
  auto cit = collections_.find(ch->collection);
  if (cit == collections_.end()) return;  // Released concurrently.
  CollectionState& coll = cit->second;
  switch (entry.type) {
    case LogEntryType::kInsert: {
      if (!ch->primary) break;  // Followers consume deletes/ticks only.
      // A sealed twin already covers this data (late replay after load).
      if (coll.sealed.count(entry.segment) > 0) break;
      auto& growing = coll.growing[entry.segment];
      if (growing == nullptr) {
        growing = std::make_shared<GrowingSegment>(
            entry.segment, coll.schema.get(), ctx_.config.slice_rows);
        coll.growing_shard[entry.segment] = ch->shard;
      }
      Status st = growing->Append(entry.batch);
      if (!st.ok()) {
        MANU_LOG_ERROR << "query node " << id_ << " growing append: "
                       << st.ToString();
      }
      break;
    }
    case LogEntryType::kDelete: {
      for (int64_t pk : entry.delete_pks) {
        // Every tombstone is buffered with its own LSN: keeping only the
        // max would make a late-loaded segment show the pre-reinsert
        // version of a delete -> reinsert -> delete pk to reads between
        // the two deletes. Exact (pk, LSN) dedup keeps PromoteChannel's
        // from-the-start replay from growing the buffer.
        std::vector<Timestamp>& buffered = coll.deletes[pk];
        if (buffered.empty() || entry.timestamp > buffered.back()) {
          buffered.push_back(entry.timestamp);
          ++coll.deletes_count;
        } else if (!std::binary_search(buffered.begin(), buffered.end(),
                                       entry.timestamp)) {
          buffered.insert(std::lower_bound(buffered.begin(), buffered.end(),
                                           entry.timestamp),
                          entry.timestamp);
          ++coll.deletes_count;
        }
        for (auto& [_, seg] : coll.growing) seg->Delete(pk, entry.timestamp);
        for (auto& [_, seg] : coll.sealed) seg->Delete(pk, entry.timestamp);
      }
      MaybeCompactDeletesLocked(ch->collection, &coll);
      break;
    }
    case LogEntryType::kTimeTick:
    case LogEntryType::kFlush:
      break;  // Progress markers; service_ts update below covers them.
    default:
      break;
  }
  ch->service_ts = std::max(ch->service_ts, entry.timestamp);
}

Status QueryNode::LoadSealedSegment(
    const SegmentMeta& meta, std::shared_ptr<const CollectionSchema> schema,
    uint64_t handoff_seq) {
  MANU_FAILPOINT("query_node.load_segment");
  const RetryPolicy retry = MakeIoRetryPolicy(ctx_.config);
  // Load outside the lock (object-store IO), install under the lock.
  // Transient store faults are retried here so a blip during recovery or
  // rebalance does not abandon the segment.
  MANU_ASSIGN_OR_RETURN(
      EntityBatch rows,
      RetryResult(retry, "query_node.load_segment", [&] {
        return binlog::ReadSegment(ctx_.store, meta.binlog_path);
      }));
  auto segment = std::make_shared<SealedSegment>(meta.id, schema.get());
  MANU_RETURN_NOT_OK(segment->SetRows(rows));
  // Prefer the index node's persisted attribute-index artifact over
  // building the same FilterIndex locally; any load failure falls back to
  // the local build (the artifact is an acceleration, never a prerequisite).
  bool filter_loaded = false;
  if (!meta.filter_index_path.empty()) {
    auto load_filter = [&]() -> Status {
      MANU_ASSIGN_OR_RETURN(
          std::string framed,
          RetryResult(retry, "query_node.load_filter_index", [&] {
            return ctx_.store->Get(meta.filter_index_path);
          }));
      MANU_ASSIGN_OR_RETURN(std::string payload, binlog::Unframe(framed));
      BinaryReader r(payload);
      MANU_ASSIGN_OR_RETURN(FilterIndex filter_index,
                            FilterIndex::Deserialize(&r));
      return segment->SetFilterIndex(
          std::make_shared<const FilterIndex>(std::move(filter_index)));
    };
    Status st = load_filter();
    if (st.ok()) {
      filter_loaded = true;
      MetricsRegistry::Global().GetCounter("filter.index_loads")->Add(1);
    } else {
      MANU_LOG_WARN << "query node " << id_ << " filter index load failed ("
                    << st.ToString() << "), building it locally";
      MetricsRegistry::Global()
          .GetCounter("filter.index_load_failures")
          ->Add(1);
    }
  }
  if (!filter_loaded) MANU_RETURN_NOT_OK(segment->BuildScalarIndexes());
  for (const auto& [field, path] : meta.index_paths) {
    MANU_ASSIGN_OR_RETURN(std::string framed,
                          RetryResult(retry, "query_node.load_index",
                                      [&] { return ctx_.store->Get(path); }));
    MANU_ASSIGN_OR_RETURN(std::string payload, binlog::Unframe(framed));
    MANU_ASSIGN_OR_RETURN(std::unique_ptr<VectorIndex> index,
                          DeserializeVectorIndex(payload, ctx_.store));
    MANU_RETURN_NOT_OK(segment->SetIndex(field, std::move(index)));
  }

  std::unique_lock lk(mu_);
  CollectionState& coll = collections_[meta.collection];
  if (coll.schema == nullptr) coll.schema = schema;
  // Re-apply deletes consumed before this load (sealed binlog has inserts
  // only). Two sources cover the full history:
  //  1. Tombstones below the compaction floor live only in the WAL now —
  //     this node's channel subscriptions are already past them and never
  //     re-seek, so replay the segment's shard channel (deletes are routed
  //     by pk hash, so one shard's channel is complete for its segments)
  //     from the earliest retained offset up to the floor. Done under the
  //     unique lock so a concurrent compaction cannot advance the floor
  //     between the scan and the buffer replay; the scan is in-memory and
  //     this path is cold (handoff / recovery / rebalance).
  //  2. The buffer holds every tombstone at or above the floor.
  if (coll.deletes_floor_ts > 0) {
    const std::string channel =
        ShardChannelName(meta.collection, meta.shard);
    const int64_t end =
        ctx_.mq->FirstOffsetAtOrAfter(channel, coll.deletes_floor_ts);
    auto sub = ctx_.mq->SubscribeAt(channel, ctx_.mq->BeginOffset(channel));
    while (sub->position() < end) {
      auto entries = sub->TryPoll(static_cast<size_t>(
          std::min<int64_t>(ctx_.config.poll_batch, end - sub->position())));
      if (entries.empty()) break;
      for (const auto& e : entries) {
        if (e->type != LogEntryType::kDelete) continue;
        for (int64_t pk : e->delete_pks) segment->Delete(pk, e->timestamp);
      }
    }
  }
  for (const auto& [pk, ts_list] : coll.deletes) {
    for (Timestamp ts : ts_list) segment->Delete(pk, ts);
  }
  coll.sealed[meta.id] = std::move(segment);
  coll.sealed_meta[meta.id] = meta;
  // The growing twin is now redundant on *this* node.
  if (coll.growing.erase(meta.id) > 0 && handoff_seq > 0) {
    coll.handoff_seq[meta.id] = handoff_seq;
  }
  coll.growing_shard.erase(meta.id);
  MetricsRegistry::Global().GetCounter("query_node.segments_loaded")->Add(1);
  return Status::OK();
}

void QueryNode::DropGrowing(CollectionId collection, SegmentId segment) {
  std::unique_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it != collections_.end()) {
    it->second.growing.erase(segment);
    it->second.growing_shard.erase(segment);
  }
}

void QueryNode::ReleaseSegment(CollectionId collection, SegmentId segment) {
  std::unique_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it != collections_.end()) {
    it->second.sealed.erase(segment);
    it->second.sealed_meta.erase(segment);
    it->second.handoff_seq.erase(segment);
  }
}

void QueryNode::MaybeCompactDeletesLocked(CollectionId collection,
                                          CollectionState* coll) {
  const size_t floor_size = static_cast<size_t>(
      std::max<int64_t>(1, ctx_.config.delete_buffer_compact_min));
  if (coll->deletes_compact_at < floor_size) {
    coll->deletes_compact_at = floor_size;
  }
  if (coll->deletes_count < coll->deletes_compact_at) return;
  // Tombstones below the collection's min consumed tick have been applied
  // to every segment this node serves, so the buffer only needs the
  // in-flight suffix — which bounds it, and the linear replay on
  // LoadSealedSegment, by the delete rate within the consistency window
  // instead of by history. Segments handed to this node later (recovery /
  // rebalance, not covered by any channel re-seek) get the pruned prefix
  // backfilled from the retained WAL: LoadSealedSegment replays the shard
  // channel up to deletes_floor_ts recorded here.
  const Timestamp floor_ts = ServiceTsLocked(collection);
  size_t count = 0;
  for (auto it = coll->deletes.begin(); it != coll->deletes.end();) {
    std::vector<Timestamp>& ts_list = it->second;
    ts_list.erase(ts_list.begin(), std::lower_bound(ts_list.begin(),
                                                    ts_list.end(), floor_ts));
    if (ts_list.empty()) {
      it = coll->deletes.erase(it);
    } else {
      count += ts_list.size();
      ++it;
    }
  }
  coll->deletes_count = count;
  coll->deletes_floor_ts = std::max(coll->deletes_floor_ts, floor_ts);
  // Doubling schedule keeps the scan amortized O(1) per consumed delete.
  coll->deletes_compact_at = std::max(floor_size, coll->deletes_count * 2);
  MetricsRegistry::Global()
      .GetCounter("query_node.delete_buffer_compactions")
      ->Add(1);
}

Timestamp QueryNode::ServiceTsLocked(CollectionId collection) const {
  Timestamp min_ts = kMaxTimestamp;
  bool any = false;
  for (const auto& ch : channels_) {
    if (ch->collection != collection) continue;
    min_ts = std::min(min_ts, ch->service_ts);
    any = true;
  }
  return any ? min_ts : 0;
}

Timestamp QueryNode::ServiceTs(CollectionId collection) const {
  std::shared_lock lk(mu_);
  return ServiceTsLocked(collection);
}

bool QueryNode::WaitServiceTs(CollectionId collection, Timestamp ts,
                              int64_t max_ms) {
  std::shared_lock lk(mu_);
  tick_cv_.wait_for(lk, std::chrono::milliseconds(max_ms), [&] {
    return ServiceTsLocked(collection) >= ts ||
           stop_.load(std::memory_order_acquire);
  });
  // stop_ wakes the wait but is not progress: reporting success for a node
  // that stopped mid-wait would bless its stale snapshot as fresh enough.
  return ServiceTsLocked(collection) >= ts;
}

bool QueryNode::WaitConsistency(CollectionId collection, Timestamp read_ts,
                                int64_t staleness_ms) {
  if (staleness_ms < 0) return true;  // Eventual: never wait.
  if (staleness_ms == 0) {
    // tau=0 (strong): compare full hybrid timestamps. The millisecond
    // comparison below would let a time-tick from the same millisecond as
    // the inserts — published before them, so consumed first — open the
    // gate while the inserts are still in the channel, and the "strong"
    // search would miss acked rows.
    std::shared_lock lk(mu_);
    tick_cv_.wait_for(
        lk, std::chrono::milliseconds(ctx_.config.max_consistency_wait_ms),
        [&] {
          return ServiceTsLocked(collection) >= read_ts ||
                 stop_.load(std::memory_order_acquire);
        });
    return ServiceTsLocked(collection) >= read_ts;
  }
  const int64_t target_ms =
      static_cast<int64_t>(PhysicalMs(read_ts)) - staleness_ms;
  std::shared_lock lk(mu_);
  // Lr - Ls < tau  <=>  physical(Ls) > physical(Lr) - tau.
  tick_cv_.wait_for(
      lk, std::chrono::milliseconds(ctx_.config.max_consistency_wait_ms),
      [&] {
        return static_cast<int64_t>(
                   PhysicalMs(ServiceTsLocked(collection))) >= target_ms ||
               stop_.load(std::memory_order_acquire);
      });
  // Re-evaluate the real freshness condition: stop_ wakes the wait so a
  // dying node does not burn the full bound, but it must not turn an
  // unsatisfied gate into success (SearchInternal separately refuses
  // stopped nodes even when the gate holds).
  return static_cast<int64_t>(PhysicalMs(ServiceTsLocked(collection))) >=
         target_ms;
}

Result<std::vector<SegmentHit>> QueryNode::SearchInternal(
    const NodeSearchRequest& req) {
  Span span(req.trace, "query_node.search");
  span.Tag("node", static_cast<int64_t>(id_));
  if (stop_.load(std::memory_order_acquire)) {
    // A crashed (killed) node refuses searches instead of serving whatever
    // stale state its last pump iteration left behind.
    span.Tag("error", "node stopped");
    return Status::Unavailable("query node " + std::to_string(id_) +
                               " is stopped");
  }
  // Re-check the deadline after the queue wait: an admitted request can
  // expire while queued behind the pool, and scanning for a proxy that
  // already gave up only steals capacity from live requests.
  if (req.deadline_us > 0 && NowMicros() > req.deadline_us) {
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Global().GetCounter("query_node.deadline_rejects")->Add();
    span.Tag("error", "deadline passed in queue");
    return Status::Timeout("query node " + std::to_string(id_) +
                           ": deadline passed while queued");
  }
  // Delay policies model a slow node (misses the proxy deadline), error
  // policies a failing one; both are how the chaos test forces coverage<1.
  MANU_FAILPOINT("query_node.search_segment");
  auto* wait_hist =
      MetricsRegistry::Global().GetHistogram("query_node.consistency_wait");
  {
    const int64_t t0 = NowMicros();
    Span wait_span(span.context(), "query_node.wait_consistency");
    const bool fresh =
        WaitConsistency(req.collection, req.read_ts, req.staleness_ms);
    // Re-check stop_ after the wait: stopping satisfies the wait predicate,
    // and a node killed mid-wait must refuse instead of serving whatever
    // snapshot its last pump iteration left behind.
    if (stop_.load(std::memory_order_acquire)) {
      span.Tag("error", "node stopped during wait");
      return Status::Unavailable("query node " + std::to_string(id_) +
                                 " stopped during consistency wait");
    }
    if (!fresh) {
      wait_span.Tag("fresh", "false");
      span.Tag("error", "consistency wait exceeded bound");
      return Status::Timeout("consistency wait exceeded bound");
    }
    wait_hist->Observe(static_cast<double>(NowMicros() - t0));
  }

  // The shared lock is held for the whole search phase: the WAL pump
  // mutates segments only under the unique lock, so readers see a
  // consistent snapshot without per-segment synchronization.
  std::shared_lock lk(mu_);
  std::vector<std::shared_ptr<GrowingSegment>> growing;
  std::vector<std::shared_ptr<SealedSegment>> sealed;
  int64_t tombstones = 0;
  {
    auto it = collections_.find(req.collection);
    if (it == collections_.end()) {
      span.Tag("error", "collection not served");
      return Status::NotFound("collection not served by node " +
                              std::to_string(id_));
    }
    for (const auto& [seg_id, seg] : it->second.growing) {
      if (it->second.sealed.count(seg_id) > 0) continue;  // Sealed twin wins.
      growing.push_back(seg);
    }
    // A routing plan narrows the sealed scan to this node's assigned share
    // (replica routing: one load-chosen owner per segment); an empty filter
    // keeps the scan-everything behavior for direct callers. A segment
    // handed off here after the plan was taken is scanned too: the plan
    // counted on its growing twin, which the handoff retired.
    const bool planned = !req.sealed_filter.empty();
    const auto& handed_off = it->second.handoff_seq;
    for (const auto& [seg_id, seg] : it->second.sealed) {
      if (planned && !std::binary_search(req.sealed_filter.begin(),
                                         req.sealed_filter.end(), seg_id)) {
        auto h = handed_off.find(seg_id);
        if (h == handed_off.end() || h->second <= req.plan_handoff_seq) {
          continue;
        }
      }
      sealed.push_back(seg);
    }
    tombstones = static_cast<int64_t>(it->second.deletes_count);
  }

  if (req.targets.empty()) {
    span.Tag("error", "no search targets");
    return Status::InvalidArgument("no search targets");
  }

  const int64_t t0 = NowMicros();
  const int64_t num_sealed = static_cast<int64_t>(sealed.size());
  const int64_t num_segments =
      num_sealed + static_cast<int64_t>(growing.size());
  // Fixed slot per segment: results land at their segment's index no
  // matter which thread finishes first, so the reduce input — and with the
  // order-independent MergeTopK, the final top-k — is byte-identical to
  // the serial scan.
  std::vector<std::vector<Neighbor>> per_segment(num_segments);
  std::vector<Status> statuses(num_segments);
  std::vector<FilterPlan> plans(num_segments);
  span.Tag("segments", num_segments);
  span.Tag("tombstones", tombstones);

  // Single-vector per-segment top-k.
  auto single_search = [&](int64_t i) -> Status {
    const SearchTarget& target = req.targets[0];
    SegmentSearchRequest sreq;
    sreq.field = target.field;
    sreq.query = target.query;
    sreq.params = req.params;
    sreq.read_ts = req.read_ts;
    sreq.filter = req.filter;
    sreq.plan_out = &plans[i];
    auto hits = i < num_sealed ? sealed[i]->Search(sreq)
                               : growing[i - num_sealed]->Search(sreq);
    if (!hits.ok()) return hits.status();
    std::vector<Neighbor> list;
    list.reserve(hits.value().size());
    for (const auto& h : hits.value()) list.push_back({h.pk, h.score});
    per_segment[i] = std::move(list);
    return Status::OK();
  };

  // Multi-vector search, "vector fusion" strategy: per-field searches
  // gather candidates, exact weighted re-ranking scores them (the
  // decomposable-similarity strategy; Section 3.6).
  auto multi_search = [&](int64_t i) -> Status {
    const size_t cand_k = req.params.k * 2 + 16;
    const SegmentCore& core = i < num_sealed
                                  ? sealed[i]->core()
                                  : growing[i - num_sealed]->core();
    std::unordered_set<int64_t> candidates;
    for (const SearchTarget& target : req.targets) {
      SegmentSearchRequest sreq;
      sreq.field = target.field;
      sreq.query = target.query;
      sreq.params = req.params;
      sreq.params.k = cand_k;
      sreq.read_ts = req.read_ts;
      sreq.filter = req.filter;
      sreq.plan_out = &plans[i];
      auto hits = i < num_sealed ? sealed[i]->Search(sreq)
                                 : growing[i - num_sealed]->Search(sreq);
      if (!hits.ok()) return hits.status();
      for (const auto& h : hits.value()) candidates.insert(h.pk);
    }
    std::vector<Neighbor> list;
    for (int64_t pk : candidates) {
      float combined = 0;
      bool ok = true;
      for (const SearchTarget& target : req.targets) {
        auto score =
            core.ScoreByPk(pk, target.field, target.query, req.read_ts);
        if (!score.ok()) {
          ok = false;
          break;
        }
        combined += target.weight * score.value();
      }
      if (ok) list.push_back({pk, combined});
    }
    std::sort(list.begin(), list.end());
    if (list.size() > req.params.k) list.resize(req.params.k);
    per_segment[i] = std::move(list);
    return Status::OK();
  };

  // Per-segment scan spans record on worker threads; safe because
  // ParallelFor completes before SearchInternal (and thus the parent span)
  // returns, and Trace::Record is thread-safe.
  const TraceContext scan_ctx = span.context();
  auto search_one = [&](int64_t i) {
    // A straggler whose proxy already gave up stops fanning out work.
    if (req.deadline_us > 0 && NowMicros() > req.deadline_us) {
      statuses[i] = Status::Timeout("proxy deadline passed, segment skipped");
      return;
    }
    Span seg_span(scan_ctx, "segment.scan");
    if (seg_span.active()) {
      seg_span.Tag("segment", static_cast<int64_t>(
                                  i < num_sealed
                                      ? sealed[i]->id()
                                      : growing[i - num_sealed]->id()));
      seg_span.Tag("kind", i < num_sealed ? "sealed" : "growing");
    }
    statuses[i] =
        req.targets.size() == 1 ? single_search(i) : multi_search(i);
    if (req.filter != nullptr && statuses[i].ok()) {
      // The planner's per-segment verdict: tagged on the scan span and
      // counted under the filter.* metrics family.
      const FilterPlan& plan = plans[i];
      if (seg_span.active()) {
        seg_span.Tag("filter.strategy", FilterStrategyName(plan.strategy));
        seg_span.Tag("filter.selectivity", plan.selectivity);
      }
      MetricsRegistry::Global().GetCounter("filter.plans")->Add(1);
      MetricsRegistry::Global()
          .GetCounter("filter.strategy",
                      {{"strategy", FilterStrategyName(plan.strategy)}})
          ->Add(1);
      MetricsRegistry::Global()
          .GetHistogram("filter.selectivity")
          ->Observe(plan.selectivity);
    }
    if (seg_span.active()) {
      seg_span.Tag("hits", static_cast<int64_t>(per_segment[i].size()));
      if (!statuses[i].ok()) seg_span.Tag("error", statuses[i].ToString());
    }
  };

  // Intra-query fan-out (Section 6.4 / Fig. 8): per-segment searches run
  // across the node's executor. SearchInternal itself occupies an executor
  // slot, so this relies on ParallelFor's caller-runs claim loop — the
  // nested dispatch cannot deadlock even at query_threads=1. Worker
  // threads read the segment snapshot while this thread keeps holding the
  // shared lock for the whole fan-out (ParallelFor returns only after
  // every chunk completed), which is what keeps the WAL pump (unique
  // lock) from mutating segments mid-search.
  ThreadPool* fanout =
      ctx_.config.parallel_search ? executor_.get() : nullptr;
  ParallelFor(fanout, num_segments, search_one);
  for (Status& st : statuses) {
    if (!st.ok()) {
      span.Tag("error", st.ToString());
      return std::move(st);
    }
  }

  // Node-level reduce (phase one of the two-phase reduce).
  std::vector<Neighbor> merged = MergeTopK(per_segment, req.params.k,
                                           /*dedup_ids=*/true);
  // Calibrated service-time model (see ManuConfig::sim_segment_search_us):
  // pad real compute up to the service target. With the fan-out on, a node
  // with p executor threads clears one segment per thread per wave; the
  // target is the modeled critical path — the ceil(segments / p) segments
  // the busiest worker scans — so intra-query speedup is visible under the
  // simulation too (the perf smoke test relies on this on single-core
  // hosts).
  if (ctx_.config.sim_segment_search_us > 0 && num_segments > 0) {
    const int64_t p =
        fanout == nullptr
            ? 1
            : std::max<int64_t>(
                  1, static_cast<int64_t>(fanout->num_threads()));
    const int64_t critical = (num_segments + p - 1) / p;
    const int64_t target = ctx_.config.sim_segment_search_us * critical;
    const int64_t elapsed = NowMicros() - t0;
    if (elapsed < target) {
      lk.unlock();  // Don't block the WAL pump while sleeping.
      std::this_thread::sleep_for(
          std::chrono::microseconds(target - elapsed));
    }
  }
  MetricsRegistry::Global()
      .GetHistogram("query_node.search_latency")
      ->Observe(static_cast<double>(NowMicros() - t0));

  span.Tag("hits", static_cast<int64_t>(merged.size()));
  std::vector<SegmentHit> out;
  out.reserve(merged.size());
  for (const Neighbor& n : merged) out.push_back({n.id, n.score});
  return out;
}

std::vector<SegmentId> QueryNode::SealedSegments(
    CollectionId collection) const {
  std::shared_lock lk(mu_);
  std::vector<SegmentId> out;
  auto it = collections_.find(collection);
  if (it == collections_.end()) return out;
  for (const auto& [seg_id, _] : it->second.sealed) out.push_back(seg_id);
  return out;
}

Result<SegmentMeta> QueryNode::SealedMeta(CollectionId collection,
                                          SegmentId segment) const {
  std::shared_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) return Status::NotFound("collection");
  auto sit = it->second.sealed_meta.find(segment);
  if (sit == it->second.sealed_meta.end()) {
    return Status::NotFound("segment meta");
  }
  return sit->second;
}

std::vector<int64_t> QueryNode::DeletedPks(CollectionId collection) const {
  std::shared_lock lk(mu_);
  std::vector<int64_t> out;
  auto it = collections_.find(collection);
  if (it == collections_.end()) return out;
  out.reserve(it->second.deletes.size());
  for (const auto& [pk, _] : it->second.deletes) out.push_back(pk);
  return out;
}

int64_t QueryNode::NumGrowingRows(CollectionId collection) const {
  std::shared_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) return 0;
  int64_t rows = 0;
  for (const auto& [_, seg] : it->second.growing) rows += seg->NumRows();
  return rows;
}

int64_t QueryNode::NumServingSegments(CollectionId collection) const {
  std::shared_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) return 0;
  int64_t n = static_cast<int64_t>(it->second.sealed.size());
  for (const auto& [seg_id, _] : it->second.growing) {
    if (it->second.sealed.count(seg_id) == 0) ++n;  // Sealed twin wins.
  }
  return n;
}

int64_t QueryNode::NumGrowingOnlySegments(CollectionId collection) const {
  std::shared_lock lk(mu_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) return 0;
  int64_t n = 0;
  for (const auto& [seg_id, _] : it->second.growing) {
    if (it->second.sealed.count(seg_id) == 0) ++n;  // Sealed twin wins.
  }
  return n;
}

NodeLoad QueryNode::LoadSnapshot() const {
  NodeLoad load;
  load.inflight = outstanding_.load(std::memory_order_relaxed);
  load.queue_depth = std::max<int64_t>(
      0, load.inflight - executing_.load(std::memory_order_relaxed));
  load.ewma_latency_us = ewma_latency_us_.load(std::memory_order_relaxed);
  load.deadline_rejects = deadline_rejects_.load(std::memory_order_relaxed);
  load.overload_rejects = overload_rejects_.load(std::memory_order_relaxed);
  return load;
}

uint64_t QueryNode::MemoryBytes() const {
  std::shared_lock lk(mu_);
  uint64_t bytes = 0;
  for (const auto& [_, coll] : collections_) {
    for (const auto& [__, seg] : coll.growing) bytes += seg->ByteSize();
    for (const auto& [__, seg] : coll.sealed) bytes += seg->MemoryBytes();
  }
  return bytes;
}

}  // namespace manu
