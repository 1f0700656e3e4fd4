#ifndef MANU_CORE_CONFIG_H_
#define MANU_CORE_CONFIG_H_

#include <cstdint>

#include "common/retry.h"
#include "common/types.h"

namespace manu {

/// System-wide configuration of a ManuInstance. Defaults mirror the paper
/// where it states one (512 MB seal threshold, 10 s idle seal, 10k-row
/// slices, two query nodes / one data node / one index node); tests and
/// benches shrink the thresholds so segment life cycles happen at laptop
/// scale.
struct ManuConfig {
  // --- Sharding / segments (Section 3.1) ---
  int32_t num_shards = 2;           ///< WAL channels per collection.
  uint64_t segment_seal_bytes = kDefaultSegmentSealBytes;
  int64_t segment_seal_rows = 0;    ///< 0 = no row-count trigger.
  int64_t segment_idle_seal_ms = 10000;
  int64_t slice_rows = kDefaultSliceRows;

  // --- Log backbone (Sections 3.3 / 3.4) ---
  int64_t time_tick_interval_ms = 50;
  /// Default staleness tolerance tau in ms when a query does not override it
  /// (kBounded). kStrong -> 0, kEventually -> +inf.
  int64_t default_staleness_ms = 1000;

  /// Hot replicas per sealed segment (Section 3.6: "maintaining multiple
  /// hot replicas of a collection to serve queries for availability and
  /// throughput"). Each sealed segment is loaded on min(replica_factor,
  /// #nodes) query nodes; proxies dedup by pk, and a node failure leaves
  /// the collection fully served.
  int32_t replica_factor = 1;

  // --- Worker fleet (Section 5.2 defaults) ---
  int32_t num_query_nodes = 2;
  int32_t num_index_nodes = 1;
  int32_t num_data_nodes = 1;
  int32_t num_loggers = 1;
  int32_t index_build_threads = 2;   ///< Per index node.
  int32_t query_threads = 4;         ///< Per query node (intra-query).
  /// Intra-query parallelism (Section 6.4): a search fans its per-segment
  /// top-k computations across the node's query_threads pool and reduces
  /// node-locally. Off = the pre-fan-out serial scan (debug / A-B knob).
  bool parallel_search = true;

  // --- WAL group commit (BtrLog recipe) ---
  // Every publish goes through group commit: concurrently staged publishes
  // on a channel share one flush and one collective ack (publishers block
  // on a commit ticket; the flush leader installs the whole group
  // atomically). bench_ingest measures it against groups of one.
  /// Max entries per commit group.
  int64_t wal_group_max_entries = 256;
  /// Flush-leader linger (us) waiting for a group to fill before flushing
  /// what's staged. 0 = flush immediately.
  int64_t wal_flush_linger_us = 0;
  /// Simulated per-flush device latency (us) — the fsync/replication RTT a
  /// real broker pays once per group. Makes the batching win measurable;
  /// 0 = off.
  int64_t wal_sim_flush_latency_us = 0;

  // --- Node main-loop cadence ---
  int64_t poll_batch = 256;          ///< Max WAL entries per poll.
  int64_t poll_timeout_ms = 20;

  // --- Deletion / compaction (Section 3.5) ---
  /// Rebuild (compact) a sealed segment once this fraction of its rows is
  /// tombstoned.
  double compact_deleted_ratio = 0.3;
  /// Merge sealed segments smaller than this fraction of seal size.
  double small_segment_ratio = 0.25;
  /// Query-node delete-tombstone buffer: once the per-collection buffer
  /// holds at least this many tombstones, entries whose delete LSN is below
  /// the collection's min channel service_ts are compacted away (every
  /// loaded segment has already absorbed them; segments handed off later
  /// get the pruned prefix backfilled from the retained WAL in
  /// LoadSealedSegment). Tests shrink it to force compaction; the floor
  /// keeps the common case allocation-free.
  int64_t delete_buffer_compact_min = 1024;

  // --- Consistency wait bound (avoid unbounded stalls if ticks stop) ---
  int64_t max_consistency_wait_ms = 5000;

  // --- Liveness: heartbeat leases + watchdog (Section 3.6) ---
  /// Lease TTL: a worker whose lease is not renewed within this window is
  /// declared dead by the watchdog and failed over. Defaults are generous
  /// (6x the heartbeat interval, plus sanitizer headroom) so loaded CI
  /// machines never see spurious failovers; chaos tests shrink them.
  int64_t lease_ttl_ms = 3000;
  /// Workers renew their lease at this cadence (piggybacked on the node
  /// pump loops).
  int64_t heartbeat_interval_ms = 250;
  /// How often the ManuInstance background loop scans for expired leases.
  int64_t watchdog_interval_ms = 250;

  // --- Robustness (common/retry.h, common/failpoint.h) ---
  /// Retry budget for object-store / meta / binlog I/O on worker nodes.
  int32_t io_retry_attempts = 4;
  int64_t io_retry_base_backoff_us = 200;
  int64_t io_retry_max_backoff_us = 20000;
  /// Proxy-side wait bound per query node during search fan-out, in ms;
  /// <= 0 waits indefinitely. With SearchRequest::allow_partial, a node
  /// missing this deadline is dropped from the result (coverage < 1)
  /// instead of failing the query.
  int64_t node_search_deadline_ms = -1;

  /// Proxy-level search retries on transient fan-out failure (Unavailable /
  /// Timeout). Each retry re-fetches the routing snapshot, so a search that
  /// raced a node crash re-dispatches to the failover survivor instead of
  /// failing. 0 (default) = single attempt, the pre-retry behavior.
  int32_t search_retry_attempts = 0;

  // --- Overload control (core/admission.h; ROADMAP item 3) ---
  // All knobs default to 0 = off/unlimited: the front door is a pure
  // pass-through until a deployment opts in. Chaos tests and
  // bench_overload arm it.
  /// Global ceiling on concurrently admitted proxy requests; at the
  /// ceiling new requests are shed with kResourceExhausted + retry-after
  /// instead of queueing. 0 = unlimited.
  int64_t admission_max_inflight = 0;
  /// Per-tenant token-bucket rate (requests/sec). 0 = no per-tenant limit.
  double admission_tenant_qps = 0;
  /// Per-tenant bucket depth (burst allowance); <= 0 derives
  /// max(1, admission_tenant_qps).
  double admission_tenant_burst = 0;
  /// How many times Proxy::Insert/Delete re-attempts after write-path
  /// backpressure (kResourceExhausted), sleeping the retry-after hint plus
  /// jitter between attempts. This is the ONLY place the hint is honored;
  /// RetryPolicy never retries kResourceExhausted. 0 = surface immediately.
  int32_t admission_write_retry_attempts = 0;
  /// Per-query-node cap on outstanding (queued + executing) searches; at
  /// the cap a node refuses new work with kResourceExhausted so the proxy
  /// degrades/sheds instead of the node queueing unboundedly. 0 = unlimited.
  int64_t admission_node_inflight = 0;

  /// Brownout ladder thresholds on smoothed pressure in [0,1] (max of
  /// proxy inflight ratio and worst query-node queue ratio). Stages engage
  /// at the threshold and release below ~0.85x of it (hysteresis).
  /// Stage 1: force allow_partial + tighten per-node deadlines.
  double shed_degrade_pressure = 0.65;
  /// Stage 2: shed priority > 0 (low-priority) requests with retry-after.
  double shed_low_priority_pressure = 0.80;
  /// Stage 3: reject all requests.
  double shed_reject_pressure = 0.95;
  /// Default backoff guidance attached to shed/reject responses, in ms.
  int64_t shed_retry_after_ms = 50;
  /// Degraded per-node deadline when node_search_deadline_ms <= 0
  /// (unbounded): brownout must still bound per-node wait, in ms.
  int64_t shed_degraded_deadline_ms = 250;

  /// Write-path backpressure: max concurrently in-flight Append/Delete
  /// calls per logger ahead of the WAL commit point. At the limit ingest
  /// returns kResourceExhausted + retry-after BEFORE any side effect (no
  /// publish => no ack is preserved). 0 = unlimited.
  int64_t logger_inflight_limit = 0;

  // --- Replica placement (core/placement.h; ROADMAP item 3) ---
  // Defaults-off posture: with the interval at 0 the placement table is
  // still maintained (PlanFor routes off it, drains use it), but nothing
  // repairs in the background — redundancy behaves like the pre-reconciler
  // tree except that repairs can be invoked manually (Rebalance /
  // ReconcileOnce). Chaos tests and the diurnal drill arm the loop.
  /// Background reconcile cadence: diff desired vs. actual replica groups
  /// and issue repairs every this many ms. 0 (default) = no background
  /// reconciler.
  int64_t placement_reconcile_interval_ms = 0;
  /// Max concurrent repair loads per reconcile/drain pass (bounds the
  /// object-store and target-node load of a repair storm).
  int32_t placement_repair_concurrency = 2;
  /// Max repair ops issued per reconcile pass; 0 = unbounded. Zero-replica
  /// (coverage) repairs are always planned first.
  int32_t placement_max_repairs_per_cycle = 64;
  /// Upper bound on one drain's survivor-load phase, in ms; 0 = unbounded.
  /// On timeout the victim keeps serving whatever was not yet moved (no
  /// coverage dip) and the drain reports Unavailable.
  int64_t placement_drain_timeout_ms = 0;

  // --- Filtered search (index/filter_index.h, core/filter_planner.h) ---
  // See DESIGN.md Section 14. The filter planner always plans by cost; its
  // thresholds are constants in core/filter_planner.h.
  /// Index nodes build + persist a per-segment attribute-index artifact
  /// (FilterIndex) beside the vector index; query nodes load it on
  /// LoadSealedSegment instead of building the same FilterIndex locally.
  /// Off (default) = every query node builds it.
  bool filter_index_enable = false;

  // --- Observability (common/trace.h) ---
  /// Retain every Nth request trace in the in-memory collector; <= 0
  /// disables sampling retention (slow queries are still captured).
  int64_t trace_sample_every = 64;
  /// Requests slower than this are force-retained in the slow-query log
  /// regardless of sampling; <= 0 disables the slow-query log.
  int64_t slow_query_trace_ms = 500;

  // --- Scaling-simulation knob ---
  /// When > 0, each query-node search takes at least
  /// `sim_segment_search_us * segments_searched` microseconds (the node
  /// sleeps off any remainder after real compute). This models each node
  /// owning its own machine: on a single-core host, real compute cannot
  /// parallelize across simulated nodes, but calibrated service times can,
  /// so throughput-vs-nodes experiments (Figures 9-11) measure the
  /// architecture (segment distribution, queueing) rather than host core
  /// count. 0 (default) disables the model; searches take their real time.
  int64_t sim_segment_search_us = 0;
};

/// The RetryPolicy worker nodes use for their shared-storage I/O.
inline RetryPolicy MakeIoRetryPolicy(const ManuConfig& config) {
  RetryPolicy policy;
  policy.max_attempts = config.io_retry_attempts;
  policy.base_backoff_us = config.io_retry_base_backoff_us;
  policy.max_backoff_us = config.io_retry_max_backoff_us;
  return policy;
}

}  // namespace manu

#endif  // MANU_CORE_CONFIG_H_
