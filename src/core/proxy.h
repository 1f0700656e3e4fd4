#ifndef MANU_CORE_PROXY_H_
#define MANU_CORE_PROXY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/admission.h"
#include "core/context.h"
#include "core/expr.h"
#include "core/logger.h"
#include "core/query_coord.h"
#include "core/root_coord.h"

namespace manu {

/// Client-facing search request (the PyManu `Collection.search` /
/// `Collection.query` surface, Table 2).
struct SearchRequest {
  std::string collection;
  /// Vector field to search; empty = the collection's first vector field.
  std::string field;
  std::vector<float> query;

  /// Multi-vector search: when non-empty, `field`/`query` are ignored and
  /// the entity score is sum(weight_i * canonical_score_i).
  struct MultiTarget {
    std::string field;
    std::vector<float> query;
    float weight = 1.0f;
  };
  std::vector<MultiTarget> multi;

  size_t k = 10;
  int32_t nprobe = 16;
  int32_t ef_search = 64;

  /// Boolean filter over scalar fields, e.g. "price > 0 && label == 'book'".
  std::string filter;

  ConsistencyLevel consistency = ConsistencyLevel::kBounded;
  /// Staleness tolerance tau in ms for kBounded; <0 uses the instance
  /// default.
  int64_t staleness_ms = -1;

  // --- Multi-tenant admission (core/admission.h) ---
  /// Tenant for per-tenant token-bucket admission; empty = the default
  /// tenant (all anonymous traffic shares one bucket).
  std::string tenant;
  /// Scheduling class: 0 = normal, > 0 = low priority. Brownout stage 2
  /// sheds priority > 0 requests first (with a retry-after hint) while
  /// normal-priority traffic still serves degraded.
  int32_t priority = 0;

  /// Time travel: non-zero = search the collection as of this timestamp.
  Timestamp travel_ts = 0;

  // --- Graceful degradation ---
  /// When true, a failed or deadline-missing query node degrades the search
  /// to a partial result (SearchResult::coverage < 1) instead of failing
  /// it. Off by default: a complete answer or an error.
  bool allow_partial = false;
  /// Per-node wait bound in ms for this search's fan-out; <= 0 uses the
  /// instance default (ManuConfig::node_search_deadline_ms).
  int64_t node_deadline_ms = 0;
};

struct SearchResult {
  std::vector<int64_t> ids;
  std::vector<float> scores;  ///< Canonical scores, best first.
  /// Fraction of the collection's serving segments reflected in the top-k
  /// (weighted by per-node segment counts). 1.0 unless allow_partial
  /// dropped a failed/slow node.
  double coverage = 1.0;
};

/// Stateless access-layer proxy (Section 3.2): verifies requests against
/// cached metadata (rejecting bad requests before they cost anything
/// downstream), assigns the query timestamp, fans out to the query nodes
/// holding the collection's segments, and runs the final phase of the
/// two-phase top-k reduce (with pk dedup, since rebalancing may briefly
/// duplicate a segment).
class Proxy {
 public:
  Proxy(const CoreContext& ctx, RootCoordinator* root_coord,
        QueryCoordinator* query_coord, LoggerFleet* loggers);

  /// One search: BatchSearch's path for a batch of one request.
  Result<SearchResult> Search(const SearchRequest& req);

  /// Batched search (Section 3.6: "requests of the same type are organized
  /// into one batch and handled together"): requests sharing a collection
  /// share one query timestamp, one routing plan and one dispatch round to
  /// the query nodes. Returns one result per request, in order; per-request
  /// failures don't fail the batch.
  std::vector<Result<SearchResult>> BatchSearch(
      const std::vector<SearchRequest>& reqs);

  /// Write path: validates and forwards to the logger fleet. Returns the
  /// operation's LSN (its visibility point). On logger backpressure
  /// (kResourceExhausted) the proxy — and ONLY the proxy — may re-attempt
  /// up to admission_write_retry_attempts times, sleeping the response's
  /// retry-after hint plus deterministic jitter first.
  Result<Timestamp> Insert(const std::string& collection, EntityBatch batch);
  Result<Timestamp> Delete(const std::string& collection,
                           const std::vector<int64_t>& pks);

  /// Overload front door state (DescribeCluster, tests).
  const AdmissionController& admission() const { return admission_; }

 private:
  /// Validated request, ready for fan-out. Owns the parsed filter AND the
  /// query vectors the NodeSearchRequest points into: the proxy may abandon
  /// a node's future and return (deadline, strict failure), so everything a
  /// node task dereferences must be owned here (the task holds a
  /// shared_ptr), not borrowed from the caller's SearchRequest.
  struct Prepared {
    CollectionMeta meta;
    NodeSearchRequest nreq;
    std::unique_ptr<FilterExpr> filter;
    std::vector<std::vector<float>> owned_queries;
  };

  /// An admitted, prepared request as the fan-out sees it.
  struct Pending {
    std::shared_ptr<const Prepared> prep;
    /// The request's own allow_partial, or forced on by brownout degrade.
    bool allow_partial = false;
    /// Per-node wait bound in ms; <= 0 waits indefinitely.
    int64_t deadline_ms = 0;
  };

  /// Runs verification + consistency setup; read_ts is left for the caller
  /// (the whole batch shares one).
  Result<Prepared> Prepare(const SearchRequest& req);

  /// The shared body of Search and BatchSearch: per-request admission (its
  /// decision tagged on `root` when it is the only request), degrade and
  /// Prepare, then per collection one read fence when a request is strong
  /// (TimeTickEmitter::Fence) and one FanOut, re-run for the requests that
  /// failed transiently up to search_retry_attempts times.
  std::vector<Result<SearchResult>> Serve(std::span<const SearchRequest> reqs,
                                         Span* root);

  /// One fan-out attempt for requests of one collection (indices into
  /// `pending`/`results`): plans via the coordinator's current snapshot,
  /// refuses strict requests while segments are unroutable, dispatches
  /// each request to every routed node, waits with the group deadline and
  /// reduces per request into `results`. Node spans parent to `parent`
  /// (the root span on the first attempt, a proxy.retry span after), so a
  /// retried search renders with its attempts as siblings.
  void FanOut(const std::vector<Pending>& pending,
              const std::vector<size_t>& group, Span* parent,
              std::vector<Result<SearchResult>>* results);

  static SearchResult ToResult(std::vector<Neighbor> merged);

  /// Tags the admission decision on `span` (may be null) and records the
  /// admission.*/shed.* metrics.
  void RecordAdmission(Span* span, const AdmitDecision& decision);
  /// Per-node deadline for a degraded (brownout stage >= 1) request:
  /// the effective deadline scaled by kDegradedDeadlineFactor, or
  /// shed_degraded_deadline_ms when the request was unbounded.
  int64_t DegradedDeadlineMs(int64_t request_deadline_ms) const;
  static constexpr double kDegradedDeadlineFactor = 0.5;
  /// Shared Insert/Delete backpressure loop: runs `attempt_fn`, honoring a
  /// kResourceExhausted retry-after hint (plus deterministic jitter) up to
  /// admission_write_retry_attempts extra attempts. `last` tells the
  /// callback it may move its payload.
  Result<Timestamp> WriteWithBackpressure(
      Span* root, const std::function<Result<Timestamp>(bool last)>& attempt);

  CoreContext ctx_;
  RootCoordinator* root_coord_;
  QueryCoordinator* query_coord_;
  LoggerFleet* loggers_;
  AdmissionController admission_;  ///< Overload front door.
};

}  // namespace manu

#endif  // MANU_CORE_PROXY_H_
