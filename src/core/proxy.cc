#include "core/proxy.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>

#include "common/metrics.h"

namespace manu {

Proxy::Proxy(const CoreContext& ctx, RootCoordinator* root_coord,
             QueryCoordinator* query_coord, LoggerFleet* loggers)
    : ctx_(ctx),
      root_coord_(root_coord),
      query_coord_(query_coord),
      loggers_(loggers),
      admission_(ctx.config) {
  // Brownout pressure = the worst query-node inflight ratio: the fleet's
  // queues are the paper's "degrade before you fall over" signal. Zero
  // when node caps are off (the inflight-ratio term in the controller
  // still applies).
  admission_.SetPressureProbe([this]() -> double {
    const int64_t cap = ctx_.config.admission_node_inflight;
    if (cap <= 0) return 0.0;
    double worst = 0.0;
    for (const auto& node : query_coord_->Nodes()) {
      worst = std::max(worst,
                       static_cast<double>(node->LoadSnapshot().inflight) /
                           static_cast<double>(cap));
    }
    return worst;
  });
}

void Proxy::RecordAdmission(Span* span, const AdmitDecision& decision) {
  if (span != nullptr) {
    span->Tag("admission", decision.reason);
    if (decision.stage > 0) {
      span->Tag("admission_stage", static_cast<int64_t>(decision.stage));
    }
  }
  auto& metrics = MetricsRegistry::Global();
  if (decision.admitted()) {
    metrics.GetCounter("admission.admitted")->Add();
    if (decision.action == AdmitAction::kDegrade) {
      metrics.GetCounter("admission.degraded")->Add();
    }
  } else {
    metrics.GetCounter("admission.rejected")->Add();
    metrics.GetCounter("shed.requests", {{"reason", decision.reason}})->Add();
  }
  metrics.GetGauge("admission.inflight")->Set(admission_.inflight());
  metrics.GetGauge("admission.pressure_bp")
      ->Set(static_cast<int64_t>(admission_.pressure() * 10000.0));
}

int64_t Proxy::DegradedDeadlineMs(int64_t request_deadline_ms) const {
  const int64_t base = request_deadline_ms > 0
                           ? request_deadline_ms
                           : ctx_.config.node_search_deadline_ms;
  if (base <= 0) {
    // Brownout must bound per-node waits even when the request didn't.
    return std::max<int64_t>(1, ctx_.config.shed_degraded_deadline_ms);
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(base) *
                              kDegradedDeadlineFactor));
}

Result<Proxy::Prepared> Proxy::Prepare(const SearchRequest& req) {
  Prepared out;
  // --- Request verification against cached metadata (cheap, early). ---
  MANU_ASSIGN_OR_RETURN(out.meta, root_coord_->GetCollection(req.collection));
  // Query vectors are copied into Prepared (moving a vector keeps its heap
  // buffer, so the target pointers survive moves of Prepared itself).
  std::vector<SearchTarget> targets;
  if (req.multi.empty()) {
    const FieldSchema* field =
        req.field.empty()
            ? (out.meta.schema.VectorFields().empty()
                   ? nullptr
                   : out.meta.schema.VectorFields().front())
            : out.meta.schema.FieldByName(req.field);
    if (field == nullptr || !field->IsVector()) {
      return Status::InvalidArgument("no such vector field");
    }
    if (static_cast<int32_t>(req.query.size()) != field->dim) {
      return Status::InvalidArgument("query dim mismatch");
    }
    out.owned_queries.push_back(req.query);
    targets.push_back({field->id, out.owned_queries.back().data(), 1.0f});
  } else {
    for (const auto& target : req.multi) {
      const FieldSchema* field = out.meta.schema.FieldByName(target.field);
      if (field == nullptr || !field->IsVector()) {
        return Status::InvalidArgument("no such vector field: " +
                                       target.field);
      }
      if (static_cast<int32_t>(target.query.size()) != field->dim) {
        return Status::InvalidArgument("query dim mismatch: " + target.field);
      }
      out.owned_queries.push_back(target.query);
      targets.push_back(
          {field->id, out.owned_queries.back().data(), target.weight});
    }
  }
  if (req.k == 0) return Status::InvalidArgument("k must be positive");

  if (!req.filter.empty()) {
    MANU_ASSIGN_OR_RETURN(out.filter,
                          FilterExpr::Parse(req.filter, out.meta.schema));
  }

  // --- Consistency setup (Section 3.4); read_ts stamped by the caller. ---
  out.nreq.collection = out.meta.id;
  out.nreq.targets = std::move(targets);
  out.nreq.params.k = req.k;
  out.nreq.params.nprobe = req.nprobe;
  out.nreq.params.ef_search = req.ef_search;
  out.nreq.filter = out.filter.get();
  switch (req.consistency) {
    case ConsistencyLevel::kStrong:
      out.nreq.staleness_ms = 0;
      break;
    case ConsistencyLevel::kBounded:
      out.nreq.staleness_ms = req.staleness_ms >= 0
                                  ? req.staleness_ms
                                  : ctx_.config.default_staleness_ms;
      break;
    case ConsistencyLevel::kEventually:
      out.nreq.staleness_ms = -1;
      break;
  }
  // Time-travel reads never wait: the past is already consistent.
  if (req.travel_ts != 0) {
    out.nreq.read_ts = req.travel_ts;
    out.nreq.staleness_ms = -1;
  }
  return out;
}

SearchResult Proxy::ToResult(std::vector<Neighbor> merged) {
  SearchResult out;
  out.ids.reserve(merged.size());
  out.scores.reserve(merged.size());
  for (const Neighbor& n : merged) {
    out.ids.push_back(n.id);
    out.scores.push_back(n.score);
  }
  return out;
}

Result<SearchResult> Proxy::Search(const SearchRequest& req) {
  const int64_t t0 = NowMicros();
  Span root = Tracer::Global().StartTrace("proxy.search");
  root.Tag("collection", req.collection);
  root.Tag("k", static_cast<int64_t>(req.k));

  Result<SearchResult> out = std::move(Serve({&req, 1}, &root).front());
  if (!out.ok()) {
    root.Tag("error", out.status().ToString());
    return out;
  }

  root.Tag("coverage", out.value().coverage);
  root.Tag("hits", static_cast<int64_t>(out.value().ids.size()));
  auto& metrics = MetricsRegistry::Global();
  metrics.GetCounter("proxy.searches")->Add(1);
  metrics.GetCounter("proxy.searches", {{"collection", req.collection}})
      ->Add(1);
  metrics.GetRate("proxy.search_rate")->Mark();
  metrics.GetHistogram("proxy.search_latency")
      ->Observe(static_cast<double>(NowMicros() - t0));
  return out;
}

std::vector<Result<SearchResult>> Proxy::BatchSearch(
    const std::vector<SearchRequest>& reqs) {
  const int64_t t0 = NowMicros();
  // One trace for the whole batch: per-node spans show how the grouped
  // dispatch amortizes across requests.
  Span root = Tracer::Global().StartTrace("proxy.batch_search");
  root.Tag("requests", static_cast<int64_t>(reqs.size()));
  std::vector<Result<SearchResult>> results = Serve(reqs, &root);

  auto& metrics = MetricsRegistry::Global();
  metrics.GetCounter("proxy.searches")->Add(static_cast<int64_t>(reqs.size()));
  metrics.GetRate("proxy.search_rate")
      ->Mark(static_cast<int64_t>(reqs.size()));
  metrics.GetHistogram("proxy.batch_latency")
      ->Observe(static_cast<double>(NowMicros() - t0));
  return results;
}

std::vector<Result<SearchResult>> Proxy::Serve(
    std::span<const SearchRequest> reqs, Span* root) {
  std::vector<Result<SearchResult>> results(reqs.size());
  std::vector<Pending> pending(reqs.size());
  // Each admitted request holds its inflight slot until the batch is done.
  std::vector<AdmissionGuard> guards;
  guards.reserve(reqs.size());
  std::map<CollectionId, std::vector<size_t>> by_collection;
  Timestamp batch_ts = 0;  // One query timestamp for the whole batch.
  for (size_t i = 0; i < reqs.size(); ++i) {
    const SearchRequest& req = reqs[i];
    // --- Overload front door (core/admission.h), per request: each
    // tenant/priority gets its own decision; refused requests fail in
    // place without preparation. ---
    const AdmitDecision decision = admission_.Admit(req.tenant, req.priority);
    guards.emplace_back(&admission_, decision.admitted());
    RecordAdmission(reqs.size() == 1 ? root : nullptr, decision);
    if (!decision.admitted()) {
      results[i] = AdmissionController::ShedStatus(
          "proxy (" + std::string(decision.reason) + ")", decision.stage,
          decision.retry_after_ms);
      continue;
    }
    auto prep = Prepare(req);
    if (!prep.ok()) {
      results[i] = prep.status();
      continue;
    }
    auto owned = std::make_shared<Prepared>(std::move(prep).value());
    if (req.travel_ts == 0) {
      if (batch_ts == 0) batch_ts = ctx_.tso->Allocate();
      owned->nreq.read_ts = batch_ts;
    }
    // Brownout stage 1+: serve, but degraded — partial results allowed and
    // tighter per-node deadlines, trading completeness for bounded latency.
    const bool degraded = decision.action == AdmitAction::kDegrade;
    Pending& p = pending[i];
    p.allow_partial = req.allow_partial || degraded;
    p.deadline_ms = degraded ? DegradedDeadlineMs(req.node_deadline_ms)
                    : req.node_deadline_ms > 0
                        ? req.node_deadline_ms
                        : ctx_.config.node_search_deadline_ms;
    by_collection[owned->meta.id].push_back(i);
    p.prep = std::move(owned);
  }

  const int32_t retries = std::max(0, ctx_.config.search_retry_attempts);
  for (auto& [collection, group] : by_collection) {
    FanOut(pending, group, root, &results);
    for (int32_t attempt = 1; attempt <= retries; ++attempt) {
      // Only transient fan-out failures are worth re-dispatching; each
      // retry re-plans, so a search that raced a node crash lands on the
      // failover survivor. kResourceExhausted is deliberately NOT here: a
      // shed/backpressured fan-out must surface, not add load.
      std::erase_if(group, [&](size_t i) {
        if (results[i].ok()) return true;
        const StatusCode code = results[i].status().code();
        return code != StatusCode::kUnavailable &&
               code != StatusCode::kTimeout;
      });
      if (group.empty()) break;
      MetricsRegistry::Global()
          .GetCounter("proxy.search_retries")
          ->Add(static_cast<int64_t>(group.size()));
      Span retry(root->context(), "proxy.retry");
      retry.Tag("attempt", static_cast<int64_t>(attempt));
      retry.Tag("cause", results[group.front()].status().ToString());
      FanOut(pending, group, &retry, &results);
    }
  }
  return results;
}

void Proxy::FanOut(const std::vector<Pending>& pending,
                   const std::vector<size_t>& group, Span* parent,
                   std::vector<Result<SearchResult>>* results) {
  // --- Route per the coordinator's load-aware plan: every channel owner
  // (growing data), each sealed segment on exactly one p2c-chosen owner. ---
  Span route(parent->context(), "query_coord.route");
  const auto plan =
      query_coord_->PlanFor(pending[group.front()].prep->meta.id);
  route.Tag("nodes", static_cast<int64_t>(plan.routes.size()));
  if (plan.unroutable > 0) {
    route.Tag("unroutable", plan.unroutable);
  }
  route.End();

  // Segments with no live replica (mid-repair): a strict request must not
  // silently return a subset, so it fails retryably before dispatch — a
  // retry's re-plan lands after the reconciler repairs. Partial requests
  // proceed with the loss counted against coverage below.
  std::vector<size_t> live;
  live.reserve(group.size());
  for (size_t i : group) {
    if (plan.routes.empty()) {
      (*results)[i] =
          Status::Unavailable("collection is not loaded on any query node");
    } else if (plan.unroutable > 0 && !pending[i].allow_partial) {
      (*results)[i] =
          Status::Unavailable("sealed segments awaiting replica repair");
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;

  // Coverage weights: how much of the collection each route answers for —
  // its assigned sealed segments plus its growing-only ones. A node in the
  // plan only for its shard channel (no data yet) still weighs 1.
  // Unroutable segments weigh in the total but can never be covered.
  std::vector<int64_t> weights;
  weights.reserve(plan.routes.size());
  int64_t total_weight = plan.unroutable;
  for (const auto& r : plan.routes) {
    const int64_t w = std::max<int64_t>(1, r.weight);
    weights.push_back(w);
    total_weight += w;
  }

  // The group waits as long as its most patient request allows: batching
  // trades per-request deadline precision for one dispatch round.
  int64_t deadline_ms = 0;
  for (size_t i : live) {
    if (pending[i].deadline_ms <= 0) {
      deadline_ms = 0;
      break;
    }
    deadline_ms = std::max(deadline_ms, pending[i].deadline_ms);
  }
  // Stamp the absolute deadline into the node requests: a straggler the
  // proxy abandons below keeps running on its executor, but its parallel
  // segment fan-out checks this and stops claiming new segment work
  // instead of finishing a result nobody will read.
  const int64_t deadline_us =
      deadline_ms > 0 ? NowMicros() + deadline_ms * 1000 : 0;

  // Dispatch straight onto the node executors: one task per (node,
  // request), node-major, each owning its copy of the node request with
  // that node's sealed-segment assignment, plus the Prepared it points into.
  std::vector<std::future<Result<std::vector<SegmentHit>>>> futures;
  futures.reserve(plan.routes.size() * live.size());
  for (const auto& r : plan.routes) {
    for (size_t i : live) {
      NodeSearchRequest nreq = pending[i].prep->nreq;
      nreq.sealed_filter = r.sealed_filter;
      nreq.plan_handoff_seq = plan.handoff_seq;
      nreq.deadline_us = deadline_us;
      nreq.trace = parent->context();
      futures.push_back(r.node->SearchAsync(std::move(nreq), pending[i].prep));
    }
  }

  struct Gathered {
    std::vector<std::vector<Neighbor>> lists;
    int64_t covered_weight = 0;
    int64_t dropped_nodes = 0;
    Status failure;  ///< A strict request's first node failure.
  };
  std::vector<Gathered> gathered(live.size());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  for (size_t n = 0; n < plan.routes.size(); ++n) {
    for (size_t pos = 0; pos < live.size(); ++pos) {
      Gathered& g = gathered[pos];
      // A failed strict request stops waiting; its remaining node tasks
      // run on as abandoned stragglers against their own state.
      if (!g.failure.ok()) continue;
      auto& fut = futures[n * live.size() + pos];
      Status st;
      if (deadline_ms > 0 &&
          fut.wait_until(deadline) == std::future_status::timeout) {
        st = Status::Timeout("query node missed the search deadline");
      } else {
        Result<std::vector<SegmentHit>> hits = fut.get();
        if (hits.ok()) {
          g.covered_weight += weights[n];
          std::vector<Neighbor> list;
          list.reserve(hits.value().size());
          for (const auto& h : hits.value()) list.push_back({h.pk, h.score});
          g.lists.push_back(std::move(list));
          continue;
        }
        st = hits.status();
      }
      if (!pending[live[pos]].allow_partial) {
        g.failure = std::move(st);
        continue;
      }
      parent->Event("node dropped: " + st.ToString());
      ++g.dropped_nodes;
    }
  }

  auto& metrics = MetricsRegistry::Global();
  for (size_t pos = 0; pos < live.size(); ++pos) {
    const size_t i = live[pos];
    Gathered& g = gathered[pos];
    if (!g.failure.ok()) {
      (*results)[i] = std::move(g.failure);
      continue;
    }
    if (g.lists.empty()) {
      (*results)[i] =
          Status::Unavailable("every query node failed or timed out");
      continue;
    }
    // --- Global reduce with pk dedup. ---
    Span merge(parent->context(), "proxy.merge");
    merge.Tag("lists", static_cast<int64_t>(g.lists.size()));
    SearchResult out = ToResult(MergeTopK(
        g.lists, pending[i].prep->nreq.params.k, /*dedup_ids=*/true));
    merge.End();
    out.coverage = total_weight > 0 ? static_cast<double>(g.covered_weight) /
                                          static_cast<double>(total_weight)
                                    : 1.0;
    if (g.dropped_nodes > 0) {
      metrics.GetCounter("proxy.degraded_nodes")->Add(g.dropped_nodes);
    }
    if (out.coverage < 1.0) {
      metrics.GetCounter("proxy.partial_results")->Add(1);
    }
    (*results)[i] = std::move(out);
  }
}

Result<Timestamp> Proxy::WriteWithBackpressure(
    Span* root, const std::function<Result<Timestamp>(bool last)>& attempt) {
  const int32_t extra =
      std::max(0, ctx_.config.admission_write_retry_attempts);
  Result<Timestamp> res;
  for (int32_t n = 0; n <= extra; ++n) {
    const bool last = n == extra;
    res = attempt(last);
    if (res.ok() ||
        res.status().code() != StatusCode::kResourceExhausted || last) {
      break;
    }
    // The proxy front door is the ONE place that honors the retry-after
    // hint (RetryPolicy never retries kResourceExhausted): wait out the
    // hint plus deterministic jitter so synchronized writers don't re-slam
    // the logger in lockstep.
    int64_t wait_ms = AdmissionController::RetryAfterHintMs(res.status());
    if (wait_ms < 0) wait_ms = std::max<int64_t>(1, ctx_.config.shed_retry_after_ms);
    uint64_t j = static_cast<uint64_t>(n) + 0x9e3779b97f4a7c15ULL;
    j = (j ^ (j >> 30)) * 0xbf58476d1ce4e5b9ULL;
    const int64_t jitter_ms =
        static_cast<int64_t>(j % static_cast<uint64_t>(wait_ms / 2 + 1));
    MetricsRegistry::Global().GetCounter("backpressure.write_retries")->Add();
    root->Event("backpressure: waiting retry-after " +
                std::to_string(wait_ms + jitter_ms) + "ms");
    std::this_thread::sleep_for(
        std::chrono::milliseconds(wait_ms + jitter_ms));
  }
  return res;
}

Result<Timestamp> Proxy::Insert(const std::string& collection,
                                EntityBatch batch) {
  Span root = Tracer::Global().StartTrace("proxy.insert");
  root.Tag("collection", collection);
  root.Tag("rows", batch.NumRows());
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  auto res = WriteWithBackpressure(&root, [&](bool last) {
    // The batch is only surrendered on the final attempt; earlier attempts
    // publish a copy so a backpressured retry still has the rows.
    if (last) return loggers_->Insert(meta, std::move(batch), root.context());
    return loggers_->Insert(meta, batch, root.context());
  });
  if (!res.ok()) {
    root.Tag("error", res.status().ToString());
  } else {
    root.Tag("lsn", static_cast<int64_t>(res.value()));
  }
  return res;
}

Result<Timestamp> Proxy::Delete(const std::string& collection,
                                const std::vector<int64_t>& pks) {
  Span root = Tracer::Global().StartTrace("proxy.delete");
  root.Tag("collection", collection);
  root.Tag("pks", static_cast<int64_t>(pks.size()));
  MANU_ASSIGN_OR_RETURN(CollectionMeta meta,
                        root_coord_->GetCollection(collection));
  auto res = WriteWithBackpressure(&root, [&](bool) {
    return loggers_->Delete(meta, pks, root.context());
  });
  if (!res.ok()) root.Tag("error", res.status().ToString());
  return res;
}

}  // namespace manu
