#include "core/proxy.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <thread>

#include "common/metrics.h"

namespace manu {

Proxy::Proxy(const CoreContext& ctx, RootCoordinator* root_coord,
             QueryCoordinator* query_coord, LoggerFleet* loggers)
    : ctx_(ctx),
      root_coord_(root_coord),
      query_coord_(query_coord),
      loggers_(loggers),
      admission_(ctx.config),
      // Fan-out workers mostly wait on node executors; size generously so
      // the proxy never serializes multi-node dispatch.
      pool_(64) {
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
                              ctx_.config.shed_deadline_factor));
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

Result<SearchResult> Proxy::SearchOnce(const SearchRequest& req,
                                       const std::shared_ptr<Prepared>& prep,
                                       Span* parent) {
  // --- Fan out per the coordinator's load-aware plan: every channel owner
  // (growing data), each sealed segment on exactly one p2c-chosen owner. ---
  Span route(parent->context(), "query_coord.route");
  auto plan = query_coord_->PlanFor(prep->meta.id);
  route.Tag("nodes", static_cast<int64_t>(plan.routes.size()));
  if (plan.unroutable > 0) {
    route.Tag("unroutable", plan.unroutable);
  }
  route.End();
  if (plan.routes.empty()) {
    return Status::Unavailable("collection is not loaded on any query node");
  }
  // Segments with no live replica (mid-repair): a strict search must not
  // silently return a subset, so it fails retryably — with
  // search_retry_attempts the re-plan lands after the reconciler repairs.
  // Partial searches proceed with the loss counted against coverage below.
  if (plan.unroutable > 0 && !req.allow_partial) {
    return Status::Unavailable("sealed segments awaiting replica repair");
  }
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

  const int64_t deadline_ms = req.node_deadline_ms > 0
                                  ? req.node_deadline_ms
                                  : ctx_.config.node_search_deadline_ms;
  // Each attempt dispatches its own copy of the node request (cheap: the
  // targets point into prep-owned storage, which the captured shared_ptr
  // keeps alive). Mutating prep->nreq instead would race an abandoned
  // straggler from a previous attempt that is still reading it.
  NodeSearchRequest base = prep->nreq;
  base.trace = parent->context();
  // Stamp the absolute deadline into the node request: a straggler the
  // proxy abandons below keeps running on its executor, but its parallel
  // segment fan-out checks this and stops claiming new segment work
  // instead of finishing a result nobody will read.
  if (deadline_ms > 0) {
    base.deadline_us = NowMicros() + deadline_ms * 1000;
  }

  std::vector<std::future<Result<std::vector<SegmentHit>>>> futures;
  futures.reserve(plan.routes.size());
  for (auto& r : plan.routes) {
    NodeSearchRequest nreq = base;
    nreq.sealed_filter = r.sealed_filter;
    nreq.plan_handoff_seq = plan.handoff_seq;
    auto node = r.node;
    futures.push_back(pool_.Submit(
        [node, prep, nreq = std::move(nreq)]() { return node->Search(nreq); }));
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max<int64_t>(
                            0, deadline_ms));
  std::vector<std::vector<Neighbor>> lists;
  lists.reserve(plan.routes.size());
  int64_t covered_weight = 0;
  int64_t degraded_nodes = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto& fut = futures[i];
    if (deadline_ms > 0 &&
        fut.wait_until(deadline) == std::future_status::timeout) {
      // The straggler keeps running against its own copy of the request
      // (shared_ptr above); the proxy just stops waiting for it.
      if (!req.allow_partial) {
        return Status::Timeout("query node missed the search deadline");
      }
      parent->Event("node abandoned (deadline)");
      ++degraded_nodes;
      continue;
    }
    Result<std::vector<SegmentHit>> hits = fut.get();
    if (!hits.ok()) {
      if (!req.allow_partial) return hits.status();
      parent->Event("node dropped: " + hits.status().ToString());
      ++degraded_nodes;
      continue;
    }
    covered_weight += weights[i];
    std::vector<Neighbor> list;
    list.reserve(hits.value().size());
    for (const auto& h : hits.value()) list.push_back({h.pk, h.score});
    lists.push_back(std::move(list));
  }
  if (lists.empty()) {
    return Status::Unavailable("every query node failed or timed out");
  }

  // --- Global reduce with pk dedup. ---
  Span merge(parent->context(), "proxy.merge");
  merge.Tag("lists", static_cast<int64_t>(lists.size()));
  SearchResult out = ToResult(MergeTopK(lists, req.k, /*dedup_ids=*/true));
  merge.End();
  out.coverage = total_weight > 0
                     ? static_cast<double>(covered_weight) / total_weight
                     : 1.0;
  if (degraded_nodes > 0) {
    MetricsRegistry::Global()
        .GetCounter("proxy.degraded_nodes")
        ->Add(degraded_nodes);
  }
  if (out.coverage < 1.0) {
    MetricsRegistry::Global().GetCounter("proxy.partial_results")->Add(1);
  }
  return out;
}

Result<SearchResult> Proxy::Search(const SearchRequest& req) {
  const int64_t t0 = NowMicros();
  Span root = Tracer::Global().StartTrace("proxy.search");
  root.Tag("collection", req.collection);
  root.Tag("k", static_cast<int64_t>(req.k));

  // --- Overload front door (core/admission.h). ---
  const AdmitDecision decision = admission_.Admit(req.tenant, req.priority);
  AdmissionGuard guard(&admission_, decision.admitted());
  RecordAdmission(&root, decision);
  if (!decision.admitted()) {
    Status st = AdmissionController::ShedStatus(
        "proxy (" + std::string(decision.reason) + ")", decision.stage,
        decision.retry_after_ms);
    root.Tag("error", st.ToString());
    return st;
  }
  // Brownout stage 1+: serve, but degraded — partial results allowed and
  // tighter per-node deadlines, trading completeness for bounded latency.
  SearchRequest degraded_req;
  const SearchRequest* effective = &req;
  if (decision.action == AdmitAction::kDegrade) {
    degraded_req = req;
    degraded_req.allow_partial = true;
    degraded_req.node_deadline_ms = DegradedDeadlineMs(req.node_deadline_ms);
    effective = &degraded_req;
  }
  const SearchRequest& ereq = *effective;

  auto prep_res = Prepare(ereq);
  if (!prep_res.ok()) {
    root.Tag("error", prep_res.status().ToString());
    return prep_res.status();
  }
  // shared_ptr: with allow_partial the proxy may return while an abandoned
  // node task is still running; the task keeps the request state alive.
  auto prep = std::make_shared<Prepared>(std::move(prep_res).value());
  if (ereq.travel_ts == 0) prep->nreq.read_ts = ctx_.tso->Allocate();

  Result<SearchResult> out = SearchOnce(ereq, prep, &root);
  const int32_t retries = std::max(0, ctx_.config.search_retry_attempts);
  for (int32_t attempt = 1; attempt <= retries && !out.ok(); ++attempt) {
    const StatusCode code = out.status().code();
    // Only transient fan-out failures are worth re-dispatching; each retry
    // re-fetches the routing snapshot, so a search that raced a node crash
    // lands on the failover survivor. kResourceExhausted is deliberately
    // NOT here: a shed/backpressured fan-out must surface, not add load.
    if (code != StatusCode::kUnavailable && code != StatusCode::kTimeout) {
      break;
    }
    MetricsRegistry::Global().GetCounter("proxy.search_retries")->Add(1);
    Span retry(root.context(), "proxy.retry");
    retry.Tag("attempt", static_cast<int64_t>(attempt));
    retry.Tag("cause", out.status().ToString());
    out = SearchOnce(ereq, prep, &retry);
  }
  if (!out.ok()) {
    root.Tag("error", out.status().ToString());
    return out.status();
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
  std::vector<Result<SearchResult>> results(reqs.size());
  // shared_ptr: the NodeSearchRequests handed to node tasks point into
  // these Prepared objects (filter, query vectors). With allow_partial the
  // proxy may return while an abandoned straggler still runs, so the tasks
  // — not this stack frame — must own the request state.
  auto prepared = std::make_shared<std::vector<Prepared>>(reqs.size());

  // --- Overload front door, per request (each tenant/priority gets its
  // own decision; refused requests fail in place without preparation). ---
  std::vector<AdmissionGuard> guards;
  guards.reserve(reqs.size());
  std::vector<char> degraded(reqs.size(), 0);
  std::vector<char> refused(reqs.size(), 0);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const AdmitDecision decision =
        admission_.Admit(reqs[i].tenant, reqs[i].priority);
    guards.emplace_back(&admission_, decision.admitted());
    RecordAdmission(nullptr, decision);
    if (!decision.admitted()) {
      refused[i] = 1;
      results[i] = AdmissionController::ShedStatus(
          "proxy (" + std::string(decision.reason) + ")", decision.stage,
          decision.retry_after_ms);
    } else if (decision.action == AdmitAction::kDegrade) {
      degraded[i] = 1;
    }
  }
  // The degrade switch for request i: forced partial results under
  // brownout, on top of whatever the request asked for.
  auto allow_partial = [&](size_t i) {
    return reqs[i].allow_partial || degraded[i] != 0;
  };

  // One query timestamp for the whole batch.
  const Timestamp batch_ts = ctx_.tso->Allocate();
  std::map<CollectionId, std::vector<size_t>> by_collection;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (refused[i] != 0) continue;
    auto prep = Prepare(reqs[i]);
    if (!prep.ok()) {
      results[i] = prep.status();
      continue;
    }
    (*prepared)[i] = std::move(prep).value();
    if (reqs[i].travel_ts == 0) (*prepared)[i].nreq.read_ts = batch_ts;
    by_collection[(*prepared)[i].meta.id].push_back(i);
  }

  for (const auto& [collection, indices] : by_collection) {
    auto plan = query_coord_->PlanFor(collection);
    if (plan.routes.empty()) {
      for (size_t i : indices) {
        results[i] = Status::Unavailable("collection not loaded");
      }
      continue;
    }
    // Coverage weights, as in Search(): assigned sealed + growing-only,
    // plus the unroutable segments no route can cover.
    std::vector<int64_t> weights;
    weights.reserve(plan.routes.size());
    int64_t total_weight = plan.unroutable;
    for (const auto& r : plan.routes) {
      const int64_t w = std::max<int64_t>(1, r.weight);
      weights.push_back(w);
      total_weight += w;
    }

    // The group waits as long as its most patient request allows; stricter
    // per-request deadlines are not individually enforced (batching trades
    // that precision for one dispatch per node). Degraded requests bring
    // their tightened deadline into the max.
    int64_t deadline_ms = 0;
    for (size_t i : indices) {
      int64_t eff = reqs[i].node_deadline_ms > 0
                        ? reqs[i].node_deadline_ms
                        : ctx_.config.node_search_deadline_ms;
      if (degraded[i] != 0) eff = DegradedDeadlineMs(reqs[i].node_deadline_ms);
      deadline_ms = std::max(deadline_ms, eff);
    }

    auto batch = std::make_shared<std::vector<NodeSearchRequest>>();
    batch->reserve(indices.size());
    for (size_t i : indices) batch->push_back((*prepared)[i].nreq);
    const int64_t deadline_us =
        deadline_ms > 0 ? NowMicros() + deadline_ms * 1000 : 0;
    for (auto& nreq : *batch) {
      nreq.deadline_us = deadline_us;
      nreq.trace = root.context();
    }

    // One dispatch per node for the whole group. Each node gets its own
    // copy of the group's requests carrying that node's sealed-segment
    // assignment (the shared template has no filter).
    std::vector<
        std::future<std::vector<Result<std::vector<SegmentHit>>>>>
        futures;
    futures.reserve(plan.routes.size());
    for (auto& r : plan.routes) {
      auto node_batch =
          std::make_shared<std::vector<NodeSearchRequest>>(*batch);
      for (auto& nreq : *node_batch) {
        nreq.sealed_filter = r.sealed_filter;
        nreq.plan_handoff_seq = plan.handoff_seq;
      }
      auto node = r.node;
      futures.push_back(pool_.Submit([node, prepared, node_batch]() {
        return node->SearchBatch(*node_batch);
      }));
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              std::max<int64_t>(0, deadline_ms));
    // One slot per node; nullopt = the node missed the deadline (it keeps
    // running against the shared_ptr state; the proxy stops waiting).
    std::vector<
        std::optional<std::vector<Result<std::vector<SegmentHit>>>>>
        per_node;
    per_node.reserve(plan.routes.size());
    for (auto& fut : futures) {
      if (deadline_ms > 0 &&
          fut.wait_until(deadline) == std::future_status::timeout) {
        per_node.emplace_back(std::nullopt);
        continue;
      }
      per_node.emplace_back(fut.get());
    }

    for (size_t pos = 0; pos < indices.size(); ++pos) {
      const size_t i = indices[pos];
      if (plan.unroutable > 0 && !allow_partial(i)) {
        // Same rule as Search(): a strict request never silently serves a
        // subset while segments await replica repair.
        results[i] =
            Status::Unavailable("sealed segments awaiting replica repair");
        continue;
      }
      std::vector<std::vector<Neighbor>> lists;
      int64_t covered_weight = 0;
      int64_t degraded_nodes = 0;
      Status failure;
      for (size_t n = 0; n < per_node.size(); ++n) {
        if (!per_node[n].has_value()) {
          if (!allow_partial(i)) {
            failure = Status::Timeout(
                "query node missed the search deadline");
            break;
          }
          ++degraded_nodes;
          continue;
        }
        const auto& hits = (*per_node[n])[pos];
        if (!hits.ok()) {
          if (!allow_partial(i)) {
            failure = hits.status();
            break;
          }
          ++degraded_nodes;
          continue;
        }
        covered_weight += weights[n];
        std::vector<Neighbor> list;
        list.reserve(hits.value().size());
        for (const auto& h : hits.value()) list.push_back({h.pk, h.score});
        lists.push_back(std::move(list));
      }
      if (!failure.ok()) {
        results[i] = failure;
        continue;
      }
      if (lists.empty()) {
        results[i] =
            Status::Unavailable("every query node failed or timed out");
        continue;
      }
      SearchResult out =
          ToResult(MergeTopK(lists, reqs[i].k, /*dedup_ids=*/true));
      out.coverage = total_weight > 0
                         ? static_cast<double>(covered_weight) / total_weight
                         : 1.0;
      if (degraded_nodes > 0) {
        MetricsRegistry::Global()
            .GetCounter("proxy.degraded_nodes")
            ->Add(degraded_nodes);
      }
      if (out.coverage < 1.0) {
        MetricsRegistry::Global().GetCounter("proxy.partial_results")->Add(1);
      }
      results[i] = std::move(out);
    }
  }

  MetricsRegistry::Global()
      .GetCounter("proxy.searches")
      ->Add(static_cast<int64_t>(reqs.size()));
  MetricsRegistry::Global().GetRate("proxy.search_rate")->Mark(
      static_cast<int64_t>(reqs.size()));
  MetricsRegistry::Global()
      .GetHistogram("proxy.batch_latency")
      ->Observe(static_cast<double>(NowMicros() - t0));
  return results;
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
