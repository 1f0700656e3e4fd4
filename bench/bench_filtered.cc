// Filtered-search sweep (Section 3.6 attribute filtering): QPS and
// recall@50 across filter selectivities from 0.1% to 90%, comparing the
// post-scan baseline (unmasked ANN + intersect — the strategy the planner
// exists to beat) against the planner's strategies (pre-filter mask,
// filter-aware traversal, brute-force-over-matches) and the cost-based
// planner's own per-segment choice, on IVF-Flat and HNSW.
//
// The committed artifact (BENCH_filtered.json via scripts/bench_report.sh)
// tracks the planner-vs-postscan trajectory; the acceptance bar is the
// planner beating post-scan by >= 3x QPS at 1% selectivity with recall no
// worse than 1% below it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/segment.h"
#include "index/index_factory.h"

namespace manu {
namespace {

constexpr int32_t kDim = 32;
constexpr size_t kTopK = 50;
constexpr int64_t kPriceMod = 1000;  // price = row % 1000: sel(P) = P/1000.

struct StrategyCase {
  const char* name;
  FilterStrategy force;  // kNone = planner's own choice.
};

const StrategyCase kStrategies[] = {
    {"postscan", FilterStrategy::kPostScan},
    {"prefilter", FilterStrategy::kPreFilter},
    {"traversal", FilterStrategy::kTraversal},
    {"brute_matches", FilterStrategy::kBruteMatches},
    {"planner", FilterStrategy::kNone},
};

float L2(const float* a, const float* b, int32_t dim) {
  float sum = 0;
  for (int32_t i = 0; i < dim; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Exact filtered top-k over rows with price < limit.
std::vector<Neighbor> FilteredTruth(const VectorDataset& data,
                                    const float* query, int64_t price_limit,
                                    size_t k) {
  TopKHeap heap(k);
  for (int64_t row = 0; row < data.NumRows(); ++row) {
    if (row % kPriceMod >= price_limit) continue;
    heap.Push(row, L2(query, data.Row(row), data.dim));
  }
  return heap.TakeSorted();
}

std::unique_ptr<SealedSegment> MakeSegment(const CollectionSchema& schema,
                                           const VectorDataset& data,
                                           FieldId vec_id, FieldId price_id,
                                           IndexType type) {
  const int64_t n = data.NumRows();
  EntityBatch batch;
  std::vector<int64_t> prices;
  for (int64_t i = 0; i < n; ++i) {
    batch.primary_keys.push_back(i);
    batch.timestamps.push_back(static_cast<Timestamp>(1000 + i));
    prices.push_back(i % kPriceMod);
  }
  batch.columns.push_back(
      FieldColumn::MakeFloatVector(vec_id, kDim, data.data));
  batch.columns.push_back(FieldColumn::MakeInt64(price_id, prices));

  auto seg = std::make_unique<SealedSegment>(1, &schema);
  if (!seg->SetRows(batch).ok() || !seg->BuildScalarIndexes().ok()) {
    std::fprintf(stderr, "segment setup failed\n");
    std::exit(1);
  }
  IndexParams params;
  params.type = type;
  params.dim = kDim;
  params.nlist = 64;
  params.hnsw_m = 16;
  params.hnsw_ef_construction = 160;
  auto index = BuildVectorIndex(params, data.data.data(), n);
  if (!index.ok() || !seg->SetIndex(vec_id, std::move(index).value()).ok()) {
    std::fprintf(stderr, "index build failed\n");
    std::exit(1);
  }
  return seg;
}

void Run(bench::BenchReport* report) {
  SyntheticOptions opts;
  opts.num_rows = bench::Scaled(20000);
  opts.dim = kDim;
  opts.num_clusters = 200;
  opts.cluster_spread = 0.25;
  VectorDataset data = MakeClusteredDataset(opts);
  const int64_t num_queries = 64;
  VectorDataset queries = MakeQueries(opts, num_queries, 7);

  CollectionSchema schema("bench");
  FieldSchema pk;
  pk.name = "id";
  pk.type = DataType::kInt64;
  pk.is_primary = true;
  (void)schema.AddField(pk);
  FieldSchema vec;
  vec.name = "v";
  vec.type = DataType::kFloatVector;
  vec.dim = kDim;
  (void)schema.AddField(vec);
  FieldSchema price;
  price.name = "price";
  price.type = DataType::kInt64;
  (void)schema.AddField(price);
  const FieldId vec_id = schema.FieldByName("v")->id;
  const FieldId price_id = schema.FieldByName("price")->id;

  // Selectivity sweep: price < P on price = row % 1000.
  const int64_t price_limits[] = {1, 10, 50, 100, 300, 900};

  std::printf("== filtered search: %lld rows, dim=%d, top-%zu ==\n",
              static_cast<long long>(data.NumRows()), kDim, kTopK);

  const struct {
    const char* name;
    IndexType type;
  } engines[] = {{"ivf_flat", IndexType::kIvfFlat},
                 {"hnsw", IndexType::kHnsw}};

  for (const auto& engine : engines) {
    auto seg = MakeSegment(schema, data, vec_id, price_id, engine.type);
    bench::Table table({"engine", "sel", "strategy", "chosen", "recall@50",
                        "qps", "vs_postscan"});

    for (int64_t limit : price_limits) {
      const double sel =
          static_cast<double>(limit) / static_cast<double>(kPriceMod);
      auto expr = FilterExpr::Parse("price < " + std::to_string(limit),
                                    schema);
      if (!expr.ok()) {
        std::fprintf(stderr, "parse failed\n");
        std::exit(1);
      }
      std::vector<std::vector<Neighbor>> truth;
      truth.reserve(num_queries);
      for (int64_t q = 0; q < num_queries; ++q) {
        truth.push_back(FilteredTruth(data, queries.Row(q), limit, kTopK));
      }

      double postscan_qps = 0;
      for (const StrategyCase& strat : kStrategies) {
        auto make_req = [&](int64_t q) {
          SegmentSearchRequest req;
          req.field = vec_id;
          req.query = queries.Row(q % num_queries);
          req.params.k = kTopK;
          req.params.nprobe = 8;
          req.params.ef_search = 64;
          req.filter = expr.value().get();
          req.force_strategy = strat.force;
          return req;
        };

        // Recall pass (records the executed strategy too).
        double recall_sum = 0;
        FilterPlan plan;
        for (int64_t q = 0; q < num_queries; ++q) {
          SegmentSearchRequest req = make_req(q);
          req.plan_out = &plan;
          auto hits = seg->Search(req);
          if (!hits.ok()) continue;
          std::vector<Neighbor> got;
          got.reserve(hits.value().size());
          for (const auto& h : hits.value()) {
            got.push_back({h.pk, h.score});
          }
          const size_t denom = std::min(kTopK, truth[q].size());
          if (denom > 0) {
            recall_sum += RecallAtK(got, truth[q], denom);
          } else {
            recall_sum += 1.0;  // Empty truth: trivially correct.
          }
        }
        const double recall = recall_sum / static_cast<double>(num_queries);

        auto tp = bench::MeasureThroughput(2, 600, [&](int32_t, int64_t i) {
          SegmentSearchRequest req = make_req(i);
          (void)seg->Search(req);
        });
        if (std::string(strat.name) == "postscan") postscan_qps = tp.qps;
        const double speedup =
            postscan_qps > 0 ? tp.qps / postscan_qps : 0.0;

        table.AddRow({engine.name, bench::Fmt(sel, 3), strat.name,
                      FilterStrategyName(plan.strategy),
                      bench::Fmt(recall, 3), bench::Fmt(tp.qps, 0),
                      bench::Fmt(speedup, 2) + "x"});
        report->Add(std::string(engine.name) + ".sel_" +
                        bench::Fmt(sel, 3) + "." + strat.name,
                    {{"recall_at_50", recall},
                     {"qps", tp.qps},
                     {"p99_ms", tp.p99_ms},
                     {"selectivity", sel},
                     {"qps_vs_postscan", speedup}});
      }
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace manu

int main() {
  manu::bench::BenchReport report("filtered_search");
  manu::Run(&report);
  report.WriteIfRequested();
  return 0;
}
