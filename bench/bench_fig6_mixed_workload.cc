// Figure 6 reproduction: mixed insert + search workload, Manu vs a
// Milvus-1.x-style configuration. Vectors stream in at a fixed rate while
// a client measures search latency over time. In the paper, Milvus' write
// node cannot keep index building ahead of ingestion, so "brute force
// search is used for a large amount of data" and latency climbs with the
// insert rate; Manu keeps the un-indexed working set cheap to search.
//
// Both sides run the same in-process pipeline (identical ingestion,
// sealing and index-build capacity — on this single-core host every
// simulated service shares one CPU, so holding the machinery equal is the
// only fair isolation). The Milvus-like configuration disables Manu's
// growing-segment slice indexes, so its backlog is searched raw — the
// paper's mechanism.

#include <cstdio>

#include <limits>

#include "bench/bench_util.h"
#include "core/manu.h"

namespace manu {
namespace {

constexpr int32_t kDim = 256;
constexpr int64_t kSealRows = 8000;
// Long enough that the un-indexed backlog reaches a size where brute-force
// search visibly hurts (the paper runs for minutes at the same rates).
constexpr int64_t kRunSeconds = 30;
constexpr int64_t kWindowMs = 5000;

IndexParams Fig6Index() {
  // A substantial build (large nlist, full Lloyd iterations): the Figure 6
  // mechanism needs index construction to cost real time relative to the
  // insert rate, as it does at the paper's scale. Both systems build the
  // same index with the same single-threaded capacity; the difference is
  // what searches pay while builds lag (Manu: slice temp indexes;
  // Milvus-like: raw brute force).
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.metric = MetricType::kL2;
  params.dim = kDim;
  params.nlist = 640;
  params.train_iters = 12;
  return params;
}

struct Series {
  std::vector<double> window_ms;  ///< Mean search latency per window.
};

/// Drives a fixed-rate insert stream plus a search client; returns latency
/// per window.
template <typename InsertFn, typename SearchFn>
Series Drive(int64_t rate, const VectorDataset& pool, InsertFn insert,
             SearchFn search) {
  Series out;
  std::atomic<bool> stop{false};
  std::thread inserter([&] {
    int64_t next_pk = 0;
    const int64_t batch = std::max<int64_t>(1, rate / 20);  // 50 ms batches.
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t t0 = NowMicros();
      std::vector<int64_t> pks(batch);
      std::vector<float> vecs(batch * kDim);
      for (int64_t i = 0; i < batch; ++i) {
        const int64_t row = (next_pk + i) % pool.NumRows();
        pks[i] = next_pk + i;
        std::copy(pool.Row(row), pool.Row(row) + kDim,
                  vecs.data() + i * kDim);
      }
      next_pk += batch;
      insert(std::move(pks), std::move(vecs));
      const int64_t spent = NowMicros() - t0;
      const int64_t budget = 1000000 * batch / rate;
      if (spent < budget) {
        std::this_thread::sleep_for(std::chrono::microseconds(budget - spent));
      }
    }
  });

  const int64_t start = NowMicros();
  LatencyHistogram window;
  int64_t window_end = start + kWindowMs * 1000;
  while (NowMicros() - start < kRunSeconds * 1000000) {
    const int64_t q = (NowMicros() / 37) % pool.NumRows();
    const int64_t t0 = NowMicros();
    search(pool.Row(q));
    window.Observe(static_cast<double>(NowMicros() - t0));
    if (NowMicros() >= window_end) {
      out.window_ms.push_back(window.Mean() / 1000.0);
      window.Reset();
      window_end += kWindowMs * 1000;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  inserter.join();
  return out;
}

Series RunManu(int64_t rate, const VectorDataset& pool, bool slices) {
  ManuConfig config;
  config.num_shards = 2;
  config.segment_seal_rows = kSealRows;
  config.segment_idle_seal_ms = 2000;
  // Manu: temp IVF per 2048-row slice (nlist 32; a slice must be well
  // under the seal size or no slice ever fills). Milvus-like: no temporary
  // indexes — the growing/unindexed backlog is brute-forced.
  config.slice_rows =
      slices ? 2048 : std::numeric_limits<int64_t>::max();
  config.time_tick_interval_ms = 20;
  config.num_query_nodes = 2;
  config.num_data_nodes = 1;
  // One single-threaded index node: on this one-core host both systems get
  // identical aggregate build capacity, isolating the architectural
  // difference rather than granting Manu phantom parallel hardware.
  config.num_index_nodes = 1;
  config.index_build_threads = 1;
  ManuInstance db(config);

  CollectionSchema schema("stream");
  FieldSchema vec;
  vec.name = "v";
  vec.type = DataType::kFloatVector;
  vec.dim = kDim;
  auto add = schema.AddField(vec);
  auto meta = db.CreateCollection(std::move(schema));
  (void)add;
  if (!meta.ok()) return {};
  (void)db.CreateIndex("stream", "v", Fig6Index());
  const FieldId field = meta.value().schema.FieldByName("v")->id;

  return Drive(
      rate, pool,
      [&](std::vector<int64_t> pks, std::vector<float> vecs) {
        EntityBatch batch;
        batch.primary_keys = std::move(pks);
        batch.columns.push_back(
            FieldColumn::MakeFloatVector(field, kDim, std::move(vecs)));
        (void)db.Insert("stream", std::move(batch));
      },
      [&](const float* query) {
        SearchRequest req;
        req.collection = "stream";
        req.query.assign(query, query + kDim);
        req.k = 50;
        req.nprobe = 8;
        req.consistency = ConsistencyLevel::kEventually;
        (void)db.Search(req);
      });
}



void Run() {
  SyntheticOptions opts;
  opts.num_rows = 150000;
  opts.dim = kDim;
  opts.num_clusters = 64;
  VectorDataset pool = MakeClusteredDataset(opts);

  std::printf(
      "== Figure 6: search latency (ms) over time under streaming inserts "
      "==\n(each row: one %llds window; columns: insert rate)\n\n",
      static_cast<long long>(kWindowMs / 1000));

  const int64_t rates[] = {1000, 2000, 3000, 4000};
  std::vector<Series> manu_series, milvus_series;
  for (int64_t rate : rates) {
    std::printf("running manu @ %lldk inserts/s...\n",
                static_cast<long long>(rate / 1000));
    manu_series.push_back(RunManu(rate, pool, /*slices=*/true));
    std::printf("running milvus-like @ %lldk inserts/s...\n",
                static_cast<long long>(rate / 1000));
    milvus_series.push_back(RunManu(rate, pool, /*slices=*/false));
  }

  bench::Table table({"window", "manu_1k", "milvus_1k", "manu_2k",
                      "milvus_2k", "manu_3k", "milvus_3k", "manu_4k",
                      "milvus_4k"});
  size_t windows = 0;
  for (const auto& s : manu_series) windows = std::max(windows, s.window_ms.size());
  for (size_t w = 0; w < windows; ++w) {
    std::vector<std::string> row;
    row.push_back("t" + std::to_string(w * kWindowMs / 1000) + "s");
    for (size_t r = 0; r < 4; ++r) {
      row.push_back(w < manu_series[r].window_ms.size()
                        ? bench::Fmt(manu_series[r].window_ms[w])
                        : "-");
      row.push_back(w < milvus_series[r].window_ms.size()
                        ? bench::Fmt(milvus_series[r].window_ms[w])
                        : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  // Summary: steady-state latency (mean of the last half of the windows —
  // the paper's curves are read at their right edge, after backlogs form).
  std::printf("\n-- steady-state latency (ms, last half of run) --\n");
  bench::Table summary({"rate", "manu", "milvus_like", "milvus/manu"});
  for (size_t r = 0; r < 4; ++r) {
    auto mean = [](const Series& s) {
      if (s.window_ms.empty()) return 0.0;
      const size_t from = s.window_ms.size() / 2;
      double sum = 0;
      for (size_t i = from; i < s.window_ms.size(); ++i) {
        sum += s.window_ms[i];
      }
      return sum / static_cast<double>(s.window_ms.size() - from);
    };
    const double m = mean(manu_series[r]);
    const double v = mean(milvus_series[r]);
    summary.AddRow({std::to_string(rates[r]) + "/s", bench::Fmt(m),
                    bench::Fmt(v), bench::Fmt(m > 0 ? v / m : 0, 1)});
  }
  summary.Print();
}

}  // namespace
}  // namespace manu

int main() {
  manu::Run();
  return 0;
}
