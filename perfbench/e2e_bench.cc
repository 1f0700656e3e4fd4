// End-to-end benchmark of the Manu reproduction.
//
// One process creates and loads a deployment through ManuInstance, drives one
// workload against it and prints every metric by name with its unit. The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (an untraced run through
// ManuInstance::Search / Insert). With --trace 1 they are per-layer numbers:
// each search is issued through ManuInstance::Search and then replayed
// through the public layer calls in the order the proxy makes them (Tso,
// QueryCoordinator::PlanFor, QueryNode::Search per route, MergeTopK), each
// call wrapped in a span recorded here. Nothing inside the library is timed
// by this file, and ManuConfig keeps its defaults apart from the deployment
// shape set in MakeConfig().
//
// Inputs (vectors, queries, attributes, insert stream, ground truth) are
// generated here from --seed; only the generated rows reach the library.
// The process exits 1 when a correctness check fails and 2 when it refuses
// to start.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/threadpool.h"
#include "common/topk.h"
#include "core/expr.h"
#include "core/manu.h"
#include "simd/distances.h"

namespace perfbench {

using manu::FieldId;
using manu::ManuConfig;
using manu::ManuInstance;
using manu::Timestamp;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

enum class Workload { kAnnSealed, kAnnFiltered, kIngestStrong };

struct Options {
  Workload workload = Workload::kAnnSealed;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           ///< Smoke-test sizes.
  std::string corrupt;         ///< "", "ids" or "drop_acked" (smoke test).
  std::string spans_path;      ///< Where the traced run writes its spans.
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Refuse("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload_name = next();
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::atof(next().c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      o.trace = next() == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      o.tiny = next() == "tiny";
    } else if (flag == "--corrupt") {
      o.corrupt = next();
    } else if (flag == "--spans") {
      o.spans_path = next();
    } else if (flag == "--git-sha") {
      o.git_sha = next();
    } else if (flag == "--src-digest") {
      o.src_digest = next();
    } else {
      Refuse("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Refuse("need --workload, --seed, --seconds and --trace");
  }
  if (o.workload_name == "ann_sealed") {
    o.workload = Workload::kAnnSealed;
  } else if (o.workload_name == "ann_filtered_1pct") {
    o.workload = Workload::kAnnFiltered;
  } else if (o.workload_name == "ingest_strong") {
    o.workload = Workload::kIngestStrong;
  } else {
    Refuse("unknown workload " + o.workload_name);
  }
  if (!(o.seconds > 0) || o.seconds > 60) Refuse("--seconds must be in (0, 60]");
  if (!o.corrupt.empty() && o.corrupt != "ids" && o.corrupt != "drop_acked") {
    Refuse("--corrupt must be ids or drop_acked");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Sizes and deployment shape
// ---------------------------------------------------------------------------

/// Every workload runs over the same collection shape so that their numbers
/// are comparable: `base_rows` clustered 64-d vectors plus an int64 `tag`
/// column, sealed into segments of `seal_rows` rows (>= 8 segments, at least
/// twice the executor count, so the fan-out and the slowest-of-N effect are
/// exercised).
struct Sizes {
  int32_t dim = 64;
  int64_t base_rows = 32000;
  int64_t seal_rows = 4000;
  int32_t clusters = 128;
  double spread = 0.5;
  int64_t queries = 256;
  int64_t min_segments = 8;
  int32_t setup_reps = 3;         ///< Untraced runs; the median is setup_s.
  double warmup_s = 0.5;
  double write_probe_s = 3.0;     ///< ann_* only: idle-system write probe.
  int32_t acked_samples = 100;    ///< Acked inserts re-searched post-run.
};

Sizes MakeSizes(const Options& o) {
  Sizes s;
  if (o.tiny) {
    s.base_rows = 2000;
    s.seal_rows = 250;
    s.clusters = 16;
    s.queries = 32;
    s.setup_reps = 2;
    s.warmup_s = 0.2;
    s.write_probe_s = 0.6;
    s.acked_samples = 20;
  }
  if (o.trace) s.setup_reps = 1;  // Set-up time is an untraced metric.
  return s;
}

constexpr size_t kTopK = 10;
/// Below the recall plateau on purpose (recall@10 ~0.97 on this data): at
/// ef=64 recall@10 saturates near 1.0, and a quality loss could not show.
constexpr int32_t kEfSearch = 32;
/// Check searches for acked inserts use a wide beam: the check is about
/// durability and visibility, not about ANN quality.
constexpr int32_t kCheckEf = 256;
constexpr int64_t kInsertRows = 20;        ///< Rows per streamed insert.
constexpr double kInsertMeanGapMs = 10.0;  ///< 2k rows/s.
constexpr uint64_t kScheduleSeed = 20220901;
/// The open-loop writer is behind schedule when its 95th-percentile send
/// lateness exceeds two mean inter-arrival gaps: a writer that cannot keep
/// the rate falls ever later, while one scheduling hiccup is a single late
/// send.
constexpr double kMaxWriterLatenessMs = 2 * kInsertMeanGapMs;
constexpr int32_t kReadClients = 2;
constexpr const char* kCollection = "perfbench";
constexpr const char* kWalProbeChannel = "perfbench.wal_probe";
/// A sealed_filter entry no segment ever has: restricts a node search to its
/// growing segments.
constexpr manu::SegmentId kNoSegment = INT64_MAX;

double RecallFloor(Workload w) {
  switch (w) {
    case Workload::kAnnSealed: return 0.85;
    case Workload::kAnnFiltered: return 0.95;
    case Workload::kIngestStrong: return 0.85;
  }
  return 1.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

ManuConfig MakeConfig(const Sizes& s, int nproc) {
  ManuConfig cfg;  // Defaults everywhere except the deployment shape.
  cfg.num_shards = 2;
  cfg.num_query_nodes = 2;
  // query_threads x num_query_nodes == nproc: more executors than cores
  // measures the scheduler, not the system.
  cfg.query_threads = std::max(1, nproc / cfg.num_query_nodes);
  cfg.segment_seal_rows = s.seal_rows;
  // Idle sealing stays outside the run; FlushAndWait seals the base.
  cfg.segment_idle_seal_ms = 3600 * 1000;
  return cfg;
}

// ---------------------------------------------------------------------------
// Time, resources, statistics
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

/// Sleeps to just before `t_ns`, then yields until it: a timer wake-up alone
/// can land late by a scheduler tick, and the open-loop writer times each
/// insert from its due time.
void WaitUntilDue(int64_t t_ns) {
  constexpr int64_t kSpinNs = 300'000;
  SleepUntilNs(t_ns - kSpinNs);
  while (NowNs() < t_ns) std::this_thread::yield();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

int64_t ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoll(line.c_str() + 8);
  }
  return 0;
}

/// Host-wide (steal, total) jiffies from /proc/stat. Steal is time the
/// hypervisor ran something else while this machine's vCPUs wanted to run.
std::pair<int64_t, int64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v->size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// Gaussian mixture: `clusters` centres uniform in [0,1]^dim, rows drawn
/// around them with per-coordinate stddev `spread`.
class Mixture {
 public:
  Mixture(const Sizes& s, uint64_t seed) : dim_(s.dim), spread_(s.spread) {
    std::mt19937_64 rng(seed ^ 0x6d616e75ULL);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    centres_.resize(static_cast<size_t>(s.clusters) * dim_);
    for (float& c : centres_) c = u(rng);
  }

  void Draw(std::mt19937_64* rng, float* out) const {
    std::uniform_int_distribution<int64_t> pick(
        0, static_cast<int64_t>(centres_.size() / dim_) - 1);
    std::normal_distribution<float> noise(0.0f, static_cast<float>(spread_));
    const float* c = centres_.data() + pick(*rng) * dim_;
    for (int32_t d = 0; d < dim_; ++d) out[d] = c[d] + noise(*rng);
  }

 private:
  int32_t dim_;
  double spread_;
  std::vector<float> centres_;
};

struct Inputs {
  int32_t dim = 0;
  std::vector<float> base;        ///< base_rows x dim.
  std::vector<int64_t> tags;      ///< Exactly 1% of rows per value 0..99.
  std::vector<float> queries;     ///< queries x dim.
  std::vector<std::vector<int64_t>> truth;  ///< Per query, top-k pks.
  /// Streamed rows for inserts (ingest_strong window / ann_* write probe):
  /// fresh draws from the mixture, never copies of base rows.
  std::vector<float> stream;
  int64_t stream_rows = 0;
  /// Due times (ns from the writer's start) of an open-loop Poisson
  /// schedule with mean gap kInsertMeanGapMs.
  std::vector<int64_t> due_ns;

  const float* Base(int64_t i) const { return base.data() + i * dim; }
  const float* Query(int64_t q) const { return queries.data() + q * dim; }
  const float* Stream(int64_t i) const { return stream.data() + i * dim; }
};

float L2(const float* a, const float* b, int32_t dim) {
  // Eight independent accumulators: a reference kernel kept apart from the
  // library's simd code, so a broken kernel cannot also break the truth.
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int32_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    for (int32_t j = 0; j < 8; ++j) {
      const float x = a[d + j] - b[d + j];
      acc[j] += x * x;
    }
  }
  float sum = 0;
  for (float v : acc) sum += v;
  for (; d < dim; ++d) sum += (a[d] - b[d]) * (a[d] - b[d]);
  return sum;
}

/// Exact top-k over the rows `row(i)` for i in [0, n) whose `keep(i)` holds.
std::vector<int64_t> ExactTopK(const float* query, int64_t n, int32_t dim,
                               const std::function<const float*(int64_t)>& row,
                               const std::function<bool(int64_t)>& keep,
                               const std::function<int64_t(int64_t)>& pk) {
  manu::TopKHeap heap(kTopK);
  for (int64_t i = 0; i < n; ++i) {
    if (keep && !keep(i)) continue;
    heap.Push(pk(i), L2(query, row(i), dim));
  }
  std::vector<int64_t> out;
  for (const manu::Neighbor& nb : heap.TakeSorted()) out.push_back(nb.id);
  return out;
}

int64_t FilterTag(int64_t q) { return q % 100; }

std::string FilterText(int64_t q) {
  return "tag == " + std::to_string(FilterTag(q));
}

Inputs MakeInputs(const Options& o, const Sizes& s) {
  Inputs in;
  in.dim = s.dim;
  Mixture mix(s, o.seed);
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ULL + 1);
  in.base.resize(static_cast<size_t>(s.base_rows) * s.dim);
  for (int64_t i = 0; i < s.base_rows; ++i) mix.Draw(&rng, in.base.data() + i * s.dim);

  std::vector<int64_t> perm(static_cast<size_t>(s.base_rows));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  in.tags.resize(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) in.tags[i] = perm[i] % 100;

  in.queries.resize(static_cast<size_t>(s.queries) * s.dim);
  for (int64_t q = 0; q < s.queries; ++q) mix.Draw(&rng, in.queries.data() + q * s.dim);

  // Due times for the longest write phase, with a second to spare.
  const double write_s =
      (o.workload == Workload::kIngestStrong ? o.seconds : s.write_probe_s) + s.warmup_s + 1.0;
  // The arrival schedule has its own fixed seed: visibility waits for the
  // next write or time-tick, so a schedule redrawn per seed would make
  // visible_* measure the redraw rather than the program.
  std::mt19937_64 arrivals(kScheduleSeed);
  std::exponential_distribution<double> gap(1.0 / kInsertMeanGapMs);
  double t_ms = 0;
  while (true) {
    t_ms += gap(arrivals);
    if (t_ms > write_s * 1000.0) break;
    in.due_ns.push_back(static_cast<int64_t>(t_ms * 1e6));
  }
  in.stream_rows = static_cast<int64_t>(in.due_ns.size()) * kInsertRows;
  in.stream.resize(static_cast<size_t>(in.stream_rows) * s.dim);
  for (int64_t i = 0; i < in.stream_rows; ++i) mix.Draw(&rng, in.stream.data() + i * s.dim);

  // Ground truth for the read workloads over the base collection.
  // ingest_strong's truth depends on which inserts were acked and is
  // computed after its window.
  if (o.workload != Workload::kIngestStrong) {
    const bool filtered = o.workload == Workload::kAnnFiltered;
    in.truth.resize(static_cast<size_t>(s.queries));
    for (int64_t q = 0; q < s.queries; ++q) {
      const int64_t want = FilterTag(q);
      in.truth[q] = ExactTopK(
          in.Query(q), s.base_rows, s.dim,
          [&](int64_t i) { return in.Base(i); },
          filtered ? std::function<bool(int64_t)>(
                         [&](int64_t i) { return in.tags[i] == want; })
                   : nullptr,
          [](int64_t i) { return i; });
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<ManuInstance> db;
  manu::CollectionMeta meta;
  FieldId vec_id = 0;
  FieldId tag_id = 0;
  int64_t sealed_segments = 0;
};

manu::EntityBatch MakeBatch(const Deployment& dep, int32_t dim, int64_t first_pk,
                            int64_t rows, const float* vectors,
                            const std::function<int64_t(int64_t)>& tag) {
  manu::EntityBatch batch;
  std::vector<int64_t> tags;
  for (int64_t i = 0; i < rows; ++i) {
    batch.primary_keys.push_back(first_pk + i);
    tags.push_back(tag(i));
  }
  batch.columns.push_back(manu::FieldColumn::MakeFloatVector(
      dep.vec_id, dim, std::vector<float>(vectors, vectors + rows * dim)));
  batch.columns.push_back(manu::FieldColumn::MakeInt64(dep.tag_id, std::move(tags)));
  return batch;
}

manu::CollectionSchema MakeSchema(int32_t dim) {
  manu::CollectionSchema schema(kCollection);
  manu::FieldSchema pk;
  pk.name = "id";
  pk.type = manu::DataType::kInt64;
  pk.is_primary = true;
  (void)schema.AddField(pk);
  manu::FieldSchema vec;
  vec.name = "v";
  vec.type = manu::DataType::kFloatVector;
  vec.dim = dim;
  vec.metric = manu::MetricType::kL2;
  (void)schema.AddField(vec);
  manu::FieldSchema tag;
  tag.name = "tag";
  tag.type = manu::DataType::kInt64;
  (void)schema.AddField(tag);
  return schema;
}

/// Create -> declare HNSW index -> insert the base -> FlushAndWait (sealed,
/// indexed and loaded) -> every query node has consumed the last insert.
/// This is exactly what setup_s times.
manu::Result<Deployment> SetUp(const ManuConfig& cfg, const Sizes& s,
                               const Inputs& in) {
  Deployment dep;
  dep.db = std::make_unique<ManuInstance>(cfg);
  auto meta = dep.db->CreateCollection(MakeSchema(s.dim));
  if (!meta.ok()) return meta.status();
  dep.meta = meta.value();
  dep.vec_id = dep.meta.schema.FieldByName("v")->id;
  dep.tag_id = dep.meta.schema.FieldByName("tag")->id;
  manu::IndexParams index;
  index.type = manu::IndexType::kHnsw;
  if (auto st = dep.db->CreateIndex(kCollection, "v", index); !st.ok()) return st;

  // An insert lands whole in one growing segment per shard, so batches stay
  // well under the seal size (half of it, split over two shards).
  const int64_t load_batch = std::max<int64_t>(1, s.seal_rows / 2);
  Timestamp last = 0;
  for (int64_t begin = 0; begin < s.base_rows; begin += load_batch) {
    const int64_t rows = std::min(load_batch, s.base_rows - begin);
    auto ts = dep.db->Insert(
        kCollection, MakeBatch(dep, s.dim, begin, rows, in.Base(begin),
                               [&](int64_t i) { return in.tags[begin + i]; }));
    if (!ts.ok()) return ts.status();
    last = ts.value();
  }
  if (auto st = dep.db->FlushAndWait(kCollection, 300000); !st.ok()) return st;
  if (auto st = dep.db->WaitUntilVisible(kCollection, last, 60000); !st.ok()) return st;
  for (const auto& node : dep.db->query_coord()->Nodes()) {
    dep.sealed_segments +=
        static_cast<int64_t>(node->SealedSegments(dep.meta.id).size());
  }
  return dep;
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct SpanRec {
  int64_t req = 0;
  int32_t parent = -1;   ///< Index in the same log; -1 = root.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t Dur() const { return end_ns - start_ns; }
};

/// One per recording thread, so recording takes no lock. Kept in memory and
/// written once when the run ends.
struct SpanLog {
  std::string thread;
  std::vector<SpanRec> spans;
  int32_t Add(int64_t req, int32_t parent, const char* name, int64_t s, int64_t e) {
    spans.push_back({req, parent, name, s, e});
    return static_cast<int32_t>(spans.size() - 1);
  }
};

/// Times `fn` and appends its span to `log`; returns fn's result.
template <typename F>
auto Timed(SpanLog* log, int64_t req, int32_t parent, const char* name, F&& fn) {
  const int64_t s = NowNs();
  auto out = fn();
  log->Add(req, parent, name, s, NowNs());
  return out;
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// One timed operation: when it counts (completion for searches, due time
/// for inserts, ack for visibility) and how long it took.
struct Sample {
  int64_t t_ns;
  double ms;
};

struct ReadStats {
  std::vector<Sample> lat;      ///< Successful searches.
  int64_t attempted = 0;
  int64_t failed = 0;           ///< Error, refusal, coverage < 1 or short.
};

struct WriteStats {
  std::vector<Sample> insert;       ///< Due time -> ack.
  std::vector<double> lateness_ms;  ///< Due time -> send.
  std::vector<Sample> visible;      ///< Ack -> WaitUntilVisible returns.
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Acked {
    int64_t pk;
    int64_t stream_row;
  };
  std::vector<Acked> acked;  ///< First row of every acked insert.
};

/// State shared by the load threads of one run.
struct Run {
  Options opt;
  Sizes sizes;
  const Inputs* in = nullptr;
  Deployment* dep = nullptr;
  bool filtered = false;
  bool strong = false;
  /// Traced phase switch (trace mode, second half of the window).
  std::atomic<bool> traced{false};
  std::atomic<bool> measuring{false};
  /// Load threads stop at this time (moved earlier by the window sampler).
  std::atomic<int64_t> stop_ns{0};
  /// Readers also stop here: the traced run's untraced first half.
  std::atomic<int64_t> read_stop_ns{INT64_MAX};
  std::atomic<int64_t> next_req{0};
};

manu::SearchRequest MakeSearch(const Run& run, int64_t q, int32_t ef) {
  manu::SearchRequest req;
  req.collection = kCollection;
  req.query.assign(run.in->Query(q), run.in->Query(q) + run.in->dim);
  req.k = kTopK;
  req.ef_search = ef;
  if (run.filtered) req.filter = FilterText(q);
  if (run.strong) req.consistency = manu::ConsistencyLevel::kStrong;
  return req;
}

bool GoodResult(const manu::Result<manu::SearchResult>& r) {
  return r.ok() && r.value().coverage >= 1.0 && r.value().ids.size() == kTopK;
}

/// Replays one search through the public layer calls, in the order the
/// proxy makes them, as children of span `root`; then probes the segment,
/// growing-segment, distance-kernel and parser layers as separate roots.
void ReplayTraced(Run& run, const manu::SearchRequest& req, int64_t q, int64_t id,
                  int32_t root, SpanLog* log, manu::ThreadPool* helper,
                  std::vector<double>* routes_per_search,
                  std::vector<double>* segments_per_search) {
  Deployment& dep = *run.dep;
  const manu::CollectionId cid = dep.meta.id;

  std::unique_ptr<manu::FilterExpr> expr;
  if (!req.filter.empty()) {
    auto parsed = Timed(log, id, root, "expr.parse", [&] {
      return manu::FilterExpr::Parse(req.filter, dep.meta.schema);
    });
    if (parsed.ok()) expr = std::move(parsed).value();
  }
  const Timestamp read_ts =
      Timed(log, id, root, "tso.allocate", [&] { return dep.db->tso()->Allocate(); });
  auto plan = Timed(log, id, root, "query_coord.plan",
                    [&] { return dep.db->query_coord()->PlanFor(cid); });
  routes_per_search->push_back(static_cast<double>(plan.routes.size()));
  double segs = 0;
  for (const auto& r : plan.routes) segs += static_cast<double>(r.weight);
  segments_per_search->push_back(segs);

  manu::NodeSearchRequest base;
  base.collection = cid;
  base.targets.push_back({dep.vec_id, req.query.data(), 1.0f});
  base.params.k = req.k;
  base.params.nprobe = req.nprobe;
  base.params.ef_search = req.ef_search;
  base.read_ts = read_ts;
  base.staleness_ms = -1;  // The gate is timed on its own below.
  base.filter = expr.get();

  const int64_t tau = run.strong ? 0 : dep.db->config().default_staleness_ms;
  struct RouteTiming {
    int64_t wait_s, wait_e, search_s, search_e;
    std::vector<manu::Neighbor> hits;
  };
  auto run_route = [&, tau](size_t i) {
    RouteTiming t{};
    const auto& route = plan.routes[i];
    t.wait_s = NowNs();
    if (tau == 0) {
      route.node->WaitServiceTs(cid, read_ts, dep.db->config().max_consistency_wait_ms);
    } else {
      // The bounded-staleness predicate: Lr - Ls < tau.
      const int64_t target_ms = static_cast<int64_t>(manu::PhysicalMs(read_ts)) - tau;
      if (static_cast<int64_t>(manu::PhysicalMs(route.node->ServiceTs(cid))) < target_ms) {
        route.node->WaitServiceTs(cid, manu::ComposeTimestamp(target_ms, 0),
                                  dep.db->config().max_consistency_wait_ms);
      }
    }
    t.wait_e = t.search_s = NowNs();
    manu::NodeSearchRequest nreq = base;
    nreq.sealed_filter = route.sealed_filter;
    auto hits = route.node->Search(nreq);
    t.search_e = NowNs();
    if (hits.ok()) {
      for (const auto& h : hits.value()) t.hits.push_back({h.pk, h.score});
    }
    return t;
  };
  // Route 0 runs here, the rest on the client's helper thread, so the node
  // searches are dispatched concurrently like the proxy's fan-out.
  std::vector<std::future<RouteTiming>> others;
  for (size_t i = 1; i < plan.routes.size(); ++i) {
    others.push_back(helper->Submit([&, i] { return run_route(i); }));
  }
  std::vector<RouteTiming> timings;
  if (!plan.routes.empty()) timings.push_back(run_route(0));
  for (auto& f : others) timings.push_back(f.get());
  std::vector<std::vector<manu::Neighbor>> lists;
  for (auto& t : timings) {
    log->Add(id, root, "query_node.wait", t.wait_s, t.wait_e);
    log->Add(id, root, "query_node.search", t.search_s, t.search_e);
    lists.push_back(std::move(t.hits));
  }
  Timed(log, id, root, "topk.merge",
        [&] { return manu::MergeTopK(lists, req.k, /*dedup_ids=*/true); });

  // --- Layer probes (own roots, so they do not count against the proxy).
  if (plan.routes.empty()) return;
  const auto& route = plan.routes[static_cast<size_t>(id) % plan.routes.size()];
  if (!route.sealed_filter.empty()) {
    manu::NodeSearchRequest one = base;
    one.sealed_filter = {route.sealed_filter[static_cast<size_t>(id / 2) %
                                             route.sealed_filter.size()]};
    Timed(log, id, -1, "segment.scan", [&] { return route.node->Search(one); });
  }
  manu::NodeSearchRequest growing = base;
  growing.sealed_filter = {kNoSegment};
  Timed(log, id, -1, "segment.growing_scan",
        [&] { return route.node->Search(growing); });

  // One segment's worth of base vectors through the distance kernel.
  const int64_t rows = run.sizes.seal_rows;
  const int64_t first =
      (id % std::max<int64_t>(1, run.sizes.base_rows / rows)) * rows;
  std::vector<float> out(static_cast<size_t>(rows));
  Timed(log, id, -1, "simd.l2", [&] {
    manu::simd::L2SqrBatch(req.query.data(), run.in->Base(first),
                           static_cast<size_t>(rows),
                           static_cast<size_t>(run.in->dim), out.data());
    return out[0];
  });
  if (req.filter.empty()) {
    // Requests of this workload carry no filter; the parser is still timed
    // on the 1% predicate so the layer is covered on every workload.
    Timed(log, id, -1, "expr.parse", [&] {
      return manu::FilterExpr::Parse(FilterText(q), dep.meta.schema).ok();
    });
  }
}

/// Closed-loop read client: the next search is sent when the previous one
/// answered. Clients interleave over the query set.
void ReadClient(Run& run, int client, ReadStats* stats, SpanLog* log,
                std::vector<double>* routes, std::vector<double>* segments) {
  std::unique_ptr<manu::ThreadPool> helper;
  if (run.opt.trace) helper = std::make_unique<manu::ThreadPool>(1);
  const int64_t nq = run.sizes.queries;
  int64_t q = client;
  while (NowNs() < std::min(run.stop_ns.load(std::memory_order_acquire),
                            run.read_stop_ns.load(std::memory_order_acquire))) {
    const manu::SearchRequest req = MakeSearch(run, q, kEfSearch);
    const bool traced = run.traced.load(std::memory_order_acquire);
    const int64_t t0 = NowNs();
    auto res = run.dep->db->Search(req);
    const int64_t t1 = NowNs();
    if (run.measuring.load(std::memory_order_acquire)) {
      ++stats->attempted;
      if (GoodResult(res)) {
        stats->lat.push_back({t1, static_cast<double>(t1 - t0) / 1e6});
      } else {
        ++stats->failed;
      }
      if (traced) {
        const int64_t id = run.next_req.fetch_add(1);
        const int32_t root = log->Add(id, -1, "proxy.search", t0, t1);
        ReplayTraced(run, req, q, id, root, log, helper.get(), routes, segments);
      }
    }
    q = (q + kReadClients) % nq;
  }
}

struct Ack {
  Timestamp ts;
  int64_t ack_ns;
  int64_t id;
  bool traced;
};

/// Open-loop writer: inserts of kInsertRows fresh rows at the precomputed
/// Poisson due times; each insert is timed from its due time, and the
/// writer's own lateness (due -> send) is recorded.
void Writer(Run& run, int64_t start_ns, int64_t first_pk, WriteStats* stats,
            SpanLog* log, std::mutex* mu, std::condition_variable* cv,
            std::deque<Ack>* acks, bool* done) {
  Deployment& dep = *run.dep;
  const Inputs& in = *run.in;
  // The stream also runs through the warm-up, which ends no earlier than
  // the window start; only the window's stop time ends it.
  auto past_stop = [&](int64_t due) {
    return run.measuring.load(std::memory_order_acquire) &&
           due >= run.stop_ns.load(std::memory_order_acquire);
  };
  for (size_t b = 0; b < in.due_ns.size(); ++b) {
    const int64_t due = start_ns + in.due_ns[b];
    if (past_stop(due)) break;
    WaitUntilDue(due);
    if (past_stop(due)) break;
    const int64_t send = NowNs();
    const int64_t row0 = static_cast<int64_t>(b) * kInsertRows;
    const int64_t pk0 = first_pk + row0;
    auto batch = MakeBatch(dep, in.dim, pk0, kInsertRows, in.Stream(row0),
                           [&](int64_t i) { return (pk0 + i) % 100; });
    const bool traced = run.traced.load(std::memory_order_acquire);
    auto ts = dep.db->Insert(kCollection, std::move(batch));
    const int64_t ack = NowNs();
    const bool measured = run.measuring.load(std::memory_order_acquire);
    if (measured) {
      ++stats->attempted;
      stats->lateness_ms.push_back(static_cast<double>(send - due) / 1e6);
    }
    if (!ts.ok()) {
      stats->failed += measured ? 1 : 0;
      continue;
    }
    stats->insert.push_back({due, static_cast<double>(ack - due) / 1e6});
    stats->acked.push_back({pk0, row0});
    int64_t id = -1;
    if (traced) {
      id = run.next_req.fetch_add(1);
      log->Add(id, -1, "proxy.insert", send, ack);
      // The same payload on a benchmark-owned channel of the broker.
      manu::LogEntry entry;
      entry.type = manu::LogEntryType::kInsert;
      entry.timestamp = ts.value();
      entry.collection = dep.meta.id;
      entry.batch = MakeBatch(dep, in.dim, pk0, kInsertRows, in.Stream(row0),
                              [&](int64_t i) { return (pk0 + i) % 100; });
      Timed(log, id, -1, "wal.publish", [&] {
        return dep.db->mq()->Publish(kWalProbeChannel, std::move(entry));
      });
    }
    {
      std::lock_guard<std::mutex> lk(*mu);
      acks->push_back({ts.value(), ack, id, traced});
    }
    cv->notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(*mu);
    *done = true;
  }
  cv->notify_one();
}

/// Times ack -> visible for every acked insert. Untraced: until
/// ManuInstance::WaitUntilVisible(ts) returns. Traced: per serving query
/// node, until its WaitServiceTs(ts) returns (the apply lag).
void Tracker(Run& run, WriteStats* stats, SpanLog* log, std::mutex* mu,
             std::condition_variable* cv, std::deque<Ack>* acks, bool* done) {
  Deployment& dep = *run.dep;
  while (true) {
    Ack a;
    {
      std::unique_lock<std::mutex> lk(*mu);
      cv->wait(lk, [&] { return !acks->empty() || *done; });
      if (acks->empty()) return;
      a = acks->front();
      acks->pop_front();
    }
    if (a.traced) {
      for (const auto& node : dep.db->query_coord()->NodesFor(dep.meta.id)) {
        node->WaitServiceTs(dep.meta.id, a.ts, 10000);
        log->Add(a.id, -1, "query_node.apply_lag", a.ack_ns, NowNs());
      }
    } else {
      const auto st = dep.db->WaitUntilVisible(kCollection, a.ts, 10000);
      if (st.ok()) {
        stats->visible.push_back({a.ack_ns, static_cast<double>(NowNs() - a.ack_ns) / 1e6});
      } else {
        ++stats->failed;
      }
    }
  }
}

/// Runs the writer and tracker threads from `start_ns` until run.stop_ns.
void RunWrites(Run& run, int64_t start_ns, int64_t first_pk, WriteStats* stats,
               SpanLog* wlog, SpanLog* tlog) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Ack> acks;
  bool done = false;
  std::thread tracker([&] { Tracker(run, stats, tlog, &mu, &cv, &acks, &done); });
  Writer(run, start_ns, first_pk, stats, wlog, &mu, &cv, &acks, &done);
  tracker.join();
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Mean recall@10 of `got` against `truth`, query by query.
double RecallAt10(const std::vector<std::vector<int64_t>>& got,
                  const std::vector<std::vector<int64_t>>& truth) {
  if (truth.empty()) return 0;
  double sum = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    const size_t denom = std::min(kTopK, truth[q].size());
    if (denom == 0) {
      sum += 1;
      continue;
    }
    size_t hit = 0;
    for (size_t i = 0; i < denom; ++i) {
      if (q < got.size() &&
          std::find(got[q].begin(), got[q].end(), truth[q][i]) != got[q].end()) {
        ++hit;
      }
    }
    sum += static_cast<double>(hit) / static_cast<double>(denom);
  }
  return sum / static_cast<double>(truth.size());
}

struct Check {
  std::string name;
  bool pass;
  std::string detail;
};

/// Searches every query once with the workload's parameters, outside the
/// timed window. One BatchSearch: at tau=0 a sequential pass would wait for
/// a time-tick per query.
std::vector<std::vector<int64_t>> SearchAll(Run& run, int64_t* failures) {
  std::vector<manu::SearchRequest> reqs;
  for (int64_t q = 0; q < run.sizes.queries; ++q) {
    reqs.push_back(MakeSearch(run, q, kEfSearch));
  }
  std::vector<std::vector<int64_t>> got;
  for (const auto& res : run.dep->db->BatchSearch(reqs)) {
    if (!GoodResult(res)) ++*failures;
    got.push_back(res.ok() ? res.value().ids : std::vector<int64_t>{});
  }
  return got;
}

/// "An acked write is never lost": a sample of acked inserts must each come
/// back top-1 from a tau=0 search issued after its ack.
Check CheckAcked(Run& run, const WriteStats& w, const std::string& corrupt) {
  Check c{"acked_inserts_top1", true, ""};
  if (w.acked.empty()) {
    c.pass = false;
    c.detail = "no acked inserts to check";
    return c;
  }
  const size_t n = std::min<size_t>(w.acked.size(), run.sizes.acked_samples);
  std::vector<int64_t> pks;
  std::vector<manu::SearchRequest> reqs;
  for (size_t i = 0; i < n; ++i) {
    const auto& a = w.acked[i * w.acked.size() / n];
    manu::SearchRequest req;
    req.collection = kCollection;
    req.query.assign(run.in->Stream(a.stream_row),
                     run.in->Stream(a.stream_row) + run.in->dim);
    req.k = kTopK;
    req.ef_search = kCheckEf;
    req.consistency = manu::ConsistencyLevel::kStrong;
    reqs.push_back(std::move(req));
    pks.push_back(a.pk);
  }
  auto found = [&](const std::vector<manu::Result<manu::SearchResult>>& results, size_t i,
                   size_t pos) {
    std::vector<int64_t> ids =
        results[i].ok() ? results[i].value().ids : std::vector<int64_t>{};
    if (corrupt == "drop_acked" && pos == 0) {
      ids.erase(std::remove(ids.begin(), ids.end(), pks[pos]), ids.end());
    }
    return !ids.empty() && ids[0] == pks[pos];
  };
  const auto results = run.dep->db->BatchSearch(reqs);
  std::vector<size_t> missing;
  std::string which;
  for (size_t i = 0; i < n; ++i) {
    if (found(results, i, i)) continue;
    if (missing.size() < 5) which += " " + std::to_string(pks[i]);
    missing.push_back(i);
  }
  c.pass = missing.empty();
  c.detail = std::to_string(n - missing.size()) + "/" + std::to_string(n) +
             " acked inserts found top-1";
  if (!missing.empty()) {
    // Diagnosis only (the check has failed already): search the misses
    // again after a pause, which tells a transient visibility gap from a
    // lost write.
    std::this_thread::sleep_for(std::chrono::seconds(2));
    std::vector<manu::SearchRequest> again;
    for (size_t i : missing) again.push_back(reqs[i]);
    const auto later = run.dep->db->BatchSearch(again);
    size_t back = 0;
    for (size_t j = 0; j < missing.size(); ++j) back += found(later, j, missing[j]) ? 1 : 0;
    c.detail += "; missing pks:" + which + (missing.size() > 5 ? " ..." : "") + "; " +
                std::to_string(back) + "/" + std::to_string(missing.size()) +
                " found by the same search 2 s later";
  }
  return c;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample counts etc., printed beside the value.
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// p50 / p95 with the p99 and the sample counts as information.
std::string PctNote(const std::vector<double>& v, double p99, const char* unit) {
  const int64_t n = static_cast<int64_t>(v.size());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%" PRId64 " beyond_p95=%" PRId64 " p99=%.4f %s beyond_p99=%" PRId64,
                n, n - static_cast<int64_t>(std::ceil(0.95 * n)), p99, unit,
                n - static_cast<int64_t>(std::ceil(0.99 * n)));
  return buf;
}

/// Prints checks, metrics and the closing JSON line; returns the exit code.
int PrintResult(const std::vector<Metric>& metrics, const std::vector<Check>& checks,
                int64_t attempted, int64_t failed) {
  bool correct = true;
  for (const Check& c : checks) {
    std::printf("check %-22s %s  %s\n", c.name.c_str(), c.pass ? "PASS" : "FAIL",
                c.detail.c_str());
    correct = correct && c.pass;
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans
// ---------------------------------------------------------------------------

/// Length of the union of the intervals of `children`.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : children) {
    if (s > cur_e) {
      if (cur_e > cur_s) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) covered += cur_e - cur_s;
  return covered;
}

struct LayerInputs {
  std::vector<const SpanLog*> logs;
  std::vector<double> routes_per_search;
  std::vector<double> segments_per_search;
  double untraced_search_p50_ms = 0;
  double cpu_util = 0;
  int64_t threads = 0;
  std::map<std::string, int64_t> counter_deltas;
  double build_p50_ms = 0;
  int64_t seal_rows = 0;
};

std::vector<Metric> LayerMetrics(const LayerInputs& li) {
  std::map<std::string, std::vector<double>> us;  // Span durations by name.
  std::vector<double> self_us, critical_us, l2_ns_per_row;
  for (const SpanLog* log : li.logs) {
    // Children per root span of this log.
    std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>> children;
    std::map<int32_t, int64_t> slowest_node;
    for (const SpanRec& sp : log->spans) {
      us[sp.name].push_back(static_cast<double>(sp.Dur()) / 1e3);
      if (sp.parent >= 0) {
        children[sp.parent].push_back({sp.start_ns, sp.end_ns});
        if (std::strcmp(sp.name, "query_node.search") == 0) {
          slowest_node[sp.parent] = std::max(slowest_node[sp.parent], sp.Dur());
        }
      }
      if (std::strcmp(sp.name, "simd.l2") == 0 && li.seal_rows > 0) {
        l2_ns_per_row.push_back(static_cast<double>(sp.Dur()) /
                                static_cast<double>(li.seal_rows));
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRec& sp = log->spans[i];
      if (std::strcmp(sp.name, "proxy.search") != 0) continue;
      const int32_t idx = static_cast<int32_t>(i);
      self_us.push_back(
          static_cast<double>(sp.Dur() - CoveredNs(children[idx])) / 1e3);
      critical_us.push_back(static_cast<double>(slowest_node[idx]) / 1e3);
    }
  }
  auto p = [&](const char* name, double pct) { return Percentile(&us[name], pct); };
  auto n = [&](const char* name) {
    return "n=" + std::to_string(us[name].size());
  };
  std::vector<Metric> m;
  const double search_p50 = p("proxy.search", 50);
  m.push_back({"proxy.search_p50_us", search_p50, "us", n("proxy.search")});
  m.push_back({"proxy.search_p99_us", p("proxy.search", 99), "us", n("proxy.search")});
  m.push_back({"proxy.self_p50_us", Percentile(&self_us, 50), "us",
               "n=" + std::to_string(self_us.size())});
  m.push_back({"tso.allocate_p50_us", p("tso.allocate", 50), "us", n("tso.allocate")});
  m.push_back({"query_coord.plan_p50_us", p("query_coord.plan", 50), "us",
               n("query_coord.plan")});
  m.push_back({"query_coord.routes_per_search", Mean(li.routes_per_search), "count",
               "n=" + std::to_string(li.routes_per_search.size())});
  m.push_back({"expr.parse_p50_us", p("expr.parse", 50), "us", n("expr.parse")});
  for (const char* s : {"legacy", "postscan", "prefilter", "traversal", "brute_matches"}) {
    const std::string key = std::string("filter.strategy.") + s;
    auto it = li.counter_deltas.find(key);
    m.push_back({key, static_cast<double>(it == li.counter_deltas.end() ? 0 : it->second),
                 "count", "per-segment plans in the window"});
  }
  m.push_back({"query_node.search_p50_us", p("query_node.search", 50), "us",
               n("query_node.search")});
  m.push_back({"query_node.search_p99_us", p("query_node.search", 99), "us",
               n("query_node.search")});
  m.push_back({"query_node.critical_p50_us", Percentile(&critical_us, 50), "us",
               "n=" + std::to_string(critical_us.size())});
  m.push_back({"segment.scan_p50_us", p("segment.scan", 50), "us", n("segment.scan")});
  m.push_back({"segment.scan_p99_us", p("segment.scan", 99), "us", n("segment.scan")});
  m.push_back({"segment.per_search", Mean(li.segments_per_search), "count",
               "n=" + std::to_string(li.segments_per_search.size())});
  m.push_back({"simd.l2_ns_per_row", Percentile(&l2_ns_per_row, 50), "ns",
               "n=" + std::to_string(l2_ns_per_row.size())});
  m.push_back({"segment.growing_scan_p50_us", p("segment.growing_scan", 50), "us",
               n("segment.growing_scan")});
  m.push_back({"topk.merge_p50_us", p("topk.merge", 50), "us", n("topk.merge")});
  m.push_back({"query_node.wait_p50_us", p("query_node.wait", 50), "us",
               n("query_node.wait")});
  m.push_back({"query_node.wait_p99_us", p("query_node.wait", 99), "us",
               n("query_node.wait")});
  m.push_back({"proxy.insert_p50_us", p("proxy.insert", 50), "us", n("proxy.insert")});
  m.push_back({"proxy.insert_p99_us", p("proxy.insert", 99), "us", n("proxy.insert")});
  m.push_back({"wal.publish_p50_us", p("wal.publish", 50), "us", n("wal.publish")});
  m.push_back({"query_node.apply_lag_p50_us", p("query_node.apply_lag", 50), "us",
               n("query_node.apply_lag")});
  auto delta = [&](const char* key) {
    auto it = li.counter_deltas.find(key);
    return static_cast<double>(it == li.counter_deltas.end() ? 0 : it->second);
  };
  m.push_back({"data_node.segments_sealed", delta("data_node.segments_sealed"), "count",
               "in the window"});
  m.push_back({"index_node.indexes_built", delta("index_node.indexes_built"), "count",
               "in the window"});
  m.push_back({"index_node.build_p50_ms", li.build_p50_ms, "ms",
               "every build of the run, set-up included"});
  m.push_back({"process.cpu_util", li.cpu_util, "cores", "untraced half"});
  m.push_back({"process.threads", static_cast<double>(li.threads), "count", ""});
  const double base_us = li.untraced_search_p50_ms * 1e3;
  m.push_back({"trace.overhead_frac", base_us > 0 ? search_p50 / base_us - 1.0 : 0,
               "fraction", "traced proxy.search p50 vs untraced search p50"});
  return m;
}

void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const SpanLog* log : logs) {
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRec& sp = log->spans[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"span\":%zu,\"parent\":%d,\"req\":%" PRId64
                   ",\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                   log->thread.c_str(), i, sp.parent, sp.req, sp.name, sp.start_ns,
                   sp.end_ns);
    }
  }
  std::fclose(f);
}

std::map<std::string, int64_t> CounterSnapshot() {
  const auto& reg = manu::MetricsRegistry::Global();
  std::map<std::string, int64_t> out;
  for (const char* s : {"legacy", "postscan", "prefilter", "traversal", "brute_matches"}) {
    out[std::string("filter.strategy.") + s] =
        reg.CounterValue("filter.strategy", {{"strategy", s}});
  }
  out["data_node.segments_sealed"] = reg.CounterValue("data_node.segments_sealed");
  out["index_node.indexes_built"] = reg.CounterValue("index_node.indexes_built");
  return out;
}

// ---------------------------------------------------------------------------
// Measured window
// ---------------------------------------------------------------------------

/// A fixed measured window: wall time, this process's CPU, and the share of
/// the machine's vCPU time the hypervisor stole meanwhile (printed, so a run
/// disturbed by another tenant can be told apart).
class Window {
 public:
  explicit Window(Run* run, double seconds)
      : start_ns_(NowNs()), steal0_(StealJiffies()), cpu0_(CpuSeconds()) {
    run->stop_ns.store(start_ns_ + static_cast<int64_t>(seconds * 1e9),
                       std::memory_order_release);
  }

  /// Call once the load threads have stopped.
  void Close() {
    end_ns_ = NowNs();
    cpu_s_ = CpuSeconds() - cpu0_;
    const auto j = StealJiffies();
    steal_ = j.second > steal0_.second
                 ? static_cast<double>(j.first - steal0_.first) /
                       static_cast<double>(j.second - steal0_.second)
                 : 0.0;
  }

  int64_t start_ns() const { return start_ns_; }
  double Seconds() const { return static_cast<double>(end_ns_ - start_ns_) / 1e9; }
  double CpuSecondsUsed() const { return cpu_s_; }
  /// The samples that count in this window.
  std::vector<double> Ms(const std::vector<Sample>& samples) const {
    std::vector<double> out;
    for (const Sample& smp : samples) {
      if (smp.t_ns >= start_ns_ && smp.t_ns < end_ns_) out.push_back(smp.ms);
    }
    return out;
  }
  std::string Describe() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "seconds=%.3f cpu_s=%.3f host_steal=%.4f", Seconds(),
                  cpu_s_, steal_);
    return buf;
  }

 private:
  int64_t start_ns_;
  std::pair<int64_t, int64_t> steal0_;
  double cpu0_;
  int64_t end_ns_ = 0;
  double cpu_s_ = 0;
  double steal_ = 0;
};

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

/// Runs kReadClients closed-loop read clients until run.stop_ns.
void RunReads(Run& run, std::vector<ReadStats>* stats, std::vector<SpanLog>* logs,
              std::vector<double>* routes, std::vector<double>* segments) {
  stats->assign(kReadClients, ReadStats{});
  std::vector<std::vector<double>> r(kReadClients), s(kReadClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReadClients; ++c) {
    threads.emplace_back(
        [&, c] { ReadClient(run, c, &(*stats)[c], &(*logs)[c], &r[c], &s[c]); });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kReadClients; ++c) {
    routes->insert(routes->end(), r[c].begin(), r[c].end());
    segments->insert(segments->end(), s[c].begin(), s[c].end());
  }
}

ReadStats Merge(const std::vector<ReadStats>& parts) {
  ReadStats out;
  for (const ReadStats& p : parts) {
    out.lat.insert(out.lat.end(), p.lat.begin(), p.lat.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
  }
  return out;
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& smp : samples) out.push_back(smp.ms);
  return out;
}

/// Progress on stderr, with seconds since start, so a slow phase shows.
void Phase(const char* what) {
  static const int64_t t0 = NowNs();
  std::fprintf(stderr, "perfbench: %7.2f s  %s\n",
               static_cast<double>(NowNs() - t0) / 1e9, what);
}

/// p50 and p95 of `ms`, with the p99 and the sample counts as information.
/// Without `with_p95` the p95 is printed beside the p50 but not reported.
void AddLatency(std::vector<Metric>* m, const std::string& prefix, std::vector<double> ms,
                const std::string& where, bool with_p95 = true) {
  const double p99 = Percentile(&ms, 99);
  const double p95 = Percentile(&ms, 95);
  const std::string p95_note = PctNote(ms, p99, "ms");
  m->push_back({prefix + "_p50_ms", Percentile(&ms, 50), "ms",
                "n=" + std::to_string(ms.size()) + where +
                    (with_p95 ? "" : " p95=" + Num(p95) + " ms " + p95_note)});
  if (with_p95) m->push_back({prefix + "_p95_ms", p95, "ms", p95_note});
}

int Main(int argc, char** argv) {
  Phase("start");
  const Options o = ParseArgs(argc, argv);
  const Sizes s = MakeSizes(o);
  const int nproc = Nproc();
  const ManuConfig cfg = MakeConfig(s, nproc);
  const bool ingest = o.workload == Workload::kIngestStrong;

  // --- Load-shape guard.
  const int executors = cfg.query_threads * cfg.num_query_nodes;
  // Readers, plus the writer and its ack->visible tracker.
  const int load_threads = kReadClients + 2;
  if (executors != nproc) {
    Refuse("query executors (" + std::to_string(executors) + ") differ from nproc (" +
           std::to_string(nproc) + ")");
  }
  if (load_threads > nproc) {
    Refuse("load threads (" + std::to_string(load_threads) + ") exceed nproc (" +
           std::to_string(nproc) + ")");
  }

  std::printf("meta workload=%s seed=%" PRIu64 " seconds=%g trace=%d scale=%s\n",
              o.workload_name.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
              o.tiny ? "tiny" : "full");
  std::printf("meta git_sha=%s src_digest=%s build_type=%s\n", o.git_sha.c_str(),
              o.src_digest.c_str(), PERFBENCH_BUILD_TYPE);
  std::printf("meta nproc=%d cpu_model=\"%s\"\n", nproc, CpuModel().c_str());
  std::printf("meta shards=%d query_nodes=%d query_threads=%d executors=%d "
              "segment_seal_rows=%" PRId64 " base_rows=%" PRId64 " dim=%d\n",
              cfg.num_shards, cfg.num_query_nodes, cfg.query_threads, executors,
              s.seal_rows, s.base_rows, s.dim);
  std::printf("meta load_threads=%d read_clients=%d (closed loop) writer=1 (open loop, "
              "Poisson, %lld rows every %.0f ms on average) tracker=1 ef_search=%d k=%zu\n",
              load_threads, kReadClients, static_cast<long long>(kInsertRows),
              kInsertMeanGapMs, kEfSearch, kTopK);
  std::fflush(stdout);

  const Inputs in = MakeInputs(o, s);
  Phase("inputs and ground truth generated");

  // --- Set-up, repeated; the last deployment serves the run.
  std::vector<double> setup_s;
  Deployment dep;
  for (int32_t rep = 0; rep < s.setup_reps; ++rep) {
    dep = Deployment{};  // Tear the previous one down first,
    malloc_trim(0);      // and hand its heap back so peak RSS is per set-up.
    const int64_t t0 = NowNs();
    auto made = SetUp(cfg, s, in);
    const int64_t t1 = NowNs();
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    dep = std::move(made).value();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    Phase("set-up done");
  }
  std::printf("meta sealed_segments=%" PRId64 " setup_reps=%d\n", dep.sealed_segments,
              s.setup_reps);
  if (dep.sealed_segments < s.min_segments) {
    std::fprintf(stderr, "perfbench: only %" PRId64 " sealed segments, need %" PRId64 "\n",
                 dep.sealed_segments, s.min_segments);
    return 2;
  }

  Run run;
  run.opt = o;
  run.sizes = s;
  run.in = &in;
  run.dep = &dep;
  run.filtered = o.workload == Workload::kAnnFiltered;
  run.strong = ingest;

  std::vector<SpanLog> read_logs(kReadClients);
  for (int c = 0; c < kReadClients; ++c) read_logs[c].thread = "reader" + std::to_string(c);
  SpanLog wlog{"writer", {}}, tlog{"tracker", {}};
  std::vector<double> routes, segments;
  std::vector<ReadStats> parts;

  // --- Warm-up: caches fill and lazy set-up finishes before timing. On
  // ingest_strong the write stream starts here, so the window sees it in
  // steady state.
  const int64_t first_pk = s.base_rows;
  WriteStats writes;
  std::thread writer;
  const int64_t warm_start = NowNs();
  run.stop_ns = warm_start + static_cast<int64_t>(s.warmup_s * 1e9);
  if (ingest) {
    writer = std::thread([&] { RunWrites(run, warm_start, first_pk, &writes, &wlog, &tlog); });
  }
  RunReads(run, &parts, &read_logs, &routes, &segments);
  Phase("warm-up done");

  // --- Measured window.
  const auto counters0 = CounterSnapshot();
  ReadStats reads, traced_reads;
  std::unique_ptr<Window> probe;
  Window window(&run, o.seconds);
  double cpu_untraced = 0, wall_untraced = 0;
  int64_t threads = 0;
  {
    const int64_t start = window.start_ns();
    run.measuring = true;
    std::thread sampler([&] {
      SleepUntilNs(start + static_cast<int64_t>(o.seconds * 1e9) / 4);
      threads = ProcessThreads();
    });
    if (o.trace) {
      // The traced run measures its first half untraced (the overhead
      // baseline) and traces the second half.
      const double cpu0 = CpuSeconds();
      run.read_stop_ns = start + static_cast<int64_t>(o.seconds * 1e9) / 2;
      RunReads(run, &parts, &read_logs, &routes, &segments);
      reads = Merge(parts);
      cpu_untraced = CpuSeconds() - cpu0;
      wall_untraced = static_cast<double>(NowNs() - start) / 1e9;
      run.traced = true;
      run.read_stop_ns = INT64_MAX;
      RunReads(run, &parts, &read_logs, &routes, &segments);
      traced_reads = Merge(parts);
    } else {
      RunReads(run, &parts, &read_logs, &routes, &segments);
      reads = Merge(parts);
    }
    if (writer.joinable()) writer.join();
    sampler.join();
  }
  window.Close();
  run.measuring = false;
  Phase("window done");

  // --- Post-window: recall (and, for ann_*, the idle write probe).
  int64_t check_failures = 0;
  std::vector<std::vector<int64_t>> got = SearchAll(run, &check_failures);
  std::vector<std::vector<int64_t>> truth = in.truth;
  if (ingest) {
    // Truth over the base plus every acked streamed row.
    std::vector<const float*> rows;
    std::vector<int64_t> pks;
    for (int64_t i = 0; i < s.base_rows; ++i) {
      rows.push_back(in.Base(i));
      pks.push_back(i);
    }
    for (const auto& a : writes.acked) {
      for (int64_t r = 0; r < kInsertRows; ++r) {
        rows.push_back(in.Stream(a.stream_row + r));
        pks.push_back(a.pk + r);
      }
    }
    truth.assign(static_cast<size_t>(s.queries), {});
    for (int64_t q = 0; q < s.queries; ++q) {
      truth[q] = ExactTopK(
          in.Query(q), static_cast<int64_t>(rows.size()), s.dim,
          [&](int64_t i) { return rows[i]; }, nullptr, [&](int64_t i) { return pks[i]; });
    }
  }
  if (o.corrupt == "ids") {
    for (auto& ids : got) {
      for (int64_t& id : ids) id = -1 - id;
    }
  }
  const double recall = RecallAt10(got, truth);
  if (!ingest) {
    probe = std::make_unique<Window>(&run, s.write_probe_s);
    run.measuring = true;
    RunWrites(run, probe->start_ns(), first_pk, &writes, &wlog, &tlog);
    probe->Close();
    run.measuring = false;
  }
  Phase("recall pass and write phase done");

  // --- Checks.
  std::vector<Check> checks;
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "recall@10 %.4f, floor %.2f, %" PRId64 " queries",
                  recall, RecallFloor(o.workload), s.queries);
    checks.push_back({"recall_at_10_floor", recall >= RecallFloor(o.workload), buf});
  }
  checks.push_back(CheckAcked(run, writes, o.corrupt));
  std::vector<double> lateness = writes.lateness_ms;
  const double late_p50 = Percentile(&lateness, 50);
  const double late_p95 = Percentile(&lateness, 95);
  const double late_max = lateness.empty() ? 0 : lateness.back();
  const bool on_schedule = late_p95 <= kMaxWriterLatenessMs;
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "writer lateness p50 %.3f ms, p95 %.3f ms, max %.3f ms (limit p95 %.0f ms)",
                  late_p50, late_p95, late_max, kMaxWriterLatenessMs);
    checks.push_back({"writer_on_schedule", on_schedule, buf});
  }
  if (check_failures > 0) {
    checks.push_back({"check_searches_ok", false,
                      std::to_string(check_failures) + " recall searches failed"});
  }

  const ReadStats all_reads = o.trace ? Merge({reads, traced_reads}) : reads;
  int64_t attempted = all_reads.attempted + writes.attempted;
  int64_t failed = all_reads.failed + writes.failed;
  if (!on_schedule) failed = attempted;  // A late open loop voids the run.
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  std::printf("meta attempted=%" PRId64 " failed=%" PRId64 " failed_frac=%.6f\n", attempted,
              failed, failed_frac);

  std::vector<Metric> metrics;
  if (!o.trace) {
    // Write-side samples come from the window on ingest_strong and from the
    // idle write probe on the ann_* workloads.
    const Window& wwin = ingest ? window : *probe;
    std::printf("meta window %s\n", window.Describe().c_str());
    if (!ingest) std::printf("meta write_probe %s\n", probe->Describe().c_str());
    const std::vector<double> lat = Values(reads.lat);
    const std::vector<double> ins = wwin.Ms(writes.insert);
    const double secs = window.Seconds();
    const double ops = static_cast<double>(lat.size() + (ingest ? ins.size() : 0));
    const double cpu_s = window.CpuSecondsUsed();
    std::vector<double> setup = setup_s;
    metrics.push_back({"setup_s", Percentile(&setup, 50), "s",
                       "median of " + std::to_string(setup_s.size()) + " set-ups"});
    if (on_schedule) {
      metrics.push_back({"search_qps", static_cast<double>(lat.size()) / secs, "1/s",
                         "n=" + std::to_string(lat.size()) + " in " + Num(secs) + " s"});
      AddLatency(&metrics, "search", lat, "");
      metrics.push_back({"cpu_ms_per_op", ops > 0 ? cpu_s * 1e3 / ops : 0, "ms",
                         "cpu " + Num(cpu_s) + " s over " + Num(ops) + " ops"});
      const char* where = ingest ? " (window)" : " (idle write probe)";
      // The insert p95 falls in the tail that background index builds
      // cause; its run-to-run spread (0.6 on ingest_strong) is too wide to
      // gate on, so it is printed, not reported.
      AddLatency(&metrics, "insert", ins, where, /*with_p95=*/false);
      AddLatency(&metrics, "visible", wwin.Ms(writes.visible), where);
    }
    metrics.push_back({"recall_at_10", recall, "fraction",
                       "n=" + std::to_string(s.queries) + " queries"});
    metrics.push_back({"ok_frac", 1.0 - failed_frac, "fraction",
                       "failed_frac=" + Num(failed_frac)});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
    for (const char* needed : {"search_p50_ms", "insert_p50_ms", "visible_p50_ms"}) {
      for (const Metric& m : metrics) {
        if (m.name == needed && !(m.value > 0)) {
          checks.push_back({"samples_present", false, std::string(needed) + " has no samples"});
        }
      }
    }
  } else {
    LayerInputs li;
    for (const SpanLog& l : read_logs) li.logs.push_back(&l);
    li.logs.push_back(&wlog);
    li.logs.push_back(&tlog);
    li.routes_per_search = routes;
    li.segments_per_search = segments;
    std::vector<double> untraced = Values(reads.lat);
    li.untraced_search_p50_ms = Percentile(&untraced, 50);
    li.cpu_util = wall_untraced > 0 ? cpu_untraced / wall_untraced : 0;
    li.threads = threads;
    const auto counters1 = CounterSnapshot();
    for (const auto& [k, v] : counters1) li.counter_deltas[k] = v - counters0.at(k);
    li.build_p50_ms = manu::MetricsRegistry::Global()
                          .GetHistogram("index_node.build_latency")
                          ->Percentile(50) / 1e3;
    li.seal_rows = s.seal_rows;
    metrics = LayerMetrics(li);
    WriteSpans(o.spans_path, li.logs);
  }
  Phase("checks done");
  const int code = PrintResult(metrics, checks, attempted, failed);
  dep = Deployment{};
  Phase("torn down");
  return code;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
