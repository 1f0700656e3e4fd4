#include "common/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "simd/distances.h"

namespace manu {

namespace {
void NormalizeRows(VectorDataset* ds) {
  for (int64_t r = 0; r < ds->NumRows(); ++r) {
    float* row = ds->data.data() + r * ds->dim;
    const float norm = std::sqrt(simd::L2NormSqr(row, ds->dim));
    if (norm > 0) {
      for (int32_t d = 0; d < ds->dim; ++d) row[d] /= norm;
    }
  }
}

std::vector<float> MakeCenters(int32_t num_clusters, int32_t dim,
                               uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> uni(0.0f, 1.0f);
  std::vector<float> centers(static_cast<size_t>(num_clusters) * dim);
  for (auto& v : centers) v = uni(rng);
  return centers;
}
}  // namespace

VectorDataset MakeClusteredDataset(const SyntheticOptions& opts) {
  VectorDataset ds;
  ds.dim = opts.dim;
  ds.metric = opts.metric;
  ds.data.resize(static_cast<size_t>(opts.num_rows) * opts.dim);

  // Centers depend only on (seed, clusters, dim) so base data and queries
  // generated with different row seeds share the same mixture.
  const std::vector<float> centers =
      MakeCenters(opts.num_clusters, opts.dim, opts.seed * 31 + 17);

  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<int32_t> pick(0, opts.num_clusters - 1);
  std::normal_distribution<float> noise(
      0.0f, static_cast<float>(opts.cluster_spread));
  for (int64_t r = 0; r < opts.num_rows; ++r) {
    const float* c = centers.data() + static_cast<size_t>(pick(rng)) * opts.dim;
    float* row = ds.data.data() + static_cast<size_t>(r) * opts.dim;
    for (int32_t d = 0; d < opts.dim; ++d) row[d] = c[d] + noise(rng);
  }
  if (opts.normalize) NormalizeRows(&ds);
  return ds;
}

VectorDataset MakeSiftLike(int64_t num_rows, uint64_t seed) {
  SyntheticOptions opts;
  opts.num_rows = num_rows;
  opts.dim = 128;
  opts.num_clusters = 128;
  opts.cluster_spread = 0.12;
  opts.seed = seed;
  opts.metric = MetricType::kL2;
  return MakeClusteredDataset(opts);
}

VectorDataset MakeDeepLike(int64_t num_rows, uint64_t seed) {
  SyntheticOptions opts;
  opts.num_rows = num_rows;
  opts.dim = 96;
  opts.num_clusters = 96;
  opts.cluster_spread = 0.15;
  opts.normalize = true;
  opts.seed = seed;
  opts.metric = MetricType::kInnerProduct;
  return MakeClusteredDataset(opts);
}

VectorDataset MakeQueries(const SyntheticOptions& opts, int64_t num_queries,
                          uint64_t seed) {
  // Different row seed, same center seed: MakeClusteredDataset derives the
  // center seed from opts.seed, so keep it and perturb only the row stream.
  std::vector<float> centers =
      MakeCenters(opts.num_clusters, opts.dim, opts.seed * 31 + 17);
  VectorDataset ds;
  ds.dim = opts.dim;
  ds.metric = opts.metric;
  ds.data.resize(static_cast<size_t>(num_queries) * opts.dim);
  std::mt19937_64 rng(seed * 1000003 + opts.seed);
  std::uniform_int_distribution<int32_t> pick(0, opts.num_clusters - 1);
  std::normal_distribution<float> noise(
      0.0f, static_cast<float>(opts.cluster_spread));
  for (int64_t r = 0; r < num_queries; ++r) {
    const float* c = centers.data() + static_cast<size_t>(pick(rng)) * opts.dim;
    float* row = ds.data.data() + static_cast<size_t>(r) * opts.dim;
    for (int32_t d = 0; d < opts.dim; ++d) row[d] = c[d] + noise(rng);
  }
  if (opts.normalize) NormalizeRows(&ds);
  return ds;
}

float CanonicalScore(const float* a, const float* b, int32_t dim,
                     MetricType metric) {
  switch (metric) {
    case MetricType::kL2:
      return simd::L2Sqr(a, b, dim);
    case MetricType::kInnerProduct:
      return -simd::InnerProduct(a, b, dim);
    case MetricType::kCosine:
      return -simd::CosineSimilarity(a, b, dim);
  }
  return 0;
}

std::vector<std::vector<Neighbor>> BruteForceGroundTruth(
    const VectorDataset& base, const VectorDataset& queries, size_t k) {
  std::vector<std::vector<Neighbor>> out(queries.NumRows());
  for (int64_t q = 0; q < queries.NumRows(); ++q) {
    TopKHeap heap(k);
    const float* qv = queries.Row(q);
    for (int64_t r = 0; r < base.NumRows(); ++r) {
      heap.Push(r, CanonicalScore(qv, base.Row(r), base.dim, base.metric));
    }
    out[q] = heap.TakeSorted();
  }
  return out;
}

double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& truth, size_t k) {
  if (k == 0) return 0;
  std::unordered_set<int64_t> truth_ids;
  for (size_t i = 0; i < std::min(k, truth.size()); ++i) {
    truth_ids.insert(truth[i].id);
  }
  size_t hit = 0;
  for (size_t i = 0; i < std::min(k, result.size()); ++i) {
    hit += truth_ids.count(result[i].id);
  }
  return static_cast<double>(hit) / static_cast<double>(k);
}

double MeanRecall(const std::vector<std::vector<Neighbor>>& results,
                  const std::vector<std::vector<Neighbor>>& truths,
                  size_t k) {
  if (results.empty()) return 0;
  double sum = 0;
  const size_t n = std::min(results.size(), truths.size());
  for (size_t i = 0; i < n; ++i) sum += RecallAtK(results[i], truths[i], k);
  return sum / static_cast<double>(n);
}

}  // namespace manu
