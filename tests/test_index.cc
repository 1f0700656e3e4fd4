#include <gtest/gtest.h>

#include <limits>

#include "common/synthetic.h"
#include "index/flat_index.h"
#include "index/hnsw.h"
#include "index/index_factory.h"
#include "index/kmeans.h"
#include "index/metric_util.h"
#include "index/imi.h"
#include "index/pq.h"
#include "index/rq.h"
#include "index/scalar_index.h"
#include "index/sq.h"
#include "index/ssd_index.h"
#include "storage/object_store.h"

namespace manu {
namespace {

// ---------------------------------------------------------------------------
// KMeans
// ---------------------------------------------------------------------------

TEST(KMeans, RecoversWellSeparatedClusters) {
  // Four clearly separated 2-d clusters.
  std::vector<float> data;
  const float centers[4][2] = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  std::mt19937_64 rng(1);
  std::normal_distribution<float> noise(0.0f, 0.1f);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 50; ++i) {
      data.push_back(centers[c][0] + noise(rng));
      data.push_back(centers[c][1] + noise(rng));
    }
  }
  KMeansOptions opts;
  opts.k = 4;
  opts.max_iters = 20;
  KMeansResult km = KMeans(data.data(), 200, 2, opts);
  ASSERT_EQ(km.k, 4);
  // Every point's centroid must be within 1.0 of its true center.
  for (int64_t i = 0; i < 200; ++i) {
    const float* c = km.centroids.data() + km.assignments[i] * 2;
    const float d = simd::L2Sqr(c, data.data() + i * 2, 2);
    EXPECT_LT(d, 1.0f) << "row " << i;
  }
}

TEST(KMeans, HandlesFewerRowsThanK) {
  std::vector<float> data = {0, 0, 1, 1};
  KMeansOptions opts;
  opts.k = 10;
  KMeansResult km = KMeans(data.data(), 2, 2, opts);
  EXPECT_EQ(km.k, 2);
  EXPECT_EQ(km.assignments.size(), 2u);
}

TEST(KMeans, AllDuplicateRows) {
  std::vector<float> data(100 * 4, 3.0f);
  KMeansOptions opts;
  opts.k = 8;
  KMeansResult km = KMeans(data.data(), 100, 4, opts);
  EXPECT_EQ(static_cast<int64_t>(km.assignments.size()), 100);
}

TEST(HierarchicalKMeans, RespectsLeafCap) {
  SyntheticOptions opts;
  opts.num_rows = 5000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  KMeansResult km =
      HierarchicalKMeans(data.data.data(), data.NumRows(), 16, 100, 8, 42);
  ASSERT_GT(km.k, 0);
  std::vector<int64_t> sizes(km.k, 0);
  for (int32_t a : km.assignments) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, km.k);
    ++sizes[a];
  }
  for (int64_t s : sizes) EXPECT_LE(s, 100);
}

TEST(HierarchicalKMeans, DegenerateDuplicatesStillBounded) {
  std::vector<float> data(1000 * 8, 1.0f);
  KMeansResult km = HierarchicalKMeans(data.data(), 1000, 8, 64, 8, 1);
  std::vector<int64_t> sizes(km.k, 0);
  for (int32_t a : km.assignments) ++sizes[a];
  for (int64_t s : sizes) EXPECT_LE(s, 64);
}

// ---------------------------------------------------------------------------
// All vector indexes, parameterized: recall floor, serialization round
// trip, filter semantics.
// ---------------------------------------------------------------------------

struct IndexCase {
  IndexCase(IndexType t, MetricType m, double recall)
      : type(t), metric(m), min_recall(recall) {}

  IndexType type;
  MetricType metric;
  /// gtest prints a parameter's raw bytes into its test name, so the gap
  /// before `min_recall` is a zeroed member rather than padding: padding
  /// holds whatever the stack held and made the names differ per run.
  uint8_t reserved[6] = {};
  double min_recall;  ///< recall@10 floor on the clustered dataset.
};
static_assert(sizeof(IndexCase) == 16, "IndexCase must have no padding");

std::string CaseName(const ::testing::TestParamInfo<IndexCase>& info) {
  return std::string(ToString(info.param.type)) + "_" +
         ToString(info.param.metric);
}

class VectorIndexTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  void SetUp() override {
    opts_.num_rows = 4000;
    opts_.dim = 32;
    opts_.num_clusters = 32;
    opts_.cluster_spread = 0.1;
    opts_.metric = GetParam().metric;
    opts_.normalize = GetParam().metric != MetricType::kL2;
    data_ = MakeClusteredDataset(opts_);
    queries_ = MakeQueries(opts_, 50, 7);
    truth_ = BruteForceGroundTruth(data_, queries_, 10);

    params_.type = GetParam().type;
    params_.metric = GetParam().metric;
    params_.dim = 32;
    params_.nlist = 32;
    params_.pq_m = 8;
    params_.hnsw_m = 12;
    params_.hnsw_ef_construction = 100;
    params_.ssd_replicas = 2;
  }

  Result<std::unique_ptr<VectorIndex>> Build() {
    return BuildVectorIndex(params_, data_.data.data(), data_.NumRows(),
                            &store_, "test/ssd");
  }

  SearchParams Sp(size_t k = 10) const {
    SearchParams sp;
    sp.k = k;
    sp.nprobe = 8;
    sp.ef_search = 64;
    return sp;
  }

  double MeanRecallOf(const VectorIndex& index) {
    double sum = 0;
    for (int64_t q = 0; q < queries_.NumRows(); ++q) {
      auto hits = index.Search(queries_.Row(q), Sp());
      if (hits.ok()) sum += RecallAtK(hits.value(), truth_[q], 10);
    }
    return sum / static_cast<double>(queries_.NumRows());
  }

  SyntheticOptions opts_;
  VectorDataset data_;
  VectorDataset queries_;
  std::vector<std::vector<Neighbor>> truth_;
  IndexParams params_;
  MemoryObjectStore store_;
};

TEST_P(VectorIndexTest, BuildsAndMeetsRecallFloor) {
  auto index = Build();
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->Size(), data_.NumRows());
  EXPECT_GT(index.value()->MemoryBytes(), 0u);
  const double recall = MeanRecallOf(*index.value());
  EXPECT_GE(recall, GetParam().min_recall)
      << ToString(GetParam().type) << " recall=" << recall;
}

TEST_P(VectorIndexTest, SelfQueryFindsSelf) {
  auto index = Build();
  ASSERT_TRUE(index.ok());
  // Quantized indexes may not rank self strictly first; exact ones must.
  if (GetParam().type == IndexType::kFlat ||
      GetParam().type == IndexType::kIvfFlat ||
      GetParam().type == IndexType::kHnsw) {
    auto hits = index.value()->Search(data_.Row(17), Sp());
    ASSERT_TRUE(hits.ok());
    ASSERT_FALSE(hits.value().empty());
    EXPECT_EQ(hits.value()[0].id, 17);
  }
}

TEST_P(VectorIndexTest, SerializeDeserializePreservesResults) {
  auto index = Build();
  ASSERT_TRUE(index.ok());
  BinaryWriter w;
  index.value()->Serialize(&w);
  auto back = DeserializeVectorIndex(w.data(), &store_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value()->Size(), data_.NumRows());
  EXPECT_EQ(back.value()->type(), GetParam().type);
  for (int64_t q = 0; q < 10; ++q) {
    auto a = index.value()->Search(queries_.Row(q), Sp());
    auto b = back.value()->Search(queries_.Row(q), Sp());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].id, b.value()[i].id);
      EXPECT_FLOAT_EQ(a.value()[i].score, b.value()[i].score);
    }
  }
}

TEST_P(VectorIndexTest, DeletedMaskExcludesRows) {
  auto index = Build();
  ASSERT_TRUE(index.ok());
  SearchParams sp = Sp();
  auto before = index.value()->Search(queries_.Row(0), sp);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().empty());

  ConcurrentBitset deleted(static_cast<size_t>(data_.NumRows()));
  for (const Neighbor& n : before.value()) {
    deleted.Set(static_cast<size_t>(n.id));
  }
  sp.deleted = &deleted;
  auto after = index.value()->Search(queries_.Row(0), sp);
  ASSERT_TRUE(after.ok());
  for (const Neighbor& n : after.value()) {
    EXPECT_FALSE(deleted.Test(static_cast<size_t>(n.id)));
  }
}

TEST_P(VectorIndexTest, AllowedMaskRestrictsCandidates) {
  auto index = Build();
  ASSERT_TRUE(index.ok());
  ConcurrentBitset allowed(static_cast<size_t>(data_.NumRows()));
  for (int64_t i = 0; i < data_.NumRows(); i += 2) {
    allowed.Set(static_cast<size_t>(i));
  }
  SearchParams sp = Sp();
  sp.allowed = &allowed;
  auto hits = index.value()->Search(queries_.Row(1), sp);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits.value().empty());
  for (const Neighbor& n : hits.value()) EXPECT_EQ(n.id % 2, 0);
}

TEST_P(VectorIndexTest, VisibleRowsBoundsMvccPrefix) {
  auto index = Build();
  ASSERT_TRUE(index.ok());
  SearchParams sp = Sp();
  sp.visible_rows = data_.NumRows() / 4;
  auto hits = index.value()->Search(queries_.Row(2), sp);
  ASSERT_TRUE(hits.ok());
  for (const Neighbor& n : hits.value()) {
    EXPECT_LT(n.id, data_.NumRows() / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, VectorIndexTest,
    ::testing::Values(
        IndexCase{IndexType::kFlat, MetricType::kL2, 0.999},
        IndexCase{IndexType::kFlat, MetricType::kInnerProduct, 0.999},
        IndexCase{IndexType::kFlat, MetricType::kCosine, 0.999},
        IndexCase{IndexType::kIvfFlat, MetricType::kL2, 0.9},
        IndexCase{IndexType::kIvfFlat, MetricType::kInnerProduct, 0.9},
        IndexCase{IndexType::kIvfSq, MetricType::kL2, 0.8},
        IndexCase{IndexType::kSq8, MetricType::kL2, 0.8},
        IndexCase{IndexType::kSq8, MetricType::kInnerProduct, 0.8},
        IndexCase{IndexType::kPq, MetricType::kL2, 0.15},
        IndexCase{IndexType::kIvfPq, MetricType::kL2, 0.15},
        IndexCase{IndexType::kIvfPq, MetricType::kInnerProduct, 0.15},
        IndexCase{IndexType::kHnsw, MetricType::kL2, 0.9},
        IndexCase{IndexType::kHnsw, MetricType::kInnerProduct, 0.85},
        IndexCase{IndexType::kHnsw, MetricType::kCosine, 0.85},
        IndexCase{IndexType::kIvfHnsw, MetricType::kL2, 0.85},
        IndexCase{IndexType::kRq, MetricType::kL2, 0.3},
        IndexCase{IndexType::kRq, MetricType::kInnerProduct, 0.3},
        IndexCase{IndexType::kImi, MetricType::kL2, 0.5},
        IndexCase{IndexType::kSsdBucket, MetricType::kL2, 0.7}),
    CaseName);

// ---------------------------------------------------------------------------
// Family-specific behaviour
// ---------------------------------------------------------------------------

TEST(FlatIndex, IncrementalAdd) {
  IndexParams params;
  params.type = IndexType::kFlat;
  params.dim = 4;
  FlatIndex index(params);
  std::vector<float> a = {1, 0, 0, 0};
  std::vector<float> b = {0, 1, 0, 0};
  ASSERT_TRUE(index.Add(a.data(), 1).ok());
  ASSERT_TRUE(index.Add(b.data(), 1).ok());
  EXPECT_EQ(index.Size(), 2);
  SearchParams sp;
  sp.k = 1;
  auto hits = index.Search(b.data(), sp);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value()[0].id, 1);
}

TEST(HnswIndex, IncrementalAddKeepsSearchable) {
  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  IndexParams params;
  params.type = IndexType::kHnsw;
  params.dim = 16;
  params.hnsw_m = 8;
  params.hnsw_ef_construction = 60;
  HnswIndex index(params);
  for (int64_t begin = 0; begin < 2000; begin += 500) {
    ASSERT_TRUE(index.Add(data.Row(begin), 500).ok());
  }
  EXPECT_EQ(index.Size(), 2000);
  SearchParams sp;
  sp.k = 1;
  sp.ef_search = 64;
  int hits = 0;
  for (int64_t q = 0; q < 100; ++q) {
    auto res = index.Search(data.Row(q * 19), sp);
    ASSERT_TRUE(res.ok());
    if (!res.value().empty() && res.value()[0].id == q * 19) ++hits;
  }
  EXPECT_GE(hits, 95);  // Near-exact self-retrieval.
}

TEST(ScalarQuantizer, EncodeDecodeBounded) {
  SyntheticOptions opts;
  opts.num_rows = 500;
  opts.dim = 8;
  VectorDataset data = MakeClusteredDataset(opts);
  ScalarQuantizer sq;
  sq.Train(data.data.data(), data.NumRows(), 8);
  std::vector<uint8_t> code(8);
  std::vector<float> decoded(8);
  for (int64_t i = 0; i < data.NumRows(); ++i) {
    sq.Encode(data.Row(i), code.data());
    sq.Decode(code.data(), decoded.data());
    for (int32_t d = 0; d < 8; ++d) {
      // Error bounded by one quantization step of the dim's range.
      EXPECT_NEAR(decoded[d], data.Row(i)[d], 0.02f);
    }
  }
}

TEST(ProductQuantizer, AdcApproximatesTrueDistance) {
  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  ProductQuantizer pq;
  ASSERT_TRUE(pq.Train(data.data.data(), data.NumRows(), 16, 4, 8, 42).ok());

  std::vector<uint8_t> code(4);
  std::vector<float> table(4 * ProductQuantizer::kCodebookSize);
  const float* query = data.Row(0);
  pq.BuildAdcTable(query, MetricType::kL2, table.data());

  // ADC distance must correlate strongly with true distance: check the
  // rank of the true nearest neighbors under ADC.
  double close_err = 0, far_err = 0;
  int close_n = 0, far_n = 0;
  for (int64_t i = 1; i < 500; ++i) {
    pq.Encode(data.Row(i), code.data());
    const float adc = pq.ScoreWithTable(table.data(), code.data());
    const float exact = simd::L2Sqr(query, data.Row(i), 16);
    if (exact < 1.0f) {
      close_err += std::abs(adc - exact);
      ++close_n;
    } else {
      far_err += std::abs(adc - exact);
      ++far_n;
    }
    // ADC error is bounded by quantization distortion, not unbounded.
    EXPECT_LT(std::abs(adc - exact), std::max(2.0f, exact));
  }
  ASSERT_GT(close_n, 0);
  ASSERT_GT(far_n, 0);
}

TEST(ProductQuantizer, RejectsIndivisibleDim) {
  ProductQuantizer pq;
  std::vector<float> data(10 * 10);
  EXPECT_TRUE(pq.Train(data.data(), 10, 10, 3, 4, 1).IsInvalidArgument());
}

TEST(SsdBucketIndex, BucketsAre4KAligned) {
  SyntheticOptions opts;
  opts.num_rows = 3000;
  opts.dim = 32;
  VectorDataset data = MakeClusteredDataset(opts);
  MemoryObjectStore store;
  IndexParams params;
  params.type = IndexType::kSsdBucket;
  params.dim = 32;
  params.ssd_replicas = 2;
  SsdBucketIndex index(params, &store, "ssd/aligned");
  ASSERT_TRUE(index.Build(data.data.data(), data.NumRows()).ok());
  EXPECT_EQ(index.SsdBytes() % 4096, 0u);
  EXPECT_GT(index.NumBuckets(), 0);
  // DRAM footprint must be far below the raw data size.
  EXPECT_LT(index.MemoryBytes(), data.data.size() * sizeof(float) / 2);
}

TEST(SsdBucketIndex, ReplicationDedupsResults) {
  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  MemoryObjectStore store;
  IndexParams params;
  params.type = IndexType::kSsdBucket;
  params.dim = 16;
  params.ssd_replicas = 3;
  SsdBucketIndex index(params, &store, "ssd/dedup");
  ASSERT_TRUE(index.Build(data.data.data(), data.NumRows()).ok());
  SearchParams sp;
  sp.k = 20;
  sp.nprobe = 32;
  auto hits = index.Search(data.Row(5), sp);
  ASSERT_TRUE(hits.ok());
  std::set<int64_t> ids;
  for (const Neighbor& n : hits.value()) {
    EXPECT_TRUE(ids.insert(n.id).second) << "duplicate id " << n.id;
  }
}

TEST(ResidualQuantizer, MoreStagesReduceError) {
  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);

  auto mean_error = [&](int32_t stages) {
    ResidualQuantizer rq;
    EXPECT_TRUE(
        rq.Train(data.data.data(), data.NumRows(), 16, stages, 6, 42).ok());
    std::vector<uint8_t> code(stages);
    std::vector<float> decoded(16);
    double err = 0;
    for (int64_t i = 0; i < 500; ++i) {
      float norm = 0;
      rq.Encode(data.Row(i), code.data(), &norm);
      rq.Decode(code.data(), decoded.data());
      err += simd::L2Sqr(decoded.data(), data.Row(i), 16);
      // Stored reconstruction norm must match the decoded vector.
      EXPECT_NEAR(norm, simd::L2NormSqr(decoded.data(), 16),
                  1e-2f * std::max(1.0f, norm));
    }
    return err / 500.0;
  };

  const double e1 = mean_error(1);
  const double e2 = mean_error(2);
  const double e4 = mean_error(4);
  EXPECT_LT(e2, e1);
  EXPECT_LT(e4, e2);
}

TEST(ImiIndex, ExhaustiveBudgetIsExact) {
  SyntheticOptions opts;
  opts.num_rows = 2000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  IndexParams params;
  params.type = IndexType::kImi;
  params.dim = 16;
  params.nlist = 64;
  ImiIndex index(params);
  ASSERT_TRUE(index.Build(data.data.data(), data.NumRows()).ok());
  EXPECT_GT(index.NumNonEmptyCells(), 32);

  VectorDataset queries = MakeQueries(opts, 20, 7);
  auto truth = BruteForceGroundTruth(data, queries, 10);
  SearchParams sp;
  sp.k = 10;
  sp.nprobe = 100000;  // Budget covers the whole dataset: exact results.
  double recall = 0;
  for (int64_t q = 0; q < queries.NumRows(); ++q) {
    auto hits = index.Search(queries.Row(q), sp);
    ASSERT_TRUE(hits.ok());
    recall += RecallAtK(hits.value(), truth[q], 10);
  }
  EXPECT_GE(recall / queries.NumRows(), 0.999);
}

TEST(IvfHnswIndex, MatchesIvfFlatRecall) {
  // Same coarse clustering; the centroid HNSW must find (almost) the same
  // probe lists as the exact centroid scan.
  SyntheticOptions opts;
  opts.num_rows = 4000;
  opts.dim = 24;
  VectorDataset data = MakeClusteredDataset(opts);
  VectorDataset queries = MakeQueries(opts, 30, 7);
  auto truth = BruteForceGroundTruth(data, queries, 10);

  auto recall_for = [&](IndexType type) {
    IndexParams params;
    params.type = type;
    params.dim = 24;
    params.nlist = 64;
    auto index = BuildVectorIndex(params, data.data.data(), data.NumRows());
    EXPECT_TRUE(index.ok());
    SearchParams sp;
    sp.k = 10;
    sp.nprobe = 12;
    double recall = 0;
    for (int64_t q = 0; q < queries.NumRows(); ++q) {
      auto hits = index.value()->Search(queries.Row(q), sp);
      if (hits.ok()) recall += RecallAtK(hits.value(), truth[q], 10);
    }
    return recall / static_cast<double>(queries.NumRows());
  };

  const double flat = recall_for(IndexType::kIvfFlat);
  const double hnsw = recall_for(IndexType::kIvfHnsw);
  EXPECT_GE(hnsw, flat - 0.05);
}

// ---------------------------------------------------------------------------
// Scalar / label indexes
// ---------------------------------------------------------------------------

TEST(ScalarSortedIndex, RangeAndCount) {
  FieldColumn col = FieldColumn::MakeInt64(1, {5, 3, 9, 3, 7});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  ConcurrentBitset bits(5);
  index.RangeQuery(3, 5, &bits);
  EXPECT_TRUE(bits.Test(0));   // 5
  EXPECT_TRUE(bits.Test(1));   // 3
  EXPECT_TRUE(bits.Test(3));   // 3
  EXPECT_FALSE(bits.Test(2));  // 9
  EXPECT_FALSE(bits.Test(4));  // 7
  EXPECT_EQ(index.CountRange(3, 5), 3);
  EXPECT_EQ(index.CountRange(100, 200), 0);

  bits.Reset();
  index.EqualsQuery(3, &bits);
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(ScalarSortedIndex, SerializeRoundTrip) {
  FieldColumn col = FieldColumn::MakeDouble(1, {1.5, -2.5, 0.0});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.data());
  auto back = ScalarSortedIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().CountRange(-3, 0), 2);
}

TEST(ScalarSortedIndex, RejectsNonNumeric) {
  FieldColumn col = FieldColumn::MakeString(1, {"x"});
  ScalarSortedIndex index;
  EXPECT_FALSE(index.Build(col).ok());
}

TEST(ScalarSortedIndex, NanRowsSortLastAndNeverMatch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  FieldColumn col = FieldColumn::MakeDouble(1, {3.0, nan, -inf, 7.0, nan, inf});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  EXPECT_EQ(index.NumRows(), 6);
  EXPECT_EQ(index.NumFinite(), 4);  // NaNs excluded; ±inf are ordered values.

  // A full-line range sees every non-NaN row, including the infinities.
  ConcurrentBitset bits(6);
  index.RangeQuery(-inf, inf, &bits);
  EXPECT_EQ(bits.Count(), 4u);
  EXPECT_FALSE(bits.Test(1));
  EXPECT_FALSE(bits.Test(4));
  EXPECT_EQ(index.CountRange(-inf, inf), 4);

  // ±inf stored values match their own bound and equality queries.
  bits.Reset();
  index.EqualsQuery(inf, &bits);
  EXPECT_TRUE(bits.Test(5));
  EXPECT_EQ(bits.Count(), 1u);
  bits.Reset();
  index.RangeQuery(-inf, 0.0, &bits);
  EXPECT_TRUE(bits.Test(2));
  EXPECT_EQ(bits.Count(), 1u);

  // NaN rows never match equality, even NaN == NaN style probes.
  bits.Reset();
  index.EqualsQuery(nan, &bits);
  EXPECT_FALSE(bits.Any());
  EXPECT_EQ(index.CountRange(nan, nan), 0);
}

TEST(ScalarSortedIndex, NanBoundsMatchNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FieldColumn col = FieldColumn::MakeDouble(1, {1.0, 2.0, 3.0});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  ConcurrentBitset bits(3);
  index.RangeQuery(nan, 10.0, &bits);
  EXPECT_FALSE(bits.Any());
  index.RangeQuery(0.0, nan, &bits);
  EXPECT_FALSE(bits.Any());
  EXPECT_EQ(index.CountRange(nan, 10.0), 0);
  EXPECT_EQ(index.CountRange(0.0, nan), 0);
}

TEST(ScalarSortedIndex, EmptyColumn) {
  FieldColumn col = FieldColumn::MakeDouble(1, {});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  EXPECT_EQ(index.NumRows(), 0);
  EXPECT_EQ(index.NumFinite(), 0);
  ConcurrentBitset bits(1);
  index.RangeQuery(-1e300, 1e300, &bits);
  EXPECT_FALSE(bits.Any());
  EXPECT_EQ(index.CountRange(-1e300, 1e300), 0);

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.data());
  auto back = ScalarSortedIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 0);
}

TEST(ScalarSortedIndex, SerdePreservesNanTail) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FieldColumn col = FieldColumn::MakeDouble(1, {2.0, nan, 1.0});
  ScalarSortedIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.data());
  auto back = ScalarSortedIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 3);
  EXPECT_EQ(back.value().NumFinite(), 2);  // Recomputed from the value order.
  ConcurrentBitset bits(3);
  back.value().RangeQuery(0.0, 5.0, &bits);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_TRUE(bits.Test(2));
}

// ---------------------------------------------------------------------------
// Factory errors
// ---------------------------------------------------------------------------

TEST(IndexFactory, SsdWithoutStoreFails) {
  IndexParams params;
  params.type = IndexType::kSsdBucket;
  params.dim = 8;
  EXPECT_FALSE(CreateVectorIndex(params).ok());
}

TEST(IndexFactory, DeserializeGarbageFails) {
  EXPECT_FALSE(DeserializeVectorIndex("nonsense").ok());
}

TEST(IndexFactory, EmptyBuildRejectedByIvf) {
  IndexParams params;
  params.type = IndexType::kIvfFlat;
  params.dim = 8;
  EXPECT_FALSE(BuildVectorIndex(params, nullptr, 0).ok());
}

}  // namespace
}  // namespace manu
