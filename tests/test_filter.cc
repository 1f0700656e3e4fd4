// Filtered-search subsystem tests (label "filter"): bitmap postings and the
// FilterIndex artifact, the cost-based filter planner, planner-vs-postscan
// membership equivalence on exact index configurations, filter-aware ANN
// traversal, and the MVCC-tombstone x attribute-filter composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "common/synthetic.h"
#include "core/expr.h"
#include "core/filter_planner.h"
#include "core/manu.h"
#include "core/segment.h"
#include "index/filter_index.h"
#include "index/index_factory.h"
#include "storage/binlog.h"

namespace manu {
namespace {

// ---------------------------------------------------------------------------
// BitmapPostings
// ---------------------------------------------------------------------------

TEST(BitmapPostings, SparseContainersRoundTrip) {
  const std::vector<int64_t> rows = {0, 5, 100, 65535, 65536, 200000};
  BitmapPostings postings = BitmapPostings::FromSortedRows(rows);
  EXPECT_EQ(postings.cardinality(), 6);
  for (int64_t row : rows) EXPECT_TRUE(postings.Contains(row)) << row;
  EXPECT_FALSE(postings.Contains(1));
  EXPECT_FALSE(postings.Contains(65537));
  EXPECT_FALSE(postings.Contains(300000));

  std::vector<int64_t> back;
  postings.AppendRows(&back);
  EXPECT_EQ(back, rows);

  ConcurrentBitset bits(200001);
  postings.AddTo(&bits);
  EXPECT_EQ(bits.Count(), 6u);
  EXPECT_TRUE(bits.Test(65536));

  BinaryWriter w;
  postings.Serialize(&w);
  BinaryReader r(w.data());
  auto round = BitmapPostings::Deserialize(&r);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().cardinality(), 6);
  std::vector<int64_t> back2;
  round.value().AppendRows(&back2);
  EXPECT_EQ(back2, rows);
}

TEST(BitmapPostings, DenseContainerRoundTrip) {
  // > 4096 members in one 65536-row chunk forces the bitmap representation.
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < 60000; i += 2) rows.push_back(i);
  BitmapPostings postings = BitmapPostings::FromSortedRows(rows);
  EXPECT_EQ(postings.cardinality(), static_cast<int64_t>(rows.size()));
  EXPECT_TRUE(postings.Contains(0));
  EXPECT_TRUE(postings.Contains(59998));
  EXPECT_FALSE(postings.Contains(1));
  EXPECT_FALSE(postings.Contains(59999));
  // Dense form is far below 8 bytes/row.
  EXPECT_LT(postings.MemoryBytes(), rows.size() * sizeof(int64_t) / 2);

  BinaryWriter w;
  postings.Serialize(&w);
  BinaryReader r(w.data());
  auto round = BitmapPostings::Deserialize(&r);
  ASSERT_TRUE(round.ok());
  std::vector<int64_t> back;
  round.value().AppendRows(&back);
  EXPECT_EQ(back, rows);
}

TEST(BitmapPostings, EmptyAndTruncatedStream) {
  BitmapPostings empty = BitmapPostings::FromSortedRows({});
  EXPECT_EQ(empty.cardinality(), 0);
  EXPECT_FALSE(empty.Contains(0));
  BinaryWriter w;
  empty.Serialize(&w);
  BinaryReader r(w.data());
  ASSERT_TRUE(BitmapPostings::Deserialize(&r).ok());

  // A truncated stream must fail cleanly, not crash or fabricate rows.
  BitmapPostings full = BitmapPostings::FromSortedRows({1, 2, 3, 70000});
  BinaryWriter w2;
  full.Serialize(&w2);
  const std::string bytes = w2.data();
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    BinaryReader tr(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(BitmapPostings::Deserialize(&tr).ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// LabelBitmapIndex / FilterIndex artifact
// ---------------------------------------------------------------------------

TEST(LabelBitmapIndex, QueryPostingSizeSerde) {
  FieldColumn col =
      FieldColumn::MakeString(7, {"b", "a", "b", "c", "a", "b"});
  LabelBitmapIndex index;
  ASSERT_TRUE(index.Build(col).ok());
  EXPECT_EQ(index.NumRows(), 6);
  EXPECT_EQ(index.PostingSize("b"), 3);
  EXPECT_EQ(index.PostingSize("a"), 2);
  EXPECT_EQ(index.PostingSize("zzz"), 0);

  ConcurrentBitset bits(6);
  index.EqualsQuery("b", &bits);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_TRUE(bits.Test(2));
  EXPECT_TRUE(bits.Test(5));
  bits.Reset();
  index.EqualsQuery("zzz", &bits);  // Absent label: no rows.
  EXPECT_FALSE(bits.Any());

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.data());
  auto round = LabelBitmapIndex::Deserialize(&r);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().PostingSize("c"), 1);
  ConcurrentBitset bits2(6);
  round.value().EqualsQuery("a", &bits2);
  EXPECT_TRUE(bits2.Test(1));
  EXPECT_TRUE(bits2.Test(4));
  EXPECT_EQ(bits2.Count(), 2u);
}

EntityBatch SmallMixedBatch() {
  EntityBatch batch;
  for (int64_t i = 0; i < 8; ++i) {
    batch.primary_keys.push_back(i);
    batch.timestamps.push_back(1000 + i);
  }
  batch.columns.push_back(
      FieldColumn::MakeInt64(2, {3, 1, 4, 1, 5, 9, 2, 6}));
  batch.columns.push_back(FieldColumn::MakeDouble(
      3, {0.5, -1.0, 2.5, 2.5, 0.0, 7.0, -3.5, 1.0}));
  batch.columns.push_back(FieldColumn::MakeString(
      4, {"x", "y", "x", "z", "y", "x", "x", "w"}));
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      5, 2, std::vector<float>(16, 0.0f)));
  return batch;
}

TEST(FilterIndex, BuildAccessorsSerde) {
  FilterIndex index;
  ASSERT_TRUE(index.Build(SmallMixedBatch()).ok());
  EXPECT_EQ(index.NumRows(), 8);
  ASSERT_NE(index.scalar(2), nullptr);
  ASSERT_NE(index.scalar(3), nullptr);
  ASSERT_NE(index.label(4), nullptr);
  EXPECT_EQ(index.scalar(5), nullptr);  // Vector column is not indexed.
  EXPECT_EQ(index.label(2), nullptr);   // Numeric column has no label index.
  EXPECT_GT(index.MemoryBytes(), 0u);

  EXPECT_EQ(index.scalar(2)->CountRange(1, 4), 5);
  EXPECT_EQ(index.label(4)->PostingSize("x"), 4);

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.data());
  auto round = FilterIndex::Deserialize(&r);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().NumRows(), 8);
  ASSERT_NE(round.value().scalar(3), nullptr);
  EXPECT_EQ(round.value().scalar(3)->CountRange(0.0, 2.5), 5);
  ASSERT_NE(round.value().label(4), nullptr);
  EXPECT_EQ(round.value().label(4)->PostingSize("w"), 1);
}

// ---------------------------------------------------------------------------
// Planner unit behavior
// ---------------------------------------------------------------------------

TEST(FilterPlanner, StrategySelection) {
  constexpr FilterStrategy kAuto = FilterStrategy::kNone;
  // Sealed segment: a full index, traversal support by engine type.
  const auto sealed = [](double sel, IndexType type) {
    return PlanFilter(kAuto, true, sel, true, SupportsFilteredTraversal(type))
        .strategy;
  };
  // Growing segment: slice indexes without traversal.
  const auto growing = [](FilterStrategy force, double sel) {
    return PlanFilter(force, true, sel, true, false).strategy;
  };
  // Very selective -> brute force over the matches, index or not.
  EXPECT_EQ(sealed(0.01, IndexType::kHnsw), FilterStrategy::kBruteMatches);
  // No usable index -> brute matches regardless of selectivity.
  EXPECT_EQ(PlanFilter(kAuto, true, 0.7, false, false).strategy,
            FilterStrategy::kBruteMatches);
  // Mid selectivity + traversal-capable engine -> filtered traversal.
  EXPECT_EQ(sealed(0.2, IndexType::kHnsw), FilterStrategy::kTraversal);
  EXPECT_EQ(sealed(0.2, IndexType::kIvfFlat), FilterStrategy::kTraversal);
  // Mid selectivity + engine without traversal support -> pre-filter mask.
  EXPECT_EQ(sealed(0.2, IndexType::kFlat), FilterStrategy::kPreFilter);
  // Broad filter -> pre-filter mask.
  EXPECT_EQ(sealed(0.9, IndexType::kHnsw), FilterStrategy::kPreFilter);
  // Growing: 1% scans the matches, 20% and 60% take the slice path.
  EXPECT_EQ(growing(kAuto, 0.01), FilterStrategy::kBruteMatches);
  EXPECT_EQ(growing(kAuto, 0.2), FilterStrategy::kPreFilter);
  EXPECT_EQ(growing(kAuto, 0.6), FilterStrategy::kPreFilter);
  // Force overrides everything, on both segment kinds.
  EXPECT_EQ(PlanFilter(FilterStrategy::kPostScan, true, 0.01, true, true)
                .strategy,
            FilterStrategy::kPostScan);
  EXPECT_EQ(growing(FilterStrategy::kBruteMatches, 0.6),
            FilterStrategy::kBruteMatches);
  // No filter -> kNone, even when a strategy is forced.
  EXPECT_EQ(PlanFilter(FilterStrategy::kPostScan, false, 1.0, true, true)
                .strategy,
            FilterStrategy::kNone);
}

// ---------------------------------------------------------------------------
// Segment-level equivalence + MVCC interaction
// ---------------------------------------------------------------------------

class FilterSearchTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 2000;
  static constexpr int32_t kDim = 8;

  void SetUp() override {
    schema_ = CollectionSchema("items");
    FieldSchema pk;
    pk.name = "id";
    pk.type = DataType::kInt64;
    pk.is_primary = true;
    ASSERT_TRUE(schema_.AddField(pk).ok());
    FieldSchema vec;
    vec.name = "v";
    vec.type = DataType::kFloatVector;
    vec.dim = kDim;
    vec.metric = MetricType::kL2;
    ASSERT_TRUE(schema_.AddField(vec).ok());
    FieldSchema price;
    price.name = "price";
    price.type = DataType::kInt64;
    ASSERT_TRUE(schema_.AddField(price).ok());
    vec_id_ = schema_.FieldByName("v")->id;
    price_id_ = schema_.FieldByName("price")->id;

    SyntheticOptions opts;
    opts.num_rows = kRows;
    opts.dim = kDim;
    opts.num_clusters = 12;
    data_ = MakeClusteredDataset(opts);
  }

  /// pk == row index, timestamps 1000+row, price == row % 100 (so
  /// "price < P" has exact selectivity P%).
  EntityBatch Batch(int64_t begin, int64_t end) const {
    EntityBatch batch;
    std::vector<int64_t> prices;
    for (int64_t i = begin; i < end; ++i) {
      batch.primary_keys.push_back(i);
      batch.timestamps.push_back(static_cast<Timestamp>(1000 + i));
      prices.push_back(i % 100);
    }
    batch.columns.push_back(FieldColumn::MakeFloatVector(
        vec_id_, kDim,
        std::vector<float>(data_.Row(begin),
                           data_.Row(begin) + (end - begin) * kDim)));
    batch.columns.push_back(FieldColumn::MakeInt64(price_id_, prices));
    return batch;
  }

  std::unique_ptr<SealedSegment> MakeSealed(IndexType type) const {
    auto seg = std::make_unique<SealedSegment>(1, &schema_);
    EXPECT_TRUE(seg->SetRows(Batch(0, kRows)).ok());
    EXPECT_TRUE(seg->BuildScalarIndexes().ok());
    if (type == IndexType::kFlat || type == IndexType::kIvfFlat ||
        type == IndexType::kHnsw) {
      IndexParams params;
      params.type = type;
      params.dim = kDim;
      params.nlist = 16;
      params.hnsw_m = 16;
      params.hnsw_ef_construction = 120;
      auto index = BuildVectorIndex(params, data_.data.data(), kRows);
      EXPECT_TRUE(index.ok());
      EXPECT_TRUE(seg->SetIndex(vec_id_, std::move(index).value()).ok());
    }
    return seg;
  }

  /// Exact filtered top-k reference: raw scan over every visible,
  /// non-deleted row passing `pred`, by L2 distance.
  std::vector<int64_t> Reference(const float* query, size_t k,
                                 Timestamp read_ts,
                                 const std::set<int64_t>& deleted,
                                 Timestamp delete_ts,
                                 int64_t price_below) const {
    std::vector<std::pair<float, int64_t>> scored;
    for (int64_t row = 0; row < kRows; ++row) {
      if (static_cast<Timestamp>(1000 + row) > read_ts) continue;
      if (deleted.count(row) > 0 && delete_ts <= read_ts) continue;
      if (row % 100 >= price_below) continue;
      scored.push_back(
          {L2Distance(query, data_.Row(row), kDim), row});
    }
    std::sort(scored.begin(), scored.end());
    if (scored.size() > k) scored.resize(k);
    std::vector<int64_t> pks;
    for (const auto& [_, row] : scored) pks.push_back(row);
    std::sort(pks.begin(), pks.end());
    return pks;
  }

  static float L2Distance(const float* a, const float* b, int32_t dim) {
    float sum = 0;
    for (int32_t i = 0; i < dim; ++i) {
      const float d = a[i] - b[i];
      sum += d * d;
    }
    return sum;
  }

  static std::vector<int64_t> SortedPks(const std::vector<SegmentHit>& hits) {
    std::vector<int64_t> pks;
    for (const auto& h : hits) pks.push_back(h.pk);
    std::sort(pks.begin(), pks.end());
    return pks;
  }

  SegmentSearchRequest Req(int64_t query_row, size_t k,
                           const FilterExpr* filter) const {
    SegmentSearchRequest req;
    req.field = vec_id_;
    req.query = data_.Row(query_row);
    req.params.k = k;
    req.params.nprobe = 16;  // == nlist: IVF probes every list (exact).
    req.filter = filter;
    return req;
  }

  CollectionSchema schema_;
  FieldId vec_id_ = 0;
  FieldId price_id_ = 0;
  VectorDataset data_;
};

TEST_F(FilterSearchTest, StrategiesAgreeOnExactEngines) {
  // On exact configurations (flat; IVF probing every list; no index at
  // all), every planner strategy must return byte-identical membership to
  // the post-scan reference. Property-checked across random queries and a
  // selectivity sweep.
  const std::vector<IndexType> engines = {IndexType::kFlat,
                                          IndexType::kIvfFlat,
                                          IndexType::kImi /* = no index */};
  const std::vector<int64_t> prices = {1, 5, 25, 60, 90};  // Selectivity %.
  const std::vector<FilterStrategy> forced = {
      FilterStrategy::kPreFilter, FilterStrategy::kBruteMatches,
      FilterStrategy::kTraversal};
  // The planner's own choice for each engine at `price`% selectivity.
  const auto planned = [](IndexType engine, int64_t price) {
    if (engine == IndexType::kImi || price < 15) {
      return FilterStrategy::kBruteMatches;
    }
    if (engine == IndexType::kIvfFlat && price < 50) {
      return FilterStrategy::kTraversal;
    }
    return FilterStrategy::kPreFilter;
  };
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> pick_row(0, kRows - 1);

  for (IndexType engine : engines) {
    auto seg = engine == IndexType::kImi ? [this] {
      auto s = std::make_unique<SealedSegment>(1, &schema_);
      EXPECT_TRUE(s->SetRows(Batch(0, kRows)).ok());
      EXPECT_TRUE(s->BuildScalarIndexes().ok());
      return s;
    }() : MakeSealed(engine);
    for (int64_t price : prices) {
      auto expr = FilterExpr::Parse(
          "price < " + std::to_string(price), schema_);
      ASSERT_TRUE(expr.ok());
      for (int trial = 0; trial < 3; ++trial) {
        const int64_t qrow = pick_row(rng);
        const std::vector<int64_t> want =
            Reference(data_.Row(qrow), 10, kMaxTimestamp, {}, 0, price);
        for (FilterStrategy force : forced) {
          SegmentSearchRequest req = Req(qrow, 10, expr.value().get());
          req.force_strategy = force;
          FilterPlan plan;
          req.plan_out = &plan;
          auto hits = seg->Search(req);
          ASSERT_TRUE(hits.ok()) << hits.status().ToString();
          EXPECT_EQ(SortedPks(hits.value()), want)
              << "engine=" << static_cast<int>(engine) << " price=" << price
              << " force=" << FilterStrategyName(force) << " q=" << qrow;
          EXPECT_NEAR(plan.selectivity, price / 100.0, 0.01);
        }
        // The unforced default plan agrees too.
        SegmentSearchRequest req = Req(qrow, 10, expr.value().get());
        FilterPlan plan;
        req.plan_out = &plan;
        auto hits = seg->Search(req);
        ASSERT_TRUE(hits.ok());
        EXPECT_EQ(SortedPks(hits.value()), want);
        EXPECT_EQ(plan.strategy, planned(engine, price))
            << "engine=" << static_cast<int>(engine) << " price=" << price;
      }
    }
  }
}

TEST_F(FilterSearchTest, PostScanBaselineExactWhenOverfetchCoversSegment) {
  // With k/sel + 16 >= rows the forced post-scan baseline degenerates to a
  // full exact scan + intersect: byte-identical membership to the planner
  // strategies. (At tighter budgets it is approximate by design — that gap
  // is exactly what bench_filtered measures.)
  auto seg = MakeSealed(IndexType::kFlat);
  auto expr = FilterExpr::Parse("price < 1", schema_);  // sel = 1%.
  ASSERT_TRUE(expr.ok());
  const std::vector<int64_t> want =
      Reference(data_.Row(3), 25, kMaxTimestamp, {}, 0, 1);
  SegmentSearchRequest req = Req(3, 25, expr.value().get());
  req.force_strategy = FilterStrategy::kPostScan;
  FilterPlan plan;
  req.plan_out = &plan;
  auto hits = seg->Search(req);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(SortedPks(hits.value()), want);
  EXPECT_EQ(plan.strategy, FilterStrategy::kPostScan);
}

TEST_F(FilterSearchTest, HnswFilteredTraversalSatisfiesFilterWithRecall) {
  auto seg = MakeSealed(IndexType::kHnsw);
  std::mt19937 rng(11);
  std::uniform_int_distribution<int64_t> pick_row(0, kRows - 1);
  for (int64_t price : {2, 10, 40}) {
    auto expr =
        FilterExpr::Parse("price < " + std::to_string(price), schema_);
    ASSERT_TRUE(expr.ok());
    double recall_sum = 0;
    int trials = 0;
    for (int trial = 0; trial < 5; ++trial) {
      const int64_t qrow = pick_row(rng);
      const std::vector<int64_t> want =
          Reference(data_.Row(qrow), 10, kMaxTimestamp, {}, 0, price);
      SegmentSearchRequest req = Req(qrow, 10, expr.value().get());
      req.force_strategy = FilterStrategy::kTraversal;
      auto hits = seg->Search(req);
      ASSERT_TRUE(hits.ok());
      ASSERT_FALSE(hits.value().empty());
      int found = 0;
      for (const auto& h : hits.value()) {
        EXPECT_LT(h.pk % 100, price);  // Every hit satisfies the filter.
        if (std::binary_search(want.begin(), want.end(), h.pk)) ++found;
      }
      recall_sum += static_cast<double>(found) /
                    static_cast<double>(want.size());
      ++trials;
    }
    EXPECT_GE(recall_sum / trials, 0.85) << "price=" << price;
  }
}

TEST_F(FilterSearchTest, TombstoneAndFilterComposeOnSealed) {
  // Satellite (b): the tombstone mask and the filter's allowed mask are
  // ANDed once (SegmentCore::BuildScanMask); MVCC read points before/after
  // the delete LSN see different compositions.
  auto seg = MakeSealed(IndexType::kIvfFlat);
  const Timestamp delete_ts = 5000;
  std::set<int64_t> deleted;
  for (int64_t pk = 0; pk < kRows; pk += 7) {
    seg->Delete(pk, delete_ts);
    deleted.insert(pk);
  }
  auto expr = FilterExpr::Parse("price < 30", schema_);
  ASSERT_TRUE(expr.ok());

  for (FilterStrategy force :
       {FilterStrategy::kNone, FilterStrategy::kPreFilter,
        FilterStrategy::kBruteMatches, FilterStrategy::kTraversal}) {
    // Read before the delete LSN: tombstones invisible, filter applies.
    SegmentSearchRequest req = Req(42, 10, expr.value().get());
    req.read_ts = 4000;
    req.force_strategy = force;
    auto hits = seg->Search(req);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(SortedPks(hits.value()),
              Reference(data_.Row(42), 10, 4000, deleted, delete_ts, 30));

    // Read after: both masks compose.
    req.read_ts = 6000;
    hits = seg->Search(req);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(SortedPks(hits.value()),
              Reference(data_.Row(42), 10, 6000, deleted, delete_ts, 30))
        << FilterStrategyName(force);
    for (const auto& h : hits.value()) {
      EXPECT_EQ(deleted.count(h.pk), 0u);
      EXPECT_LT(h.pk % 100, 30);
    }

    // Time travel: a read_ts that truncates the visible prefix (rows with
    // LSN <= 1999 only) still composes with the filter.
    req.read_ts = 1999;
    hits = seg->Search(req);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(SortedPks(hits.value()),
              Reference(data_.Row(42), 10, 1999, deleted, delete_ts, 30));
    for (const auto& h : hits.value()) EXPECT_LT(h.pk, 1000);
  }
}

TEST_F(FilterSearchTest, TombstoneAndFilterComposeOnGrowing) {
  GrowingSegment seg(1, &schema_, /*slice_rows=*/256);
  for (int64_t begin = 0; begin < kRows; begin += 500) {
    ASSERT_TRUE(seg.Append(Batch(begin, begin + 500)).ok());
  }
  ASSERT_GT(seg.NumSlicesIndexed(), 0);
  const Timestamp delete_ts = 5000;
  std::set<int64_t> deleted;
  for (int64_t pk = 3; pk < kRows; pk += 11) {
    seg.Delete(pk, delete_ts);
    deleted.insert(pk);
  }
  auto expr = FilterExpr::Parse("price < 4", schema_);  // 4% selectivity.
  ASSERT_TRUE(expr.ok());

  // Under the brute threshold the growing planner scans just the matches —
  // exact, so membership equals the reference with both masks applied.
  SegmentSearchRequest req = Req(42, 10, expr.value().get());
  req.read_ts = 6000;
  FilterPlan plan;
  req.plan_out = &plan;
  auto hits = seg.Search(req);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(plan.strategy, FilterStrategy::kBruteMatches);
  EXPECT_EQ(SortedPks(hits.value()),
            Reference(data_.Row(42), 10, 6000, deleted, delete_ts, 4));

  // Broad filter through the slice-index path: every hit satisfies filter
  // and tombstones.
  auto broad = FilterExpr::Parse("price < 60", schema_);
  ASSERT_TRUE(broad.ok());
  SegmentSearchRequest req2 = Req(42, 10, broad.value().get());
  req2.read_ts = 6000;
  FilterPlan plan2;
  req2.plan_out = &plan2;
  hits = seg.Search(req2);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(plan2.strategy, FilterStrategy::kPreFilter);
  for (const auto& h : hits.value()) {
    EXPECT_EQ(deleted.count(h.pk), 0u);
    EXPECT_LT(h.pk % 100, 60);
  }

  // A forced strategy wins over the growing plan: brute-forcing the
  // matches of the broad filter is exact.
  req2.force_strategy = FilterStrategy::kBruteMatches;
  hits = seg.Search(req2);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(plan2.strategy, FilterStrategy::kBruteMatches);
  EXPECT_EQ(SortedPks(hits.value()),
            Reference(data_.Row(42), 10, 6000, deleted, delete_ts, 60));

  // Before the delete LSN the tombstones are invisible.
  req.read_ts = 4000;
  hits = seg.Search(req);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(SortedPks(hits.value()),
            Reference(data_.Row(42), 10, 4000, deleted, delete_ts, 4));
}

TEST_F(FilterSearchTest, PersistedArtifactMatchesLocalIndexes) {
  // A segment carrying the persisted FilterIndex artifact must answer
  // filtered searches identically to one with locally-built scalar indexes.
  auto local = MakeSealed(IndexType::kFlat);

  auto artifact = std::make_unique<SealedSegment>(2, &schema_);
  ASSERT_TRUE(artifact->SetRows(Batch(0, kRows)).ok());
  {
    IndexParams params;
    params.type = IndexType::kFlat;
    params.dim = kDim;
    auto index = BuildVectorIndex(params, data_.data.data(), kRows);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(artifact->SetIndex(vec_id_, std::move(index).value()).ok());
  }
  FilterIndex built;
  ASSERT_TRUE(built.Build(Batch(0, kRows)).ok());
  // Round-trip through bytes, as the query node does on load.
  BinaryWriter w;
  built.Serialize(&w);
  BinaryReader r(w.data());
  auto loaded = FilterIndex::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(artifact->HasFilterIndex());
  ASSERT_TRUE(artifact
                  ->SetFilterIndex(std::make_shared<const FilterIndex>(
                      std::move(loaded).value()))
                  .ok());
  EXPECT_TRUE(artifact->HasFilterIndex());

  auto expr = FilterExpr::Parse("price < 15", schema_);
  ASSERT_TRUE(expr.ok());
  for (FilterStrategy force :
       {FilterStrategy::kNone, FilterStrategy::kPreFilter,
        FilterStrategy::kBruteMatches}) {
    SegmentSearchRequest req = Req(7, 10, expr.value().get());
    req.force_strategy = force;
    FilterPlan pa, pb;
    req.plan_out = &pa;
    auto via_local = local->Search(req);
    req.plan_out = &pb;
    auto via_artifact = artifact->Search(req);
    ASSERT_TRUE(via_local.ok());
    ASSERT_TRUE(via_artifact.ok());
    EXPECT_EQ(SortedPks(via_local.value()), SortedPks(via_artifact.value()));
    EXPECT_NEAR(pa.selectivity, pb.selectivity, 1e-9);
  }

  // Rejects artifacts that don't cover the segment.
  FilterIndex wrong;
  ASSERT_TRUE(wrong.Build(Batch(0, 10)).ok());
  EXPECT_FALSE(
      artifact->SetFilterIndex(std::make_shared<const FilterIndex>(wrong))
          .ok());
}

TEST_F(FilterSearchTest, ExprAgreesWithFilterIndexOnRandomData) {
  // Satellite (c): property check — evaluating an expression through the
  // FilterIndex artifact and through raw column scans yields identical
  // bitsets on random data.
  std::mt19937 rng(23);
  const int64_t n = 512;
  std::uniform_int_distribution<int64_t> count_dist(0, 50);
  std::uniform_real_distribution<double> price_dist(-10.0, 10.0);
  const std::vector<std::string> label_pool = {"a", "b", "c'd", "e\"f",
                                               "g\\h", "", "tail"};
  std::uniform_int_distribution<size_t> label_dist(0, label_pool.size() - 1);

  CollectionSchema schema("rand");
  FieldSchema pk;
  pk.name = "id";
  pk.type = DataType::kInt64;
  pk.is_primary = true;
  ASSERT_TRUE(schema.AddField(pk).ok());
  FieldSchema count;
  count.name = "count";
  count.type = DataType::kInt64;
  ASSERT_TRUE(schema.AddField(count).ok());
  FieldSchema price;
  price.name = "price";
  price.type = DataType::kDouble;
  ASSERT_TRUE(schema.AddField(price).ok());
  FieldSchema label;
  label.name = "label";
  label.type = DataType::kString;
  ASSERT_TRUE(schema.AddField(label).ok());

  std::vector<int64_t> counts;
  std::vector<double> prices;
  std::vector<std::string> labels;
  EntityBatch batch;
  for (int64_t i = 0; i < n; ++i) {
    batch.primary_keys.push_back(i);
    batch.timestamps.push_back(1000 + i);
    counts.push_back(count_dist(rng));
    // Sprinkle NaNs: the index path and the raw path must agree on them.
    prices.push_back(i % 31 == 0 ? std::nan("") : price_dist(rng));
    labels.push_back(label_pool[label_dist(rng)]);
  }
  const FieldId count_id = schema.FieldByName("count")->id;
  const FieldId price_id = schema.FieldByName("price")->id;
  const FieldId label_id = schema.FieldByName("label")->id;
  batch.columns.push_back(FieldColumn::MakeInt64(count_id, counts));
  batch.columns.push_back(FieldColumn::MakeDouble(price_id, prices));
  batch.columns.push_back(FieldColumn::MakeString(label_id, labels));

  FilterIndex index;
  ASSERT_TRUE(index.Build(batch).ok());

  FilterContext raw;
  raw.num_rows = n;
  raw.column = [&](FieldId id) -> const FieldColumn* {
    return batch.ColumnByFieldId(id);
  };
  FilterContext indexed = raw;
  indexed.scalar_index = [&](FieldId id) { return index.scalar(id); };
  indexed.label_bitmap = [&](FieldId id) { return index.label(id); };

  const std::vector<std::string> exprs = {
      "count < 10",
      "count >= 25 && count <= 40",
      "price > 0",
      "price != 3.5",
      "!(price <= 0)",
      "label == 'a'",
      "label != 'b'",
      "label == 'c\\'d'",
      "label == \"e\\\"f\"",
      "label == 'g\\\\h'",
      "(count < 10 || count > 45) && price > -5",
      "!(label == 'a' && price > 0) || count == 7",
      "count < 5 || count < 15 && label == 'tail'",
  };
  for (const std::string& text : exprs) {
    auto expr = FilterExpr::Parse(text, schema);
    ASSERT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
    ConcurrentBitset via_raw(n), via_index(n);
    ASSERT_TRUE(expr.value()->Evaluate(raw, &via_raw).ok()) << text;
    ASSERT_TRUE(expr.value()->Evaluate(indexed, &via_index).ok()) << text;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(via_raw.Test(i), via_index.Test(i))
          << text << " row " << i << " count=" << counts[i]
          << " price=" << prices[i] << " label='" << labels[i] << "'";
    }
    // The selectivity estimate through the index is sane and within [0,1].
    const double est = expr.value()->EstimateSelectivity(indexed);
    EXPECT_GE(est, 0.0) << text;
    EXPECT_LE(est, 1.0) << text;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: artifact build + registration through the cluster
// ---------------------------------------------------------------------------

TEST(FilterE2E, ArtifactBuiltRegisteredAndServed) {
  ManuConfig config;
  config.num_shards = 1;
  config.segment_seal_rows = 1500;
  config.segment_idle_seal_ms = 200;
  config.slice_rows = 512;
  config.time_tick_interval_ms = 10;
  config.filter_index_enable = true;
  ManuInstance db(config);

  CollectionSchema schema("products");
  FieldSchema pk;
  pk.name = "id";
  pk.type = DataType::kInt64;
  pk.is_primary = true;
  ASSERT_TRUE(schema.AddField(pk).ok());
  FieldSchema vec;
  vec.name = "embedding";
  vec.type = DataType::kFloatVector;
  vec.dim = 16;
  vec.metric = MetricType::kL2;
  ASSERT_TRUE(schema.AddField(vec).ok());
  FieldSchema price;
  price.name = "price";
  price.type = DataType::kDouble;
  ASSERT_TRUE(schema.AddField(price).ok());
  auto meta = db.CreateCollection(schema);
  ASSERT_TRUE(meta.ok());

  IndexParams index;
  index.type = IndexType::kHnsw;
  ASSERT_TRUE(db.CreateIndex("products", "embedding", index).ok());

  SyntheticOptions opts;
  opts.num_rows = 3000;
  opts.dim = 16;
  VectorDataset data = MakeClusteredDataset(opts);
  EntityBatch batch;
  std::vector<double> prices;
  for (int64_t i = 0; i < opts.num_rows; ++i) {
    batch.primary_keys.push_back(i);
    prices.push_back(static_cast<double>(i % 100));
  }
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      meta.value().schema.FieldByName("embedding")->id, 16, data.data));
  batch.columns.push_back(FieldColumn::MakeDouble(
      meta.value().schema.FieldByName("price")->id, std::move(prices)));
  ASSERT_TRUE(db.Insert("products", std::move(batch)).ok());
  ASSERT_TRUE(db.FlushAndWait("products").ok());
  db.index_coord()->WaitIdle();

  // Every sealed segment got a registered filter-index artifact.
  const auto segments = db.data_coord()->ListSegments(meta.value().id);
  ASSERT_FALSE(segments.empty());
  for (const SegmentMeta& seg : segments) {
    if (seg.state == SegmentState::kDropped) continue;
    EXPECT_FALSE(seg.filter_index_path.empty()) << seg.id;
    // The artifact object exists and round-trips.
    auto obj = db.object_store()->Get(seg.filter_index_path);
    ASSERT_TRUE(obj.ok()) << seg.filter_index_path;
    auto payload = binlog::Unframe(obj.value());
    ASSERT_TRUE(payload.ok());
    BinaryReader r(payload.value());
    auto artifact = FilterIndex::Deserialize(&r);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ(artifact.value().NumRows(), seg.num_rows);
  }

  // Filtered searches through the full stack stay correct with the planner
  // armed.
  SearchRequest req;
  req.collection = "products";
  req.query.assign(data.Row(17), data.Row(17) + 16);
  req.k = 10;
  req.consistency = ConsistencyLevel::kStrong;
  req.filter = "price < 10";
  auto res = db.Search(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_FALSE(res.value().ids.empty());
  for (int64_t id : res.value().ids) EXPECT_LT(id % 100, 10);

  req.filter = "price >= 90";
  res = db.Search(req);
  ASSERT_TRUE(res.ok());
  for (int64_t id : res.value().ids) EXPECT_GE(id % 100, 90);
}

}  // namespace
}  // namespace manu
