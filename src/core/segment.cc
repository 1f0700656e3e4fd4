#include "core/segment.h"

#include <algorithm>
#include <cmath>

#include "index/metric_util.h"

namespace manu {

// ---------------------------------------------------------------------------
// SegmentCore
// ---------------------------------------------------------------------------

SegmentCore::SegmentCore(SegmentId id, const CollectionSchema* schema)
    : id_(id), schema_(schema) {
  for (const auto& field : schema_->fields()) {
    if (field.is_primary) continue;
    FieldColumn col;
    col.field_id = field.id;
    col.type = field.type;
    col.dim = field.dim;
    rows_.columns.push_back(std::move(col));
  }
}

int64_t SegmentCore::NumRows() const { return rows_.NumRows(); }

Timestamp SegmentCore::MinTimestamp() const {
  return rows_.timestamps.empty() ? 0 : rows_.timestamps.front();
}

Timestamp SegmentCore::MaxTimestamp() const {
  return rows_.timestamps.empty() ? 0 : rows_.timestamps.back();
}

Status SegmentCore::Append(const EntityBatch& batch) {
  const int64_t base = NumRows();
  MANU_RETURN_NOT_OK(rows_.Append(batch));
  for (int64_t i = 0; i < batch.NumRows(); ++i) {
    pk_rows_[batch.primary_keys[i]].push_back(base + i);
  }
  return Status::OK();
}

void SegmentCore::Delete(int64_t pk, Timestamp ts) {
  auto it = pk_rows_.find(pk);
  if (it == pk_rows_.end()) return;
  for (int64_t row : it->second) {
    // A delete at `ts` covers only row versions that existed at `ts`:
    // when an old tombstone is replayed onto a loaded segment that
    // already contains a reinserted newer version, that version must
    // survive — exactly as it did on nodes that applied the delete live,
    // before the reinsert arrived.
    if (rows_.timestamps[row] <= ts) tombstones_.emplace_back(row, ts);
  }
}

int64_t SegmentCore::VisibleRows(Timestamp ts) const {
  if (ts == kMaxTimestamp) return NumRows();
  const auto& t = rows_.timestamps;
  return std::upper_bound(t.begin(), t.end(), ts) - t.begin();
}

double SegmentCore::DeletedRatio() const {
  const int64_t n = NumRows();
  if (n == 0) return 0;
  // Tombstones may repeat a row (re-deleted pk); count unique lazily only
  // when it matters. Upper bound is fine for the compaction policy.
  return std::min(1.0, static_cast<double>(tombstones_.size()) /
                           static_cast<double>(n));
}

void SegmentCore::FillDeleted(Timestamp ts, ConcurrentBitset* out) const {
  for (const auto& [row, lsn] : tombstones_) {
    if (lsn <= ts) out->Set(static_cast<size_t>(row));
  }
}

FilterContext SegmentCore::MakeFilterContext() const {
  FilterContext ctx;
  ctx.num_rows = NumRows();
  ctx.column = [this](FieldId id) { return rows_.ColumnByFieldId(id); };
  ctx.scalar_index = [this](FieldId id) -> const ScalarSortedIndex* {
    return filter_index_ == nullptr ? nullptr : filter_index_->scalar(id);
  };
  ctx.label_bitmap = [this](FieldId id) -> const LabelBitmapIndex* {
    return filter_index_ == nullptr ? nullptr : filter_index_->label(id);
  };
  return ctx;
}

Status SegmentCore::BuildScanMask(const SegmentSearchRequest& req,
                                  ScanMask* out) const {
  const bool have_tombstones = !tombstones_.empty();
  if (req.filter == nullptr && !have_tombstones) return Status::OK();
  auto mask =
      std::make_unique<ConcurrentBitset>(static_cast<size_t>(NumRows()));
  if (req.filter != nullptr) {
    const FilterContext ctx = MakeFilterContext();
    MANU_RETURN_NOT_OK(req.filter->Evaluate(ctx, mask.get()));
    out->has_filter = true;
    // Evaluate already materialized the match bitmap, so the exact match
    // fraction is a popcount away — strictly better planner input than
    // EstimateSelectivity, and the only real signal on growing segments
    // (no attribute indexes -> the estimate degrades to a pessimistic 1.0,
    // which would lock the planner out of kBruteMatches there).
    out->selectivity =
        NumRows() > 0
            ? static_cast<double>(mask->Count()) / static_cast<double>(NumRows())
            : 1.0;
  } else {
    mask->SetAll();
  }
  if (have_tombstones) {
    for (const auto& [row, lsn] : tombstones_) {
      if (lsn <= req.read_ts) mask->Clear(static_cast<size_t>(row));
    }
  }
  out->allowed = std::move(mask);
  return Status::OK();
}

Result<std::vector<SegmentHit>> SegmentCore::Search(
    const SegmentSearchRequest& req, const VectorIndex* index) const {
  const int64_t visible = VisibleRows(req.read_ts);
  if (visible == 0) return std::vector<SegmentHit>{};

  const FieldColumn* vec_col = rows_.ColumnByFieldId(req.field);
  if (vec_col == nullptr || vec_col->type != DataType::kFloatVector) {
    return Status::InvalidArgument("segment: bad vector field");
  }
  const FieldSchema* field = schema_->FieldById(req.field);
  const MetricType metric = field->metric;

  SearchParams sp = req.params;
  sp.visible_rows = visible;

  // One shared mask: tombstones AND attribute filter, composed once
  // (BuildScanMask) for every strategy and index family below.
  ScanMask mask;
  MANU_RETURN_NOT_OK(BuildScanMask(req, &mask));
  sp.allowed = mask.allowed.get();
  sp.deleted = nullptr;

  const bool covered = index != nullptr && index->Size() == NumRows();

  const FilterPlan plan =
      PlanFilter(req.force_strategy, req.filter != nullptr, mask.selectivity,
                 covered, covered && SupportsFilteredTraversal(index->type()));
  if (req.plan_out != nullptr) *req.plan_out = plan;

  // Scans exactly the mask's member rows (exact; cost ~ sel * n distances).
  const auto scan_matches = [&]() {
    TopKHeap heap(sp.k);
    for (int64_t row = 0; row < visible; ++row) {
      if (mask.allowed != nullptr &&
          !mask.allowed->Test(static_cast<size_t>(row))) {
        continue;
      }
      heap.Push(row, MetricScore(req.query, vec_col->VectorAt(row),
                                 vec_col->dim, metric));
    }
    return heap.TakeSorted();
  };
  // Brute force over the visible prefix with the mask applied per row.
  const auto brute_force = [&]() {
    TopKHeap heap(sp.k);
    constexpr int64_t kBlock = 1024;
    float scores[kBlock];
    for (int64_t begin = 0; begin < visible; begin += kBlock) {
      const int64_t len = std::min(kBlock, visible - begin);
      MetricScoreBatch(req.query, vec_col->f32.data() + begin * vec_col->dim,
                       static_cast<size_t>(len), vec_col->dim, metric,
                       scores);
      for (int64_t i = 0; i < len; ++i) {
        const int64_t row = begin + i;
        if (!PassesFilters(row, sp)) continue;
        heap.Push(row, scores[i]);
      }
    }
    return heap.TakeSorted();
  };

  std::vector<Neighbor> neighbors;
  switch (plan.strategy) {
    case FilterStrategy::kBruteMatches:
      neighbors = scan_matches();
      break;
    case FilterStrategy::kTraversal: {
      if (!covered) {
        neighbors = scan_matches();
        break;
      }
      sp.filtered_traversal = true;
      sp.traversal_ef_cap = kFilterEfInflationCap;
      // Selectivity-aware widening: IVF prunes probed lists to allowed
      // rows, so probe proportionally more lists; HNSW's beam must be wide
      // enough to surface the *nearest* passing rows, not merely k passing
      // rows (the adaptive retry in the index only guards against
      // starvation, not against a too-narrow first beam).
      const double inflate = std::min(kFilterEfInflationCap,
                                      1.0 / std::max(mask.selectivity, 1e-3));
      sp.nprobe = static_cast<int32_t>(
          std::min<double>(1 << 20, sp.nprobe * inflate));
      sp.ef_search = static_cast<int32_t>(
          std::min<double>(1 << 20, sp.ef_search * inflate));
      MANU_ASSIGN_OR_RETURN(neighbors, index->Search(req.query, sp));
      break;
    }
    case FilterStrategy::kPostScan: {
      if (!covered) {
        neighbors = scan_matches();
        break;
      }
      // Baseline: unmasked ANN over-fetching ~k/sel candidates, intersect
      // with the mask afterwards. This is what the planner strategies are
      // measured against in bench_filtered.
      SearchParams post = sp;
      post.allowed = nullptr;
      post.filtered_traversal = false;
      const double sel = std::max(mask.selectivity, 1e-4);
      const size_t kprime = static_cast<size_t>(std::min<double>(
          static_cast<double>(visible),
          std::ceil(static_cast<double>(sp.k) / sel) + 16));
      post.k = kprime;
      post.ef_search = std::max(
          post.ef_search,
          static_cast<int32_t>(std::min<size_t>(kprime, 1u << 20)));
      MANU_ASSIGN_OR_RETURN(std::vector<Neighbor> raw,
                            index->Search(req.query, post));
      TopKHeap heap(sp.k);
      for (const Neighbor& n : raw) {
        if (!PassesFilters(n.id, sp)) continue;
        heap.Push(n.id, n.score);
      }
      neighbors = heap.TakeSorted();
      break;
    }
    case FilterStrategy::kNone:
    case FilterStrategy::kPreFilter:
    default: {
      if (covered) {
        MANU_ASSIGN_OR_RETURN(neighbors, index->Search(req.query, sp));
      } else if (mask.has_filter) {
        neighbors = scan_matches();
      } else {
        neighbors = brute_force();
      }
      break;
    }
  }

  std::vector<SegmentHit> hits;
  hits.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    hits.push_back({rows_.primary_keys[n.id], n.score});
  }
  return hits;
}

Result<float> SegmentCore::ScoreByPk(int64_t pk, FieldId field,
                                     const float* query,
                                     Timestamp read_ts) const {
  auto it = pk_rows_.find(pk);
  if (it == pk_rows_.end()) return Status::NotFound("pk not in segment");
  const FieldColumn* col = rows_.ColumnByFieldId(field);
  const FieldSchema* fs = schema_->FieldById(field);
  if (col == nullptr || fs == nullptr) {
    return Status::InvalidArgument("bad field for ScoreByPk");
  }
  const int64_t visible = VisibleRows(read_ts);
  float best = std::numeric_limits<float>::max();
  bool found = false;
  for (int64_t row : it->second) {
    if (row >= visible) continue;
    bool dead = false;
    for (const auto& [trow, tlsn] : tombstones_) {
      if (trow == row && tlsn <= read_ts) {
        dead = true;
        break;
      }
    }
    if (dead) continue;
    best = std::min(best, MetricScore(query, col->VectorAt(row), col->dim,
                                      fs->metric));
    found = true;
  }
  if (!found) return Status::NotFound("pk not visible");
  return best;
}

// ---------------------------------------------------------------------------
// GrowingSegment
// ---------------------------------------------------------------------------

GrowingSegment::GrowingSegment(SegmentId id, const CollectionSchema* schema,
                               int64_t slice_rows)
    : core_(id, schema), slice_rows_(slice_rows) {}

Status GrowingSegment::Append(const EntityBatch& batch) {
  MANU_RETURN_NOT_OK(core_.Append(batch));
  MaybeBuildSliceIndexes();
  return Status::OK();
}

void GrowingSegment::MaybeBuildSliceIndexes() {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t rows = core_.NumRows();
  for (const FieldSchema* field : core_.schema().VectorFields()) {
    // Last slice boundary already indexed for this field.
    int64_t covered = 0;
    for (const auto& slice : slices_) {
      if (slice.field == field->id) covered = std::max(covered, slice.end);
    }
    const FieldColumn* col = core_.rows().ColumnByFieldId(field->id);
    while (rows - covered >= slice_rows_) {
      Slice slice;
      slice.begin = covered;
      slice.end = covered + slice_rows_;
      slice.field = field->id;
      IndexParams params;
      params.type = IndexType::kIvfFlat;
      params.metric = field->metric;
      params.dim = field->dim;
      // Fine-grained lists: a probe touches ~1-5% of the slice, which is
      // where the paper's "up to 10X" growing-segment speedup comes from.
      params.nlist = static_cast<int32_t>(
          std::max<int64_t>(16, slice_rows_ / 64));
      params.train_iters = 2;  // Temporary index: cheap build wins.
      auto built = BuildVectorIndex(
          params, col->f32.data() + slice.begin * field->dim, slice_rows_);
      if (built.ok()) slice.temp_index = std::move(built).value();
      covered = slice.end;
      slices_.push_back(std::move(slice));
    }
  }
}

int64_t GrowingSegment::NumSlicesIndexed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int64_t>(slices_.size());
}

Result<std::vector<SegmentHit>> GrowingSegment::Search(
    const SegmentSearchRequest& req) const {
  const int64_t visible = core_.VisibleRows(req.read_ts);
  if (visible == 0) return std::vector<SegmentHit>{};

  // Snapshot slice list under the lock; index objects are immutable once
  // installed.
  std::vector<const Slice*> slices;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& s : slices_) {
      if (s.field == req.field && s.temp_index != nullptr) {
        slices.push_back(&s);
      }
    }
  }

  const FieldColumn* vec_col = core_.rows().ColumnByFieldId(req.field);
  const FieldSchema* field = core_.schema().FieldById(req.field);
  if (vec_col == nullptr || field == nullptr) {
    return Status::InvalidArgument("growing: bad vector field");
  }

  // Same shared mask helper as the sealed path: tombstones and the filter
  // bitmap compose once, never per slice index.
  ScanMask mask;
  MANU_RETURN_NOT_OK(core_.BuildScanMask(req, &mask));
  const auto passes = [&](int64_t row) {
    if (row >= visible) return false;
    if (mask.allowed != nullptr &&
        !mask.allowed->Test(static_cast<size_t>(row))) {
      return false;
    }
    return true;
  };

  // The slice indexes are the growing segment's ANN path; they apply the
  // mask after each slice search, so there is no filter-aware traversal.
  // Every strategy but kBruteMatches runs the slice path.
  const FilterPlan plan =
      PlanFilter(req.force_strategy, req.filter != nullptr, mask.selectivity,
                 /*has_index=*/true, /*supports_traversal=*/false);
  if (req.plan_out != nullptr) *req.plan_out = plan;

  if (plan.strategy == FilterStrategy::kBruteMatches) {
    TopKHeap heap(req.params.k);
    for (int64_t row = 0; row < visible; ++row) {
      if (!passes(row)) continue;
      heap.Push(row, MetricScore(req.query, vec_col->VectorAt(row),
                                 field->dim, field->metric));
    }
    std::vector<Neighbor> merged = heap.TakeSorted();
    std::vector<SegmentHit> out;
    out.reserve(merged.size());
    for (const Neighbor& n : merged) {
      out.push_back({core_.rows().primary_keys[n.id], n.score});
    }
    return out;
  }

  TopKHeap heap(req.params.k);
  int64_t covered = 0;
  // Indexed slices: slice-local ids are offset by slice.begin; masks are
  // applied post-search (slices are small, so over-fetch is cheap and the
  // temporary index is approximate by design).
  for (const Slice* slice : slices) {
    covered = std::max(covered, slice->end);
    if (slice->begin >= visible) continue;
    SearchParams sp = req.params;
    sp.k = req.params.k * 2 + 16;
    sp.deleted = nullptr;
    sp.allowed = nullptr;
    sp.visible_rows = std::min(visible - slice->begin,
                               slice->end - slice->begin);
    MANU_ASSIGN_OR_RETURN(std::vector<Neighbor> hits,
                          slice->temp_index->Search(req.query, sp));
    for (const Neighbor& n : hits) {
      const int64_t row = n.id + slice->begin;
      if (passes(row)) heap.Push(row, n.score);
    }
  }
  // Brute-force tail beyond the last indexed slice.
  for (int64_t row = covered; row < visible; ++row) {
    if (!passes(row)) continue;
    heap.Push(row, MetricScore(req.query, vec_col->VectorAt(row),
                               field->dim, field->metric));
  }

  std::vector<Neighbor> merged = heap.TakeSorted();
  std::vector<SegmentHit> out;
  out.reserve(merged.size());
  for (const Neighbor& n : merged) {
    out.push_back({core_.rows().primary_keys[n.id], n.score});
  }
  return out;
}

// ---------------------------------------------------------------------------
// SealedSegment
// ---------------------------------------------------------------------------

SealedSegment::SealedSegment(SegmentId id, const CollectionSchema* schema)
    : core_(id, schema) {}

Status SealedSegment::SetRows(const EntityBatch& batch) {
  if (core_.NumRows() != 0) {
    return Status::InvalidArgument("sealed segment already populated");
  }
  return core_.Append(batch);
}

Status SealedSegment::SetIndex(FieldId field,
                               std::unique_ptr<VectorIndex> index) {
  if (index->Size() != core_.NumRows()) {
    return Status::InvalidArgument("index row count mismatch");
  }
  indexes_[field] = std::move(index);
  return Status::OK();
}

bool SealedSegment::HasIndex(FieldId field) const {
  return indexes_.count(field) > 0;
}

Status SealedSegment::BuildScalarIndexes() {
  auto index = std::make_shared<FilterIndex>();
  MANU_RETURN_NOT_OK(index->Build(core_.rows()));
  return SetFilterIndex(std::move(index));
}

Status SealedSegment::SetFilterIndex(
    std::shared_ptr<const FilterIndex> index) {
  if (index == nullptr) {
    return Status::InvalidArgument("null filter index");
  }
  if (index->NumRows() != core_.NumRows()) {
    return Status::InvalidArgument("filter index row count mismatch");
  }
  core_.filter_index_ = std::move(index);
  return Status::OK();
}

bool SealedSegment::HasFilterIndex() const {
  return core_.filter_index_ != nullptr;
}

Result<std::vector<SegmentHit>> SealedSegment::Search(
    const SegmentSearchRequest& req) const {
  auto it = indexes_.find(req.field);
  const VectorIndex* index = it == indexes_.end() ? nullptr
                                                  : it->second.get();
  return core_.Search(req, index);
}

uint64_t SealedSegment::MemoryBytes() const {
  uint64_t bytes = core_.ByteSize();
  for (const auto& [_, index] : indexes_) bytes += index->MemoryBytes();
  if (core_.filter_index_ != nullptr) {
    bytes += core_.filter_index_->MemoryBytes();
  }
  return bytes;
}

}  // namespace manu
