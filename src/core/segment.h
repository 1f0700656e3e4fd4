#ifndef MANU_CORE_SEGMENT_H_
#define MANU_CORE_SEGMENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/dataset.h"
#include "common/schema.h"
#include "core/config.h"
#include "core/expr.h"
#include "core/filter_planner.h"
#include "index/filter_index.h"
#include "index/index_factory.h"
#include "index/vector_index.h"

namespace manu {

/// A segment-level search request (one vector field, one query vector).
struct SegmentSearchRequest {
  FieldId field = 0;
  const float* query = nullptr;
  SearchParams params;
  /// MVCC read timestamp: rows with LSN > read_ts are invisible, deletes
  /// with LSN > read_ts are ignored (Section 3.4).
  Timestamp read_ts = kMaxTimestamp;
  /// Optional attribute filter (pre-parsed); null = no filtering.
  const FilterExpr* filter = nullptr;
  /// Overrides the filter planner's cost-based choice (kNone = plan by
  /// cost). Bench / equivalence-test hook; ignored without a filter.
  FilterStrategy force_strategy = FilterStrategy::kNone;
  /// When non-null, receives the executed plan (strategy + selectivity) for
  /// span tagging and the filter.* metrics. Must point at storage owned by
  /// the caller of this one Search call.
  FilterPlan* plan_out = nullptr;
};

/// The composed row mask for one segment scan: `allowed` is the attribute
/// filter bitmap AND NOT the tombstone bitmap at the request's read_ts
/// (null when neither applies — every visible row passes). Built once per
/// scan by SegmentCore::BuildScanMask, the single place where the MVCC
/// delete mask and the filter mask compose, shared by the sealed and
/// growing paths.
struct ScanMask {
  std::unique_ptr<ConcurrentBitset> allowed;
  bool has_filter = false;
  /// Filter selectivity estimate (1.0 when no filter).
  double selectivity = 1.0;
};

/// A search hit at segment scope, already mapped to the primary key.
struct SegmentHit {
  int64_t pk = -1;
  float score = 0;
};

/// Shared search logic over an in-memory row store: MVCC prefix visibility,
/// delete-bitmap filtering, attribute filtering with the cost-based
/// pre/post-filter choice (Section 3.6).
///
/// Both segment flavors hold their rows in LSN-append order, so visibility
/// at read_ts is a prefix found by binary search over the timestamp column.
class SegmentCore {
 public:
  SegmentCore(SegmentId id, const CollectionSchema* schema);

  SegmentId id() const { return id_; }
  int64_t NumRows() const;
  uint64_t ByteSize() const { return rows_.ByteSize(); }
  Timestamp MinTimestamp() const;
  Timestamp MaxTimestamp() const;

  /// Appends rows (LSN order is the caller's responsibility).
  Status Append(const EntityBatch& batch);

  /// Tombstones a primary key at `ts` (idempotent; unknown pk is a no-op).
  /// Deletions are timestamped so MVCC reads before `ts` still see the row;
  /// only row versions inserted at or before `ts` are covered, so replaying
  /// an old tombstone onto a segment that already holds a reinserted newer
  /// version leaves that version visible (order-independent replay).
  void Delete(int64_t pk, Timestamp ts);

  /// Rows visible at `ts` (prefix length).
  int64_t VisibleRows(Timestamp ts) const;

  /// Fraction of rows tombstoned (drives compaction policy).
  double DeletedRatio() const;

  /// Core search over the raw rows using `index` if provided (covering all
  /// rows) or brute force otherwise.
  Result<std::vector<SegmentHit>> Search(const SegmentSearchRequest& req,
                                         const VectorIndex* index) const;

  /// Composes tombstones (at req.read_ts) and the attribute filter into one
  /// allowed mask; see ScanMask. Evaluates the filter through the resident
  /// attribute indexes when available.
  Status BuildScanMask(const SegmentSearchRequest& req, ScanMask* out) const;

  /// Exact canonical score of `pk`'s vector on `field` against `query` at
  /// `read_ts` (best score across visible non-deleted rows of the pk).
  /// NotFound when the pk has no visible row. Used by multi-vector search
  /// re-ranking (Section 3.6).
  Result<float> ScoreByPk(int64_t pk, FieldId field, const float* query,
                          Timestamp read_ts) const;

  const EntityBatch& rows() const { return rows_; }
  const CollectionSchema& schema() const { return *schema_; }

  /// Direct accessors used by the data-node flush path.
  const std::vector<int64_t>& primary_keys() const {
    return rows_.primary_keys;
  }

 protected:
  friend class GrowingSegment;
  friend class SealedSegment;

  /// Builds the delete bitset view at `ts` (rows deleted with LSN <= ts).
  void FillDeleted(Timestamp ts, ConcurrentBitset* out) const;

  FilterContext MakeFilterContext() const;

  SegmentId id_;
  const CollectionSchema* schema_;
  EntityBatch rows_;
  /// pk -> row offsets (duplicate pks allowed across time).
  std::unordered_map<int64_t, std::vector<int64_t>> pk_rows_;
  /// Parallel arrays of tombstones: (row, delete LSN).
  std::vector<std::pair<int64_t, Timestamp>> tombstones_;
  /// Attribute indexes of a sealed segment: the index node's persisted
  /// artifact, or the same FilterIndex built locally.
  std::shared_ptr<const FilterIndex> filter_index_;
};

/// A growing segment on a query node (Section 3.6): consumes WAL inserts,
/// divides rows into slices of `slice_rows`; full slices get a light-weight
/// temporary IVF-Flat index (the paper reports ~10x speedup), the tail is
/// brute-forced.
class GrowingSegment {
 public:
  GrowingSegment(SegmentId id, const CollectionSchema* schema,
                 int64_t slice_rows);

  SegmentId id() const { return core_.id(); }
  int64_t NumRows() const { return core_.NumRows(); }
  uint64_t ByteSize() const { return core_.ByteSize(); }
  SegmentCore& core() { return core_; }
  const SegmentCore& core() const { return core_; }

  /// Appends WAL rows; seals completed slices with temporary indexes.
  Status Append(const EntityBatch& batch);
  void Delete(int64_t pk, Timestamp ts) { core_.Delete(pk, ts); }

  Result<std::vector<SegmentHit>> Search(
      const SegmentSearchRequest& req) const;

  int64_t NumSlicesIndexed() const;

 private:
  struct Slice {
    int64_t begin = 0;
    int64_t end = 0;
    std::unique_ptr<VectorIndex> temp_index;  ///< Over rows [begin, end).
    FieldId field = 0;
  };

  void MaybeBuildSliceIndexes();

  SegmentCore core_;
  int64_t slice_rows_;
  mutable std::mutex mu_;  ///< Guards slices_ growth vs concurrent search.
  std::vector<Slice> slices_;
};

/// A sealed, optionally indexed segment on a query node. Construction paths:
/// from a handed-off growing segment (stream indexing) or from binlog +
/// index files in object storage (load balancing / recovery, Section 3.6).
class SealedSegment {
 public:
  SealedSegment(SegmentId id, const CollectionSchema* schema);

  SegmentId id() const { return core_.id(); }
  int64_t NumRows() const { return core_.NumRows(); }
  SegmentCore& core() { return core_; }
  const SegmentCore& core() const { return core_; }

  /// Populates rows from a full batch (binlog read or handoff).
  Status SetRows(const EntityBatch& batch);

  /// Installs the built vector index for `field` (covers all rows).
  Status SetIndex(FieldId field, std::unique_ptr<VectorIndex> index);
  bool HasIndex(FieldId field) const;

  /// Builds the segment's FilterIndex locally (the same FilterIndex::Build
  /// index nodes run) and installs it with SetFilterIndex.
  Status BuildScalarIndexes();

  /// Installs an attribute-index artifact (covers all rows); predicates
  /// are then evaluated and selectivity estimated against it.
  Status SetFilterIndex(std::shared_ptr<const FilterIndex> index);
  bool HasFilterIndex() const;

  void Delete(int64_t pk, Timestamp ts) { core_.Delete(pk, ts); }

  Result<std::vector<SegmentHit>> Search(
      const SegmentSearchRequest& req) const;

  uint64_t MemoryBytes() const;

 private:
  SegmentCore core_;
  std::map<FieldId, std::unique_ptr<VectorIndex>> indexes_;
};

}  // namespace manu

#endif  // MANU_CORE_SEGMENT_H_
