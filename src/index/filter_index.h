#ifndef MANU_INDEX_FILTER_INDEX_H_
#define MANU_INDEX_FILTER_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/dataset.h"
#include "common/result.h"
#include "index/scalar_index.h"

namespace manu {

/// Compressed row-id set in the roaring style: rows are partitioned into
/// 65536-row chunks; a chunk with <= 4096 members stores them as a sorted
/// uint16 array, a denser chunk as a 1024-word bitmap. This is the posting
/// representation of the per-segment attribute indexes (Section 3.6): small
/// enough to persist beside the vector index artifact, cheap to OR into the
/// `allowed` mask at query time.
class BitmapPostings {
 public:
  /// Builds from a sorted, duplicate-free ascending row list.
  static BitmapPostings FromSortedRows(const std::vector<int64_t>& rows);

  int64_t cardinality() const { return cardinality_; }

  /// Sets every member row in `out`.
  void AddTo(ConcurrentBitset* out) const;
  /// Appends every member row, ascending, to `out`.
  void AppendRows(std::vector<int64_t>* out) const;
  bool Contains(int64_t row) const;

  uint64_t MemoryBytes() const;

  void Serialize(BinaryWriter* w) const;
  static Result<BitmapPostings> Deserialize(BinaryReader* r);

 private:
  static constexpr size_t kChunkBits = 16;
  static constexpr size_t kChunkRows = 1ull << kChunkBits;  // 65536
  static constexpr size_t kArrayMax = 4096;  ///< Array->bitmap switch point.
  static constexpr size_t kWordsPerChunk = kChunkRows / 64;

  struct Container {
    uint32_t key = 0;   ///< Chunk index: rows in [key<<16, (key+1)<<16).
    bool dense = false;
    std::vector<uint16_t> values;  ///< Sorted low-16-bits (array form).
    std::vector<uint64_t> words;   ///< kWordsPerChunk words (bitmap form).

    int64_t Cardinality() const;
  };

  std::vector<Container> containers_;  ///< Sorted by key.
  int64_t cardinality_ = 0;
};

/// String-label equality index backed by compressed bitmap postings, with
/// O(1) posting-length selectivity for the filter planner.
class LabelBitmapIndex {
 public:
  Status Build(const FieldColumn& column);

  int64_t NumRows() const { return num_rows_; }

  /// Sets bits of rows whose label equals `label`.
  void EqualsQuery(const std::string& label, ConcurrentBitset* out) const;
  /// Posting cardinality for `label` (0 when absent) — the planner's
  /// selectivity estimate without materializing a bitset.
  int64_t PostingSize(const std::string& label) const;

  uint64_t MemoryBytes() const;

  void Serialize(BinaryWriter* w) const;
  static Result<LabelBitmapIndex> Deserialize(BinaryReader* r);

 private:
  int64_t num_rows_ = 0;
  std::vector<std::string> labels_;        ///< Sorted unique labels.
  std::vector<BitmapPostings> postings_;   ///< Parallel to labels_.
};

/// Per-sealed-segment attribute-index package: one ScalarSortedIndex per
/// numeric field and one LabelBitmapIndex per string field. Index nodes
/// build it beside the vector index, persist it with the segment's index
/// artifacts, and query nodes load it on LoadSealedSegment so the filter
/// planner can estimate selectivity and materialize allowed masks without
/// scanning the raw columns.
class FilterIndex {
 public:
  /// Indexes every non-vector user column of the batch. Bool columns are
  /// skipped (no predicate reaches them through the expr grammar).
  Status Build(const EntityBatch& batch);

  int64_t NumRows() const { return num_rows_; }

  const ScalarSortedIndex* scalar(FieldId field) const;
  const LabelBitmapIndex* label(FieldId field) const;

  uint64_t MemoryBytes() const;

  void Serialize(BinaryWriter* w) const;
  static Result<FilterIndex> Deserialize(BinaryReader* r);

 private:
  int64_t num_rows_ = 0;
  std::map<FieldId, ScalarSortedIndex> scalars_;
  std::map<FieldId, LabelBitmapIndex> labels_;
};

}  // namespace manu

#endif  // MANU_INDEX_FILTER_INDEX_H_
