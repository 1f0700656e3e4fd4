#ifndef MANU_INDEX_SCALAR_INDEX_H_
#define MANU_INDEX_SCALAR_INDEX_H_

#include <vector>

#include "common/bitset.h"
#include "common/dataset.h"
#include "common/result.h"

namespace manu {

/// Sorted-list index on a numeric attribute field (Table 1: "B-Tree, Sorted
/// List"). Values are widened to double; range/equality predicates resolve
/// to a row bitset that vector indexes consume as the `allowed` mask
/// (attribute filtering, Section 3.6).
///
/// Edge semantics: NaN rows are sorted after every finite/infinite value and
/// never match a range or equality query (IEEE comparison semantics — the
/// expr layer's `!=` handles them by complementing an equality bitset).
/// ±inf bounds and ±inf stored values behave as ordinary ordered values;
/// empty columns yield empty results everywhere.
class ScalarSortedIndex {
 public:
  /// Builds from an int64/float/double column.
  Status Build(const FieldColumn& column);

  int64_t NumRows() const { return num_rows_; }
  /// Rows holding a non-NaN value (the range-searchable prefix).
  int64_t NumFinite() const { return finite_; }

  /// Sets bits of rows whose value lies in [lo, hi] (inclusive). NaN bounds
  /// match nothing; NaN rows are never set.
  void RangeQuery(double lo, double hi, ConcurrentBitset* out) const;
  void EqualsQuery(double value, ConcurrentBitset* out) const;

  /// Number of rows in [lo, hi] without materializing the bitset; the
  /// cost-based filter planner uses this selectivity estimate.
  int64_t CountRange(double lo, double hi) const;

  void Serialize(BinaryWriter* w) const;
  static Result<ScalarSortedIndex> Deserialize(BinaryReader* r);

 private:
  int64_t num_rows_ = 0;
  int64_t finite_ = 0;          ///< Non-NaN prefix length of values_.
  std::vector<double> values_;  ///< Sorted, NaNs last.
  std::vector<int64_t> rows_;   ///< rows_[i] holds values_[i].
};

}  // namespace manu

#endif  // MANU_INDEX_SCALAR_INDEX_H_
