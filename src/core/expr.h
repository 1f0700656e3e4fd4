#ifndef MANU_CORE_EXPR_H_
#define MANU_CORE_EXPR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/bitset.h"
#include "common/schema.h"
#include "index/filter_index.h"
#include "index/scalar_index.h"

namespace manu {

/// Comparison operators supported in filter expressions.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Per-segment evaluation context: row count plus accessors for raw columns
/// and (optionally) the FilterIndex's attribute indexes. Null accessor
/// results fall back to a raw column scan.
struct FilterContext {
  int64_t num_rows = 0;
  std::function<const FieldColumn*(FieldId)> column;
  std::function<const ScalarSortedIndex*(FieldId)> scalar_index;
  std::function<const LabelBitmapIndex*(FieldId)> label_bitmap;
};

/// Parsed boolean filter over scalar fields (Section 3.6 attribute
/// filtering), e.g.:
///
///   price > 10 && price <= 99.5
///   label == 'book' || label == 'food'
///   !(count == 0) && price < 100
///
/// Grammar: or-expr of and-exprs of (comparison | '!'term | parens).
/// Comparisons are `field op literal` with numeric or 'quoted' string
/// literals. Parsing validates field names/types against the schema.
class FilterExpr {
 public:
  virtual ~FilterExpr() = default;

  static Result<std::unique_ptr<FilterExpr>> Parse(
      const std::string& text, const CollectionSchema& schema);

  /// Sets bits of matching rows into `out` (capacity >= ctx.num_rows).
  virtual Status Evaluate(const FilterContext& ctx,
                          ConcurrentBitset* out) const = 0;

  /// Estimated fraction of rows matching, in [0, 1]; drives the cost-based
  /// choice between pre-filter and post-filter strategies. Uses attribute
  /// indexes when present, else a pessimistic 1.0.
  virtual double EstimateSelectivity(const FilterContext& ctx) const = 0;
};

}  // namespace manu

#endif  // MANU_CORE_EXPR_H_
