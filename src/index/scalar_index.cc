#include "index/scalar_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace manu {

Status ScalarSortedIndex::Build(const FieldColumn& column) {
  std::vector<double> raw;
  switch (column.type) {
    case DataType::kInt64:
      raw.assign(column.i64.begin(), column.i64.end());
      break;
    case DataType::kFloat:
      raw.assign(column.f32.begin(), column.f32.end());
      break;
    case DataType::kDouble:
      raw = column.f64;
      break;
    default:
      return Status::InvalidArgument(
          "scalar index requires a numeric column");
  }
  num_rows_ = static_cast<int64_t>(raw.size());
  std::vector<int64_t> order(raw.size());
  std::iota(order.begin(), order.end(), 0);
  // NaN-aware comparator: a plain `raw[a] < raw[b]` violates strict weak
  // ordering when NaNs are present (UB in std::sort). NaNs sort last so the
  // finite prefix stays binary-searchable.
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const bool na = std::isnan(raw[a]);
    const bool nb = std::isnan(raw[b]);
    if (na || nb) return !na && nb;
    return raw[a] < raw[b];
  });
  values_.resize(raw.size());
  rows_.resize(raw.size());
  for (size_t i = 0; i < order.size(); ++i) {
    values_[i] = raw[order[i]];
    rows_[i] = order[i];
  }
  finite_ = num_rows_;
  while (finite_ > 0 && std::isnan(values_[finite_ - 1])) --finite_;
  return Status::OK();
}

void ScalarSortedIndex::RangeQuery(double lo, double hi,
                                   ConcurrentBitset* out) const {
  if (std::isnan(lo) || std::isnan(hi)) return;  // NaN bounds match nothing.
  const auto finite_end = values_.begin() + finite_;
  auto begin = std::lower_bound(values_.begin(), finite_end, lo);
  auto end = std::upper_bound(values_.begin(), finite_end, hi);
  for (auto it = begin; it != end; ++it) {
    out->Set(static_cast<size_t>(rows_[it - values_.begin()]));
  }
}

void ScalarSortedIndex::EqualsQuery(double value,
                                    ConcurrentBitset* out) const {
  RangeQuery(value, value, out);
}

int64_t ScalarSortedIndex::CountRange(double lo, double hi) const {
  if (std::isnan(lo) || std::isnan(hi)) return 0;
  const auto finite_end = values_.begin() + finite_;
  auto begin = std::lower_bound(values_.begin(), finite_end, lo);
  auto end = std::upper_bound(values_.begin(), finite_end, hi);
  return end - begin;
}

void ScalarSortedIndex::Serialize(BinaryWriter* w) const {
  w->PutI64(num_rows_);
  w->PutVector(values_);
  w->PutVector(rows_);
}

Result<ScalarSortedIndex> ScalarSortedIndex::Deserialize(BinaryReader* r) {
  ScalarSortedIndex index;
  MANU_ASSIGN_OR_RETURN(index.num_rows_, r->GetI64());
  MANU_ASSIGN_OR_RETURN(index.values_, r->GetVector<double>());
  MANU_ASSIGN_OR_RETURN(index.rows_, r->GetVector<int64_t>());
  // finite_ is derivable from the payload (NaNs sort last), so the wire
  // format stays unchanged.
  index.finite_ = static_cast<int64_t>(index.values_.size());
  while (index.finite_ > 0 && std::isnan(index.values_[index.finite_ - 1])) {
    --index.finite_;
  }
  return index;
}

}  // namespace manu
