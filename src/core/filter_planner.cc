#include "core/filter_planner.h"

namespace manu {

const char* FilterStrategyName(FilterStrategy s) {
  switch (s) {
    case FilterStrategy::kNone:         return "none";
    case FilterStrategy::kPostScan:     return "postscan";
    case FilterStrategy::kPreFilter:    return "prefilter";
    case FilterStrategy::kTraversal:    return "traversal";
    case FilterStrategy::kBruteMatches: return "brute_matches";
  }
  return "unknown";
}

bool SupportsFilteredTraversal(IndexType type) {
  switch (type) {
    case IndexType::kHnsw:
    case IndexType::kIvfFlat:
    case IndexType::kIvfHnsw:
      return true;
    default:
      return false;
  }
}

FilterPlan PlanFilter(FilterStrategy force, bool has_filter,
                      double selectivity, bool has_index,
                      bool supports_traversal) {
  FilterPlan plan;
  plan.selectivity = selectivity;
  if (!has_filter) return plan;
  if (force != FilterStrategy::kNone) {
    plan.strategy = force;
    return plan;
  }
  // Cost model, in expected distance computations over n rows:
  //   brute-over-matches:  sel * n            (plus n bitset tests)
  //   pre-filter scan:     index cost, wasted work ~ (1 - sel) of it
  //   filtered traversal:  index cost with the waste pruned, but beam /
  //                        probe inflation ~ 1/sel, profitable only while
  //                        the mask is sparse enough to prune real work.
  if (!has_index || selectivity < kFilterBruteThreshold) {
    // Without an index every path is a scan, and scanning only the matches
    // is never worse than scanning everything.
    plan.strategy = FilterStrategy::kBruteMatches;
    return plan;
  }
  if (selectivity < kFilterPrefilterThreshold && supports_traversal) {
    plan.strategy = FilterStrategy::kTraversal;
    return plan;
  }
  plan.strategy = FilterStrategy::kPreFilter;
  return plan;
}

}  // namespace manu
