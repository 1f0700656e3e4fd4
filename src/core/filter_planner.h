#ifndef MANU_CORE_FILTER_PLANNER_H_
#define MANU_CORE_FILTER_PLANNER_H_

#include <cstdint>

#include "common/types.h"

namespace manu {

/// Per-segment execution strategy for an attribute-filtered search
/// (Section 3.6: "Manu supports three strategies for attribute filtering and
/// uses a cost-based model to choose the most suitable strategy for each
/// segment").
enum class FilterStrategy : uint8_t {
  kNone = 0,      ///< Request carries no filter.
  kPostScan,      ///< Unmasked ANN, intersect afterwards (baseline; only
                  ///< ever chosen when forced — it exists so benches and
                  ///< equivalence tests can measure the planner against the
                  ///< strategy production systems are trying to beat).
  kPreFilter,     ///< Materialize the allowed mask, hand it to the index.
  kTraversal,     ///< Filter-aware traversal: HNSW visiting-filter with
                  ///< adaptive ef inflation, IVF allowed-list pruning.
  kBruteMatches,  ///< Exact brute force over only the matching rows.
};

const char* FilterStrategyName(FilterStrategy s);

/// Selectivity below which brute-forcing the matches beats any index
/// (exact scan over sel*n rows vs a masked ANN probe; the measured
/// crossover on clustered data sits near 15%, see bench_filtered).
constexpr double kFilterBruteThreshold = 0.15;
/// Selectivity below which filtered traversal beats a plain masked scan;
/// above it the mask is dense enough that pre-filtering wins.
constexpr double kFilterPrefilterThreshold = 0.5;
/// Cap on the ef / nprobe multiplier under filtered traversal.
constexpr double kFilterEfInflationCap = 16.0;

/// The plan for one segment: chosen strategy plus the selectivity estimate
/// that drove the choice (tagged on the segment.scan span and exported via
/// the filter.* metrics family).
struct FilterPlan {
  FilterStrategy strategy = FilterStrategy::kNone;
  double selectivity = 1.0;
};

/// True when `type`'s Search implementation understands
/// SearchParams::filtered_traversal.
bool SupportsFilteredTraversal(IndexType type);

/// Cost-based strategy choice for one segment, the only place a filtered
/// search picks its strategy. No filter plans kNone; otherwise a `force`
/// other than kNone wins (bench / equivalence-test hook). `has_index`: an
/// ANN path covers the segment's rows and takes the allowed mask (a sealed
/// segment's full index, a growing segment's slice indexes);
/// `supports_traversal`: that path also runs filter-aware traversal.
FilterPlan PlanFilter(FilterStrategy force, bool has_filter,
                      double selectivity, bool has_index,
                      bool supports_traversal);

}  // namespace manu

#endif  // MANU_CORE_FILTER_PLANNER_H_
