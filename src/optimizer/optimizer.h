#ifndef SIMDB_OPTIMIZER_OPTIMIZER_H_
#define SIMDB_OPTIMIZER_OPTIMIZER_H_

// Query optimization (§5.1): build the query graph over LUC objects
// (here: the bound QT), enumerate strategies, cost each and pick the
// cheapest. Strategies cover the perspective (root) access paths — extent
// scan vs. secondary-index equality lookup — and, for multi-perspective
// queries, the join (root iteration) order. A strategy that does not
// preserve the perspective-implied output ordering carries an explicit
// sort cost ("Transformation of a query graph for a strategy is tested to
// see if it is semantics-preserving, and, if it is not, the cost of
// reordering/sorting output is added").

#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/thread_annotations.h"
#include "luc/mapper.h"
#include "optimizer/cost_model.h"
#include "optimizer/stats.h"
#include "semantics/query_tree.h"

namespace sim {

struct AccessPlan {
  enum class RootMethod { kScan, kIndexEq };

  struct RootAccess {
    int node = -1;
    RootMethod method = RootMethod::kScan;
    // For kIndexEq: the indexed attribute and the literal to probe with.
    std::string index_class, index_attr;
    Value eq_value;
    double est_cardinality = 0;
  };

  // Roots in chosen iteration order (may differ from declaration order).
  std::vector<RootAccess> roots;
  // True when the root order matches the perspective list, so the output
  // comes out in perspective order without sorting.
  bool order_preserving = true;
  double est_cost = 0;
  double sort_cost = 0;
  int strategies_considered = 0;

  std::string Describe() const;
};

class Optimizer {
 public:
  explicit Optimizer(LucMapper* mapper)
      : mapper_(mapper),
        stats_(StatsSnapshot::Collect(mapper)),
        cost_model_(&mapper->phys(), &stats_),
        stats_mutation_count_(mapper->mutation_count()) {}

  // Re-reads statistics from the mapper.
  void RefreshStats() SIM_EXCLUDES(opt_mu_);

  // Chooses the cheapest root-access strategy. Statistics are refreshed
  // automatically when the mapper's mutation counter has advanced since
  // they were collected, so a long-lived Optimizer never plans on stale
  // cardinalities. Planning is latched (opt_mu_): a refresh mutates the
  // snapshot and cost model in place, so concurrent statements serialize
  // through here briefly before executing in parallel.
  Result<AccessPlan> Optimize(const QueryTree& qt) SIM_EXCLUDES(opt_mu_);

  const CostModel& cost_model() const { return cost_model_; }
  const StatsSnapshot& stats() const { return stats_; }

  // Cumulative work counts, sampled by the Database's metrics registry
  // (simdb_opt_plans_total / simdb_opt_stats_refreshes_total). A refresh
  // rate approaching the plan rate means every statement pays a
  // statistics scan — the signal the mutation-counter coupling exists to
  // keep low.
  uint64_t plans_made() const { return plans_made_; }
  uint64_t stats_refreshes() const { return stats_refreshes_; }

 private:
  struct IndexCandidate {
    int root = -1;
    std::string index_class, index_attr;
    Value eq_value;
  };

  void RefreshStatsLocked() SIM_REQUIRES(opt_mu_);

  // Finds `field(root) = literal` conjuncts with a secondary index.
  void CollectIndexCandidates(const QueryTree& qt, const BExpr* expr,
                              std::vector<IndexCandidate>* out) const;

  // Cost of one complete strategy.
  double CostStrategy(const QueryTree& qt,
                      const std::vector<AccessPlan::RootAccess>& roots) const;

  double ChildTraversalCost(const QueryTree& qt, int node,
                            double parent_card) const;

  LucMapper* mapper_;
  // Guarded by opt_mu_ during planning; the unlatched accessors above are
  // for single-threaded tests and tools.
  mutable Mutex opt_mu_;
  StatsSnapshot stats_;
  CostModel cost_model_;
  // Mapper mutation count at the time stats_ was collected.
  uint64_t stats_mutation_count_ = 0;
  // Sampled by metrics scrapes concurrent with planning; see
  // common/relaxed_counter.h.
  RelaxedCounter plans_made_;
  RelaxedCounter stats_refreshes_;
};

}  // namespace sim

#endif  // SIMDB_OPTIMIZER_OPTIMIZER_H_
