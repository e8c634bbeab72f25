#ifndef SIMDB_EXEC_PHYSICAL_PLAN_H_
#define SIMDB_EXEC_PHYSICAL_PLAN_H_

// The physical plan — the Query Driver of Figure 1: a Volcano operator tree
// realizing one AccessPlan strategy for a bound query tree with the §4.5
// semantics (nested loops over the TYPE 1 and TYPE 3 variables in
// depth-first order, existential evaluation of TYPE 2 variables inside
// the selection, dummy all-null instances for empty TYPE 3 domains,
// perspective-implied output order restored by a sort when the plan
// reorders roots). Database builds one per Retrieve in its shared plan
// step; every entry point that runs it drains it through
// Database::Cursor::Next.
//
// Tree shape (top to bottom):
//
//   [Limit]  [Distinct]  [Sort]  Project  Filter|Type2Exists
//     NestedLoop/OuterJoinLoop chain over the TYPE 1/3 loop nodes
//       (ExtentScan | IndexProbe | EvaTraverse per node)
//
// The operators reference the QueryTree by node id and by pointers to its
// heap-allocated bound expressions, so the plan stays valid when the
// QueryTree object itself is moved (the streaming cursor relies on this).

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "luc/mapper.h"
#include "optimizer/optimizer.h"
#include "semantics/query_tree.h"

namespace sim {

struct PhysicalPlan {
  OperatorPtr root;
  // The root-access strategy this tree realizes.
  AccessPlan access;
  // The plan reordered roots; Sort restores perspective order.
  bool needs_restore_sort = false;
  // TYPE 1/3 nodes in iteration order (diagnostics, parity tests).
  std::vector<int> loop_nodes;

  // Builds the operator tree for `qt` following `access` (null = extent
  // scans in declaration order). Estimates come from the mapper's
  // maintained counters; Filter selectivity is assumed 1.0 (no predicate
  // statistics yet).
  static Result<PhysicalPlan> Build(const QueryTree& qt,
                                    const AccessPlan* access,
                                    LucMapper* mapper);

  // Indented operator tree, one operator per line with estimated rows;
  // `analyze` adds the actual rows delivered so far.
  std::string Describe(bool analyze = false) const;
};

}  // namespace sim

#endif  // SIMDB_EXEC_PHYSICAL_PLAN_H_
