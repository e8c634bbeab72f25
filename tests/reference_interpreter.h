#ifndef SIMDB_TESTS_REFERENCE_INTERPRETER_H_
#define SIMDB_TESTS_REFERENCE_INTERPRETER_H_

// The recursive §4.5 interpreter that predates the Volcano pipeline, kept
// as the independent semantics oracle of the pipeline parity suite. It
// materializes every node domain and loops over the TYPE 1 and TYPE 3
// variables depth-first, evaluates TYPE 2 variables existentially inside
// the selection, binds a dummy all-null instance for an empty TYPE 3
// domain, and sorts after the fact when the plan reordered the roots. It
// must produce ResultSets identical to a drain of the operator tree for
// the same query and plan. Test-only: the engine drains plans through
// Database::Cursor.

#include "common/query_context.h"
#include "common/status.h"
#include "exec/output.h"
#include "luc/mapper.h"
#include "optimizer/optimizer.h"
#include "semantics/query_tree.h"

namespace sim::testing {

// Runs `qt`, following `plan`'s root access paths and iteration order
// when given (null = extent scans in declaration order). Honors the
// governor in `qctx` when given.
Result<ResultSet> RunReference(const QueryTree& qt, const AccessPlan* plan,
                               LucMapper* mapper,
                               QueryContext* qctx = nullptr);

}  // namespace sim::testing

#endif  // SIMDB_TESTS_REFERENCE_INTERPRETER_H_
