#ifndef SIMDB_EXEC_INTEGRITY_H_
#define SIMDB_EXEC_INTEGRITY_H_

// VERIFY-assertion enforcement (§3.3). At DDL time every assertion is
// parsed and bound with its class as perspective; trigger detection
// records the set of classes the condition reads (its perspective plus
// every class its query tree touches). After an update statement the
// checker re-evaluates only the assertions whose trigger set intersects
// the touched classes:
//  * for entities the statement touched directly that hold the assertion's
//    perspective role, the condition is checked on those entities (the
//    efficient, "query enhancement" subset);
//  * when other trigger classes were touched (the condition reads data
//    beyond its perspective), the checker conservatively re-evaluates the
//    assertion over the whole perspective extent — the paper reports
//    exactly this split ("works efficiently for a subset of constraints;
//    ... arbitrary integrity constraints have only been partially
//    implemented").
// A violated assertion aborts the statement with the declared message;
// conditions evaluating to UNKNOWN are treated as satisfied.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/directory.h"
#include "common/status.h"
#include "common/query_context.h"
#include "luc/mapper.h"
#include "semantics/binder.h"

namespace sim {

// True when entity `s`, bound to the single root of `qt`, satisfies the
// tree's selection definitely (TYPE 2 nodes evaluated existentially;
// UNKNOWN is not satisfaction). Evaluates update WHERE clauses, EVA
// selectors and VERIFY conditions.
Result<bool> EntitySatisfies(const QueryTree& qt, LucMapper* mapper,
                             SurrogateId s, QueryContext* qctx = nullptr);

class IntegrityChecker {
 public:
  IntegrityChecker(const DirectoryManager* dir, LucMapper* mapper)
      : dir_(dir), mapper_(mapper) {}

  // Parses, binds and analyzes every VERIFY in the catalog. Call after
  // DDL changes.
  Status Prepare();

  size_t prepared_count() const { return conditions_.size(); }

  // Checks assertions after a statement that touched `entities` (their
  // surrogates) and `touched_classes` (every class whose attributes,
  // roles or relationships the statement modified).
  Status CheckAfterStatement(const std::vector<SurrogateId>& entities,
                             const std::set<std::string>& touched_classes);

  // Statistics: how many entity-level condition evaluations ran.
  uint64_t evaluations() const { return evaluations_; }

 private:
  struct PreparedVerify {
    const VerifyDef* def = nullptr;
    QueryTree tree;
    std::set<std::string> trigger_classes;  // lowercase
    bool needs_full_recheck = false;  // reads beyond its perspective
  };

  Status CheckOne(const PreparedVerify& v,
                  const std::vector<SurrogateId>& entities,
                  const std::set<std::string>& touched_classes);

  const DirectoryManager* dir_;
  LucMapper* mapper_;
  std::vector<PreparedVerify> conditions_;
  uint64_t evaluations_ = 0;
};

}  // namespace sim

#endif  // SIMDB_EXEC_INTEGRITY_H_
