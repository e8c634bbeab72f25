#ifndef SIMDB_EXEC_UPDATE_EXEC_H_
#define SIMDB_EXEC_UPDATE_EXEC_H_

// Update-statement execution (§4.8):
//  * INSERT <class> — creates an entity with all superclass roles;
//    INSERT <class> FROM <ancestor> WHERE ... — extends existing
//    entities' roles downward;
//  * MODIFY <class> (assignments) WHERE ... — per-entity assignment of
//    immediate and inherited attributes, INCLUDE/EXCLUDE on multi-valued
//    attributes and EVA selector assignment `eva := <class> WITH (...)`;
//  * DELETE <class> WHERE ... — removes the class role and all subclass
//    roles (superclass roles remain; deleting a base-class entity removes
//    it everywhere).
// Every statement runs inside a transaction scope; attribute options,
// REQUIRED checks and VERIFY assertions abort and roll the statement
// back.

#include <set>
#include <vector>

#include "common/status.h"
#include "exec/integrity.h"
#include "luc/mapper.h"
#include "parser/ast.h"
#include "semantics/binder.h"
#include "storage/txn.h"

namespace sim {

class UpdateExecutor {
 public:
  UpdateExecutor(LucMapper* mapper, IntegrityChecker* integrity)
      : mapper_(mapper), binder_(&mapper->dir()), integrity_(integrity) {}

  struct UpdateResult {
    int entities_affected = 0;
    std::vector<SurrogateId> touched;
  };

  Result<UpdateResult> ExecuteInsert(const InsertStmt& stmt, Transaction* txn);
  Result<UpdateResult> ExecuteModify(const ModifyStmt& stmt, Transaction* txn);
  Result<UpdateResult> ExecuteDelete(const DeleteStmt& stmt, Transaction* txn);

  // Entities of `cls` satisfying `where` (nullptr = all). Uses a unique
  // index fast path for top-level equality predicates when available.
  Result<std::vector<SurrogateId>> SelectEntities(const std::string& cls,
                                                  const Expr* where);

 private:
  // Applies one assignment to one entity. `touched_classes` accumulates
  // every class whose data changed (trigger detection input).
  Status ApplyAssignment(const std::string& cls, SurrogateId s,
                         const Assignment& a, Transaction* txn,
                         std::set<std::string>* touched_classes,
                         std::vector<SurrogateId>* touched_entities);

  // Entities selected by an EVA-selector assignment.
  Result<std::vector<SurrogateId>> SelectorTargets(const std::string& cls,
                                                   SurrogateId s,
                                                   const Assignment& a);

  Result<Value> EvalAssignmentValue(const std::string& cls, SurrogateId s,
                                    const Expr& expr);

  LucMapper* mapper_;
  Binder binder_;
  IntegrityChecker* integrity_;
};

}  // namespace sim

#endif  // SIMDB_EXEC_UPDATE_EXEC_H_
