#include "exec/integrity.h"

#include "common/strings.h"
#include "exec/expr_eval.h"
#include "parser/dml_parser.h"

namespace sim {

Result<bool> EntitySatisfies(const QueryTree& qt, LucMapper* mapper,
                             SurrogateId s, QueryContext* qctx) {
  if (qt.roots.size() != 1) {
    return Status::Internal("EntitySatisfies requires a single-root tree");
  }
  EvalContext ctx(&qt, mapper);
  ctx.set_query_context(qctx);
  ExprEvaluator ev(&ctx);
  NodeBinding b;
  b.bound = true;
  b.entity = s;
  ctx.binding(qt.roots[0]) = b;
  if (qt.where == nullptr) return true;
  std::vector<int> inner;
  for (int n : qt.MainLoopNodes()) {
    if (n != qt.roots[0]) inner.push_back(n);
  }
  if (inner.empty()) {
    SIM_ASSIGN_OR_RETURN(TriBool t, ev.EvalPredicate(*qt.where));
    return t == TriBool::kTrue;
  }
  bool found = false;
  Status st = ev.ForEachCombination(inner, [&]() -> Result<bool> {
    SIM_ASSIGN_OR_RETURN(TriBool t, ev.EvalPredicate(*qt.where));
    if (t == TriBool::kTrue) {
      found = true;
      return false;
    }
    return true;
  });
  SIM_RETURN_IF_ERROR(st);
  return found;
}

Status IntegrityChecker::Prepare() {
  conditions_.clear();
  Binder binder(dir_);
  for (const VerifyDef* def : dir_->AllVerifies()) {
    PreparedVerify v;
    v.def = def;
    SIM_ASSIGN_OR_RETURN(ExprPtr expr,
                         DmlParser::ParseExpressionText(def->condition_text));
    SIM_ASSIGN_OR_RETURN(v.tree,
                         binder.BindCondition(def->class_name, *expr));
    // Trigger detection: every class named by a node of the bound tree,
    // including subclasses of the perspective (their entities hold the
    // perspective role) and ancestor classes providing inherited
    // attributes.
    for (const QtNode& n : v.tree.nodes) {
      if (n.class_name.empty()) continue;
      v.trigger_classes.insert(AsciiLower(n.class_name));
      Result<std::vector<std::string>> descendants =
          dir_->DescendantsOf(n.class_name);
      if (descendants.ok()) {
        for (const auto& d : *descendants) {
          v.trigger_classes.insert(AsciiLower(d));
        }
      }
      if (n.id != v.tree.roots[0]) {
        // Data reached through EVAs/MV DVAs: entity-local checking is not
        // enough when those classes change.
        if (!NameEq(n.class_name, def->class_name)) {
          v.needs_full_recheck = true;
        }
      }
    }
    v.trigger_classes.insert(AsciiLower(def->class_name));
    conditions_.push_back(std::move(v));
  }
  return Status::Ok();
}

Status IntegrityChecker::CheckOne(
    const PreparedVerify& v, const std::vector<SurrogateId>& entities,
    const std::set<std::string>& touched_classes) {
  // Entities touched directly and holding the perspective role.
  std::vector<SurrogateId> to_check;
  for (SurrogateId s : entities) {
    Result<bool> has = mapper_->HasRole(s, v.def->class_name);
    if (has.ok() && *has) to_check.push_back(s);
  }
  // When trigger classes beyond the perspective family were touched, the
  // statement may have invalidated entities it never named: fall back to
  // the whole extent.
  bool full = false;
  if (v.needs_full_recheck) {
    for (const auto& c : touched_classes) {
      if (NameEq(c, v.def->class_name)) continue;
      Result<bool> within =
          dir_->IsSubclassOrSame(c, v.def->class_name);
      bool in_family = within.ok() && *within;
      if (!in_family && v.trigger_classes.count(AsciiLower(c))) {
        full = true;
        break;
      }
    }
  }
  if (full) {
    SIM_ASSIGN_OR_RETURN(to_check, mapper_->ExtentOf(v.def->class_name));
  }
  for (SurrogateId s : to_check) {
    ++evaluations_;
    SIM_ASSIGN_OR_RETURN(bool ok, EntitySatisfies(v.tree, mapper_, s));
    // EntitySatisfies returns definite truth; UNKNOWN is tolerated, so we
    // check for definite falsity by testing the negation... Cheaper: a
    // condition is violated only when it evaluates to definite FALSE. We
    // approximate: not-true counts as violation only when the condition
    // evaluates to false under negation.
    if (!ok) {
      // Distinguish unknown from false: evaluate the negation; if the
      // negation is definitely true the condition was definitely false.
      QueryTree neg;
      // Rebind with NOT: reuse tree by wrapping at evaluation time is not
      // possible here, so test falsity via the original: condition unknown
      // means neither it nor its negation is true.
      // Build the negation lazily once per prepared verify would be
      // cleaner; the extra bind is cheap relative to the check itself.
      Binder binder(dir_);
      SIM_ASSIGN_OR_RETURN(
          ExprPtr expr,
          DmlParser::ParseExpressionText("not (" + v.def->condition_text +
                                         ")"));
      SIM_ASSIGN_OR_RETURN(neg, binder.BindCondition(v.def->class_name,
                                                     *expr));
      SIM_ASSIGN_OR_RETURN(bool definitely_false,
                           EntitySatisfies(neg, mapper_, s));
      if (definitely_false) {
        return Status::Aborted(v.def->message);
      }
    }
  }
  return Status::Ok();
}

Status IntegrityChecker::CheckAfterStatement(
    const std::vector<SurrogateId>& entities,
    const std::set<std::string>& touched_classes) {
  std::set<std::string> touched_lc;
  for (const auto& c : touched_classes) touched_lc.insert(AsciiLower(c));
  for (const PreparedVerify& v : conditions_) {
    bool triggered = false;
    for (const auto& c : touched_lc) {
      if (v.trigger_classes.count(c)) {
        triggered = true;
        break;
      }
    }
    if (!triggered) continue;
    SIM_RETURN_IF_ERROR(CheckOne(v, entities, touched_lc));
  }
  return Status::Ok();
}

}  // namespace sim
