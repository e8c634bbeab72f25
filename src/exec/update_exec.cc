#include "exec/update_exec.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/expr_eval.h"
#include "parser/dml_parser.h"

namespace sim {

namespace {

// Extracts a top-level `attr = literal` conjunct usable for an index fast
// path. Returns the attribute name and the literal.
bool FindEqualityProbe(const Expr* where, std::string* attr, Value* value) {
  if (where == nullptr) return false;
  if (where->kind == ExprKind::kBinary) {
    const auto* bin = static_cast<const BinaryExpr*>(where);
    if (bin->op == BinaryOp::kAnd) {
      return FindEqualityProbe(bin->lhs.get(), attr, value) ||
             FindEqualityProbe(bin->rhs.get(), attr, value);
    }
    if (bin->op != BinaryOp::kEq) return false;
    const Expr* ref = bin->lhs.get();
    const Expr* lit = bin->rhs.get();
    if (ref->kind != ExprKind::kQualRef) std::swap(ref, lit);
    if (ref->kind != ExprKind::kQualRef ||
        lit->kind != ExprKind::kLiteral) {
      return false;
    }
    const auto* qr = static_cast<const QualRefExpr*>(ref);
    if (qr->elements.size() > 2) return false;  // extended attr: no probe
    const QualElement& e = qr->elements.front();
    if (e.inverse || e.transitive || !e.as_class.empty()) return false;
    *attr = e.name;
    *value = static_cast<const LiteralExpr*>(lit)->value;
    return true;
  }
  return false;
}

// Evaluates the single target of `qt` for entity `s` bound to the root.
// Non-root TYPE 1/3 nodes are bound to their first instance (a dummy when
// empty).
Result<Value> EvalForEntity(const QueryTree& qt, LucMapper* mapper,
                            SurrogateId s) {
  if (qt.roots.size() != 1 || qt.targets.size() != 1) {
    return Status::Internal(
        "EvalForEntity requires a single root and a single target");
  }
  EvalContext ctx(&qt, mapper);
  ExprEvaluator ev(&ctx);
  NodeBinding b;
  b.bound = true;
  b.entity = s;
  ctx.binding(qt.roots[0]) = b;
  for (int n : qt.MainLoopNodes()) {
    if (n == qt.roots[0]) continue;
    SIM_ASSIGN_OR_RETURN(std::vector<NodeBinding> domain, ev.ComputeDomain(n));
    if (domain.empty()) {
      NodeBinding dummy;
      dummy.bound = true;
      dummy.dummy = true;
      ctx.binding(n) = dummy;
    } else {
      ctx.binding(n) = domain.front();
    }
  }
  return ev.Eval(*qt.targets[0]);
}

}  // namespace

Result<std::vector<SurrogateId>> UpdateExecutor::SelectEntities(
    const std::string& cls_or_view, const Expr* where) {
  // Views select from their underlying class with the predicate applied.
  std::string cls = cls_or_view;
  if (!mapper_->dir().HasClass(cls_or_view) &&
      mapper_->dir().HasView(cls_or_view)) {
    SIM_ASSIGN_OR_RETURN(const ViewDef* view,
                         mapper_->dir().FindView(cls_or_view));
    cls = view->class_name;
    SIM_ASSIGN_OR_RETURN(std::vector<SurrogateId> base,
                         SelectEntities(cls, where));
    SIM_ASSIGN_OR_RETURN(ExprPtr cond,
                         DmlParser::ParseExpressionText(view->condition_text));
    SIM_ASSIGN_OR_RETURN(QueryTree vqt, binder_.BindCondition(cls, *cond));
    std::vector<SurrogateId> out;
    for (SurrogateId s : base) {
      SIM_ASSIGN_OR_RETURN(bool sat, EntitySatisfies(vqt, mapper_, s));
      if (sat) out.push_back(s);
    }
    return out;
  }
  if (where == nullptr) return mapper_->ExtentOf(cls);

  QueryTree qt;
  SIM_ASSIGN_OR_RETURN(qt, binder_.BindCondition(cls, *where));

  // Index fast path: `unique-attr = literal` narrows the scan to one
  // candidate.
  std::string probe_attr;
  Value probe_value;
  if (FindEqualityProbe(where, &probe_attr, &probe_value) &&
      mapper_->HasIndex(cls, probe_attr)) {
    Result<std::optional<SurrogateId>> hit =
        mapper_->LookupByIndex(cls, probe_attr, probe_value);
    if (hit.ok()) {
      std::vector<SurrogateId> out;
      if (hit->has_value()) {
        SIM_ASSIGN_OR_RETURN(bool has_role, mapper_->HasRole(**hit, cls));
        if (has_role) {
          SIM_ASSIGN_OR_RETURN(bool sat,
                               EntitySatisfies(qt, mapper_, **hit));
          if (sat) out.push_back(**hit);
        }
      }
      return out;
    }
  }

  SIM_ASSIGN_OR_RETURN(std::vector<SurrogateId> extent, mapper_->ExtentOf(cls));
  std::sort(extent.begin(), extent.end());
  std::vector<SurrogateId> out;
  for (SurrogateId s : extent) {
    SIM_ASSIGN_OR_RETURN(bool sat, EntitySatisfies(qt, mapper_, s));
    if (sat) out.push_back(s);
  }
  return out;
}

Result<Value> UpdateExecutor::EvalAssignmentValue(const std::string& cls,
                                                  SurrogateId s,
                                                  const Expr& expr) {
  SIM_ASSIGN_OR_RETURN(QueryTree qt, binder_.BindEntityExpr(cls, expr));
  return EvalForEntity(qt, mapper_, s);
}

Result<std::vector<SurrogateId>> UpdateExecutor::SelectorTargets(
    const std::string& cls, SurrogateId s, const Assignment& a) {
  SIM_ASSIGN_OR_RETURN(DirectoryManager::ResolvedAttr ra,
                       mapper_->dir().ResolveAttribute(cls, a.attr));
  if (!ra.attr->is_eva()) {
    return Status::InvalidArgument("'" + a.attr +
                                   "' is not an EVA; WITH selector does not "
                                   "apply");
  }
  if (a.mode == Assignment::Mode::kExclude) {
    // "<object name> refers to the same EVA name for exclusions": select
    // among the current targets of the EVA.
    if (!NameEq(a.with_object, a.attr)) {
      return Status::InvalidArgument(
          "EXCLUDE must name the EVA itself ('" + a.attr + "'), got '" +
          a.with_object + "'");
    }
    SIM_ASSIGN_OR_RETURN(
        std::vector<SurrogateId> current,
        mapper_->GetEvaTargets(ra.owner->name, ra.attr->name, s));
    SIM_ASSIGN_OR_RETURN(QueryTree qt,
                         binder_.BindCondition(ra.attr->range_class,
                                               *a.with_expr));
    std::vector<SurrogateId> out;
    for (SurrogateId t : current) {
      SIM_ASSIGN_OR_RETURN(bool sat, EntitySatisfies(qt, mapper_, t));
      if (sat) out.push_back(t);
    }
    return out;
  }
  // SET / INCLUDE: "<object name> refers to a class name ... it must be
  // the range class of the EVA."
  SIM_ASSIGN_OR_RETURN(
      bool is_range,
      mapper_->dir().IsSubclassOrSame(a.with_object, ra.attr->range_class));
  if (!is_range) {
    return Status::InvalidArgument("'" + a.with_object +
                                   "' is not the range class of EVA '" +
                                   a.attr + "'");
  }
  return SelectEntities(a.with_object, a.with_expr.get());
}

Status UpdateExecutor::ApplyAssignment(
    const std::string& cls, SurrogateId s, const Assignment& a,
    Transaction* txn, std::set<std::string>* touched_classes,
    std::vector<SurrogateId>* touched_entities) {
  SIM_ASSIGN_OR_RETURN(DirectoryManager::ResolvedAttr ra,
                       mapper_->dir().ResolveAttribute(cls, a.attr));
  touched_classes->insert(ra.owner->name);

  if (ra.attr->is_eva()) {
    std::vector<SurrogateId> selected;
    if (a.is_selector) {
      SIM_ASSIGN_OR_RETURN(selected, SelectorTargets(cls, s, a));
    } else {
      // Non-selector EVA assignment: only `:= null` (clear) is meaningful.
      SIM_ASSIGN_OR_RETURN(Value v, EvalAssignmentValue(cls, s, *a.value));
      if (!v.is_null()) {
        if (v.type() == ValueType::kSurrogate) {
          selected.push_back(v.surrogate_value());
        } else {
          return Status::TypeError(
              "EVA assignment requires a WITH selector, an entity, or null");
        }
      } else if (a.mode != Assignment::Mode::kSet) {
        return Status::InvalidArgument(
            "INCLUDE/EXCLUDE of null on EVA '" + a.attr + "'");
      }
    }
    for (SurrogateId t : selected) touched_entities->push_back(t);
    SIM_ASSIGN_OR_RETURN(const ClassDef* range,
                         mapper_->dir().FindClass(ra.attr->range_class));
    touched_classes->insert(range->name);
    switch (a.mode) {
      case Assignment::Mode::kSet: {
        if (!ra.attr->mv && selected.size() > 1) {
          return Status::ConstraintViolation(
              "assignment selects " + std::to_string(selected.size()) +
              " entities for single-valued EVA '" + a.attr + "'");
        }
        SIM_RETURN_IF_ERROR(
            mapper_->RemoveAllEvaPairs(ra.owner->name, ra.attr->name, s, txn));
        for (SurrogateId t : selected) {
          SIM_RETURN_IF_ERROR(
              mapper_->AddEvaPair(ra.owner->name, ra.attr->name, s, t, txn));
        }
        return Status::Ok();
      }
      case Assignment::Mode::kInclude:
        for (SurrogateId t : selected) {
          SIM_RETURN_IF_ERROR(
              mapper_->AddEvaPair(ra.owner->name, ra.attr->name, s, t, txn));
        }
        return Status::Ok();
      case Assignment::Mode::kExclude:
        for (SurrogateId t : selected) {
          SIM_RETURN_IF_ERROR(mapper_->RemoveEvaPair(ra.owner->name,
                                                     ra.attr->name, s, t,
                                                     txn));
        }
        return Status::Ok();
    }
    return Status::Internal("unhandled assignment mode");
  }

  // DVA assignment.
  if (a.is_selector) {
    return Status::InvalidArgument("WITH selector on DVA '" + a.attr + "'");
  }
  SIM_ASSIGN_OR_RETURN(Value v, EvalAssignmentValue(cls, s, *a.value));
  if (!ra.attr->mv) {
    if (a.mode != Assignment::Mode::kSet) {
      return Status::InvalidArgument(
          "INCLUDE/EXCLUDE on single-valued attribute '" + a.attr + "'");
    }
    return mapper_->SetField(s, ra.owner->name, ra.attr->name, v, txn);
  }
  switch (a.mode) {
    case Assignment::Mode::kSet: {
      // Replace the whole collection with the one value (null clears).
      SIM_ASSIGN_OR_RETURN(
          std::vector<Value> current,
          mapper_->GetMvValues(s, ra.owner->name, ra.attr->name));
      for (const Value& cur : current) {
        SIM_RETURN_IF_ERROR(mapper_->RemoveMvValue(s, ra.owner->name,
                                                   ra.attr->name, cur, txn));
      }
      if (!v.is_null()) {
        SIM_RETURN_IF_ERROR(
            mapper_->AddMvValue(s, ra.owner->name, ra.attr->name, v, txn));
      }
      return Status::Ok();
    }
    case Assignment::Mode::kInclude:
      return mapper_->AddMvValue(s, ra.owner->name, ra.attr->name, v, txn);
    case Assignment::Mode::kExclude:
      return mapper_->RemoveMvValue(s, ra.owner->name, ra.attr->name, v, txn);
  }
  return Status::Internal("unhandled assignment mode");
}

Result<UpdateExecutor::UpdateResult> UpdateExecutor::ExecuteInsert(
    const InsertStmt& stmt, Transaction* txn) {
  UpdateResult result;
  std::set<std::string> touched_classes;
  if (mapper_->dir().HasView(stmt.class_name)) {
    return Status::NotSupported(
        "INSERT through a view is not supported; insert into '" +
        mapper_->dir().FindView(stmt.class_name).value()->class_name +
        "' directly");
  }
  SIM_ASSIGN_OR_RETURN(const ClassDef* cls,
                       mapper_->dir().FindClass(stmt.class_name));
  touched_classes.insert(cls->name);

  std::vector<SurrogateId> targets;
  if (!stmt.from_class.empty()) {
    // Role extension: <from_class> must be an ancestor of <class>.
    SIM_ASSIGN_OR_RETURN(
        bool is_ancestor,
        mapper_->dir().IsSubclassOrSame(cls->name, stmt.from_class));
    if (!is_ancestor || NameEq(cls->name, stmt.from_class)) {
      return Status::InvalidArgument("'" + stmt.from_class +
                                     "' is not a proper ancestor of '" +
                                     cls->name + "'");
    }
    SIM_ASSIGN_OR_RETURN(targets, SelectEntities(stmt.from_class,
                                                 stmt.from_where.get()));
    if (targets.empty()) {
      return Status::NotFound("INSERT ... FROM selects no entity");
    }
    for (SurrogateId s : targets) {
      SIM_RETURN_IF_ERROR(mapper_->AddRole(s, cls->name, txn));
    }
  } else {
    SIM_ASSIGN_OR_RETURN(SurrogateId s, mapper_->CreateEntity(cls->name, txn));
    targets.push_back(s);
  }

  for (SurrogateId s : targets) {
    for (const Assignment& a : stmt.assignments) {
      SIM_RETURN_IF_ERROR(ApplyAssignment(cls->name, s, a, txn,
                                          &touched_classes, &result.touched));
    }
    SIM_RETURN_IF_ERROR(mapper_->CheckRequired(s, cls->name));
    result.touched.push_back(s);
  }
  result.entities_affected = static_cast<int>(targets.size());
  if (integrity_ != nullptr) {
    SIM_RETURN_IF_ERROR(
        integrity_->CheckAfterStatement(result.touched, touched_classes));
  }
  return result;
}

Result<UpdateExecutor::UpdateResult> UpdateExecutor::ExecuteModify(
    const ModifyStmt& stmt, Transaction* txn) {
  UpdateResult result;
  std::set<std::string> touched_classes;
  std::string class_name = stmt.class_name;
  if (mapper_->dir().HasView(class_name)) {
    SIM_ASSIGN_OR_RETURN(const ViewDef* view,
                         mapper_->dir().FindView(class_name));
    class_name = view->class_name;
  }
  SIM_ASSIGN_OR_RETURN(const ClassDef* cls,
                       mapper_->dir().FindClass(class_name));
  touched_classes.insert(cls->name);
  SIM_ASSIGN_OR_RETURN(std::vector<SurrogateId> targets,
                       SelectEntities(stmt.class_name, stmt.where.get()));
  for (SurrogateId s : targets) {
    for (const Assignment& a : stmt.assignments) {
      SIM_RETURN_IF_ERROR(ApplyAssignment(cls->name, s, a, txn,
                                          &touched_classes, &result.touched));
    }
    SIM_RETURN_IF_ERROR(mapper_->CheckRequired(s, cls->name));
    result.touched.push_back(s);
  }
  result.entities_affected = static_cast<int>(targets.size());
  if (integrity_ != nullptr) {
    SIM_RETURN_IF_ERROR(
        integrity_->CheckAfterStatement(result.touched, touched_classes));
  }
  return result;
}

Result<UpdateExecutor::UpdateResult> UpdateExecutor::ExecuteDelete(
    const DeleteStmt& stmt, Transaction* txn) {
  UpdateResult result;
  std::set<std::string> touched_classes;
  std::string class_name = stmt.class_name;
  if (mapper_->dir().HasView(class_name)) {
    SIM_ASSIGN_OR_RETURN(const ViewDef* view,
                         mapper_->dir().FindView(class_name));
    class_name = view->class_name;
  }
  SIM_ASSIGN_OR_RETURN(const ClassDef* cls,
                       mapper_->dir().FindClass(class_name));
  touched_classes.insert(cls->name);
  SIM_ASSIGN_OR_RETURN(std::vector<std::string> descendants,
                       mapper_->dir().DescendantsOf(cls->name));
  for (const auto& d : descendants) touched_classes.insert(d);
  SIM_ASSIGN_OR_RETURN(std::vector<SurrogateId> targets,
                       SelectEntities(stmt.class_name, stmt.where.get()));
  for (SurrogateId s : targets) {
    SIM_RETURN_IF_ERROR(mapper_->DeleteRole(s, cls->name, txn));
    result.touched.push_back(s);
  }
  result.entities_affected = static_cast<int>(targets.size());
  if (integrity_ != nullptr) {
    SIM_RETURN_IF_ERROR(
        integrity_->CheckAfterStatement(result.touched, touched_classes));
  }
  return result;
}

}  // namespace sim
