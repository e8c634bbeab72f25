#include "reference_interpreter.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "exec/expr_eval.h"
#include "exec/operators.h"
#include "storage/record_codec.h"

namespace sim::testing {

namespace {

// Finds the QT nodes an expression references (structured-output record
// homes).
void CollectNodes(const BExpr& expr, std::vector<int>* out) {
  switch (expr.kind) {
    case BExprKind::kLiteral:
      return;
    case BExprKind::kField:
      out->push_back(static_cast<const BField&>(expr).node);
      return;
    case BExprKind::kNodeValue:
      out->push_back(static_cast<const BNodeValue&>(expr).node);
      return;
    case BExprKind::kNodeRef:
      out->push_back(static_cast<const BNodeRef&>(expr).node);
      return;
    case BExprKind::kBinary: {
      const auto& b = static_cast<const BBinary&>(expr);
      CollectNodes(*b.lhs, out);
      CollectNodes(*b.rhs, out);
      return;
    }
    case BExprKind::kUnary:
      CollectNodes(*static_cast<const BUnary&>(expr).operand, out);
      return;
    case BExprKind::kAggregate:
      // An aggregate's home is where its loops hang from; approximate with
      // the nodes its argument references outside its own scope — covered
      // by the loop-node parents, so nothing to add here.
      return;
    case BExprKind::kQuantified:
      return;
    case BExprKind::kIsa:
      CollectNodes(*static_cast<const BIsa&>(expr).entity, out);
      return;
    case BExprKind::kFunction:
      for (const auto& arg : static_cast<const BFunction&>(expr).args) {
        CollectNodes(*arg, out);
      }
      return;
  }
}

class Interpreter {
 public:
  Interpreter(const QueryTree& qt, const AccessPlan* plan, LucMapper* mapper,
              QueryContext* qctx)
      : qt_(qt), plan_(plan), mapper_(mapper), ctx_(&qt, mapper), ev_(&ctx_) {
    ctx_.set_query_context(qctx);
  }

  Result<ResultSet> Run();

 private:
  Status Recurse(size_t i);
  Status EmitIfSelected();
  Result<std::vector<NodeBinding>> RootDomain(int node);
  Result<TriBool> EvaluateSelection();

  const QueryTree& qt_;
  const AccessPlan* plan_;
  LucMapper* mapper_;
  EvalContext ctx_;
  ExprEvaluator ev_;
  ResultSet rs_;
  std::vector<int> loop_nodes_;   // TYPE 1 & 3, iteration order
  std::vector<int> type2_nodes_;  // TYPE 2, DFS order
  std::vector<int> home_node_;    // per target: structured-output home
  std::vector<int> node_depth_;   // per node id: loop depth
  std::vector<NodeBinding> last_emitted_;  // structured-mode change watch
  std::vector<std::vector<Value>> sort_keys_;  // per emitted row
  bool needs_restore_sort_ = false;
};

Result<ResultSet> Interpreter::Run() {
  rs_.columns = qt_.target_labels;
  rs_.structured = qt_.mode == OutputMode::kStructure;

  // Iteration order: plan root order (or declaration order), each root
  // followed by its TYPE1/3 descendants depth-first.
  std::vector<int> root_order;
  if (plan_ != nullptr && !plan_->roots.empty()) {
    for (const auto& r : plan_->roots) root_order.push_back(r.node);
  } else {
    root_order = qt_.roots;
  }
  node_depth_.assign(qt_.nodes.size(), 0);
  for (int r : root_order) {
    std::vector<std::pair<int, int>> stack = {{r, 0}};
    while (!stack.empty()) {
      auto [n, depth] = stack.back();
      stack.pop_back();
      node_depth_[n] = depth;
      if (qt_.nodes[n].label != 2) loop_nodes_.push_back(n);
      std::vector<int> kids = qt_.MainChildren(n);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        if (qt_.nodes[*it].label != 2) stack.push_back({*it, depth + 1});
      }
    }
  }
  for (int n : qt_.MainLoopNodes()) {
    if (qt_.nodes[n].label == 2) type2_nodes_.push_back(n);
  }

  // Structured-output homes: the loop-deepest node each target references.
  for (const auto& t : qt_.targets) {
    std::vector<int> nodes;
    CollectNodes(*t, &nodes);
    int home = root_order.empty() ? -1 : root_order[0];
    int best_pos = -1;
    for (int n : nodes) {
      if (qt_.nodes[n].scope >= 0 || qt_.nodes[n].label == 2) continue;
      auto it = std::find(loop_nodes_.begin(), loop_nodes_.end(), n);
      if (it == loop_nodes_.end()) continue;
      int pos = static_cast<int>(it - loop_nodes_.begin());
      if (pos > best_pos) {
        best_pos = pos;
        home = n;
      }
    }
    home_node_.push_back(home);
  }
  last_emitted_.assign(qt_.nodes.size(), NodeBinding());
  needs_restore_sort_ = plan_ != nullptr && !plan_->order_preserving;

  SIM_RETURN_IF_ERROR(Recurse(0));

  // Restore perspective order when the plan reordered roots, then apply
  // ORDER BY, then DISTINCT.
  if (!rs_.structured && (needs_restore_sort_ || !qt_.order_by.empty())) {
    std::vector<size_t> order(rs_.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const auto& ka = sort_keys_[a];
      const auto& kb = sort_keys_[b];
      for (size_t i = 0; i < ka.size() && i < kb.size(); ++i) {
        int c = CompareForSort(ka[i], kb[i]);
        bool desc = i < qt_.order_by.size() && qt_.order_by[i].descending;
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(rs_.rows.size());
    for (size_t i : order) sorted.push_back(std::move(rs_.rows[i]));
    rs_.rows = std::move(sorted);
  }
  if (qt_.mode == OutputMode::kTableDistinct) {
    // Same encoded-key dedupe as the pipeline's Distinct operator (parity):
    // one memcmp-comparable AppendRowKey buffer per row, keys parked in a
    // statement-local arena.
    Arena arena;
    std::unordered_set<std::string_view> seen;
    std::string key_buf;
    std::vector<Row> unique;
    for (Row& r : rs_.rows) {
      key_buf.clear();
      for (const Value& v : r.values) AppendRowKey(v, &key_buf);
      if (seen.find(std::string_view(key_buf)) == seen.end()) {
        seen.insert(arena.CopyString(key_buf));
        unique.push_back(std::move(r));
      }
    }
    rs_.rows = std::move(unique);
  }
  // RETRIEVE FIRST n: the reference interpreter truncates after the fact
  // (only the pipeline terminates the scans early).
  if (qt_.limit >= 0 && rs_.rows.size() > static_cast<size_t>(qt_.limit)) {
    rs_.rows.resize(static_cast<size_t>(qt_.limit));
  }
  return std::move(rs_);
}

Result<std::vector<NodeBinding>> Interpreter::RootDomain(int node) {
  if (plan_ != nullptr) {
    for (const auto& r : plan_->roots) {
      if (r.node != node) continue;
      if (r.method == AccessPlan::RootMethod::kIndexEq) {
        SIM_ASSIGN_OR_RETURN(
            std::optional<SurrogateId> found,
            mapper_->LookupByIndex(r.index_class, r.index_attr, r.eq_value));
        std::vector<NodeBinding> out;
        if (found.has_value()) {
          // The index covers the declaring class; the perspective may be a
          // subclass — verify the role.
          SIM_ASSIGN_OR_RETURN(
              bool has, mapper_->HasRole(*found, qt_.nodes[node].class_name));
          if (has) {
            NodeBinding b;
            b.bound = true;
            b.entity = *found;
            out.push_back(b);
          }
        }
        return out;
      }
      break;
    }
  }
  return ev_.ComputeDomain(node);
}

Status Interpreter::Recurse(size_t i) {
  if (i == loop_nodes_.size()) return EmitIfSelected();
  int node = loop_nodes_[i];
  const QtNode& n = qt_.nodes[node];
  std::vector<NodeBinding> domain;
  if (n.parent < 0) {
    SIM_ASSIGN_OR_RETURN(domain, RootDomain(node));
  } else {
    SIM_ASSIGN_OR_RETURN(domain, ev_.ComputeDomain(node));
  }
  if (domain.empty() && n.label == 3) {
    // Directed outer join: one dummy all-null instance (§4.5).
    NodeBinding dummy;
    dummy.bound = true;
    dummy.dummy = true;
    ctx_.binding(node) = dummy;
    SIM_RETURN_IF_ERROR(Recurse(i + 1));
    ctx_.binding(node) = NodeBinding();
    return Status::Ok();
  }
  for (NodeBinding& b : domain) {
    ctx_.binding(node) = std::move(b);
    SIM_RETURN_IF_ERROR(Recurse(i + 1));
  }
  ctx_.binding(node) = NodeBinding();
  return Status::Ok();
}

Result<TriBool> Interpreter::EvaluateSelection() {
  if (qt_.where == nullptr) return TriBool::kTrue;
  if (type2_nodes_.empty()) return ev_.EvalPredicate(*qt_.where);
  // "for some X_{m+1} ... X_n ... if <selection> is true" — existential
  // iteration of the TYPE 2 variables.
  bool found = false;
  Status s = ev_.ForEachCombination(type2_nodes_, [&]() -> Result<bool> {
    SIM_ASSIGN_OR_RETURN(TriBool t, ev_.EvalPredicate(*qt_.where));
    if (t == TriBool::kTrue) {
      found = true;
      return false;  // stop early
    }
    return true;
  });
  SIM_RETURN_IF_ERROR(s);
  return MakeTriBool(found);
}

Status Interpreter::EmitIfSelected() {
  QueryContext* qctx = ctx_.query_context();
  if (qctx != nullptr) SIM_RETURN_IF_ERROR(qctx->ChargeCombinations());
  SIM_ASSIGN_OR_RETURN(TriBool pass, EvaluateSelection());
  if (pass != TriBool::kTrue) return Status::Ok();

  if (qt_.mode == OutputMode::kStructure) {
    // Emit a record for every TYPE1/3 node whose binding changed, plus all
    // deeper ones — the fully structured multi-format output.
    size_t first_changed = loop_nodes_.size();
    for (size_t i = 0; i < loop_nodes_.size(); ++i) {
      int node = loop_nodes_[i];
      const NodeBinding& cur = ctx_.binding(node);
      const NodeBinding& last = last_emitted_[node];
      bool same = last.bound && cur.bound && last.dummy == cur.dummy &&
                  last.entity == cur.entity &&
                  last.value.StrictEquals(cur.value);
      if (!same) {
        first_changed = i;
        break;
      }
    }
    for (size_t i = first_changed; i < loop_nodes_.size(); ++i) {
      int node = loop_nodes_[i];
      Row row;
      row.format_node = node;
      const NodeBinding& b = ctx_.binding(node);
      row.level = node_depth_[node] + (b.level > 1 ? b.level - 1 : 0);
      for (size_t t = 0; t < qt_.targets.size(); ++t) {
        if (home_node_[t] != node) continue;
        SIM_ASSIGN_OR_RETURN(Value v, ev_.Eval(*qt_.targets[t]));
        row.values.push_back(std::move(v));
      }
      last_emitted_[node] = b;
      if (qctx != nullptr) SIM_RETURN_IF_ERROR(qctx->ChargeRows());
      rs_.rows.push_back(std::move(row));
    }
    return Status::Ok();
  }

  Row row;
  row.values.reserve(qt_.targets.size());
  for (const auto& t : qt_.targets) {
    SIM_ASSIGN_OR_RETURN(Value v, ev_.Eval(*t));
    row.values.push_back(std::move(v));
  }
  // Sort keys: ORDER BY expressions first, then root surrogates in
  // declaration order (restores perspective order after plan reordering).
  std::vector<Value> keys;
  for (const auto& o : qt_.order_by) {
    SIM_ASSIGN_OR_RETURN(Value v, ev_.Eval(*o.expr));
    keys.push_back(std::move(v));
  }
  if (needs_restore_sort_) {
    for (int r : qt_.roots) {
      const NodeBinding& b = ctx_.binding(r);
      keys.push_back(b.bound && !b.dummy ? Value::Surrogate(b.entity)
                                         : Value::Null());
    }
  }
  sort_keys_.push_back(std::move(keys));
  if (qctx != nullptr) SIM_RETURN_IF_ERROR(qctx->ChargeRows());
  rs_.rows.push_back(std::move(row));
  return Status::Ok();
}

}  // namespace

Result<ResultSet> RunReference(const QueryTree& qt, const AccessPlan* plan,
                               LucMapper* mapper, QueryContext* qctx) {
  return Interpreter(qt, plan, mapper, qctx).Run();
}

}  // namespace sim::testing
