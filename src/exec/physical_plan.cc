#include "exec/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace sim {

namespace {

// Finds the QT nodes an expression references (structured-output record
// homes). Mirrors the reference interpreter's rules: aggregates and
// quantifiers contribute nothing (their loops hang from already-covered
// parents).
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
      return;
    case BExprKind::kQuantified:
      return;
    case BExprKind::kIsa:
      CollectNodes(*static_cast<const BIsa&>(expr).entity, out);
      return;
    case BExprKind::kFunction:
      // A function of a deeper node's value belongs in that node's record.
      for (const auto& arg : static_cast<const BFunction&>(expr).args) {
        CollectNodes(*arg, out);
      }
      return;
  }
}

// Estimated instances a child node delivers per parent combination.
double PerParentEstimate(const QueryTree& qt, int node, LucMapper* mapper) {
  const QtNode& n = qt.nodes[node];
  switch (n.derivation) {
    case NodeDerivation::kPerspective: {
      Result<uint64_t> count = mapper->ExtentCount(n.class_name);
      return count.ok() ? std::max<double>(1.0, static_cast<double>(*count))
                        : 1.0;
    }
    case NodeDerivation::kEva:
    case NodeDerivation::kTransitiveEva: {
      bool is_side_a = true;
      Result<int> eva = mapper->phys().EvaOf(n.via_owner->name,
                                             n.via_attr->name, &is_side_a);
      double fanout =
          eva.ok() ? std::max(mapper->AvgEvaFanout(*eva, is_side_a), 0.01)
                   : 1.0;
      // Closures revisit the structure once per reached entity.
      if (n.derivation == NodeDerivation::kTransitiveEva) fanout *= 4.0;
      return fanout;
    }
    case NodeDerivation::kMvDva:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

Result<PhysicalPlan> PhysicalPlan::Build(const QueryTree& qt,
                                         const AccessPlan* access,
                                         LucMapper* mapper) {
  PhysicalPlan plan;
  if (access != nullptr) plan.access = *access;
  plan.needs_restore_sort = access != nullptr && !access->order_preserving;

  // Iteration order: plan root order (or declaration order), each root
  // followed by its TYPE1/3 descendants depth-first.
  std::vector<int> root_order;
  if (access != nullptr && !access->roots.empty()) {
    for (const auto& r : access->roots) root_order.push_back(r.node);
  } else {
    root_order = qt.roots;
  }
  std::vector<int> node_depth(qt.nodes.size(), 0);
  for (int r : root_order) {
    std::vector<std::pair<int, int>> stack = {{r, 0}};
    while (!stack.empty()) {
      auto [n, depth] = stack.back();
      stack.pop_back();
      node_depth[n] = depth;
      if (qt.nodes[n].label != 2) plan.loop_nodes.push_back(n);
      std::vector<int> kids = qt.MainChildren(n);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        if (qt.nodes[*it].label != 2) stack.push_back({*it, depth + 1});
      }
    }
  }
  std::vector<int> type2_nodes;
  for (int n : qt.MainLoopNodes()) {
    if (qt.nodes[n].label == 2) type2_nodes.push_back(n);
  }

  // Structured-output homes: the loop-deepest node each target references.
  std::vector<int> home_node;
  for (const auto& t : qt.targets) {
    std::vector<int> nodes;
    CollectNodes(*t, &nodes);
    int home = root_order.empty() ? -1 : root_order[0];
    int best_pos = -1;
    for (int n : nodes) {
      if (qt.nodes[n].scope >= 0 || qt.nodes[n].label == 2) continue;
      auto it =
          std::find(plan.loop_nodes.begin(), plan.loop_nodes.end(), n);
      if (it == plan.loop_nodes.end()) continue;
      int pos = static_cast<int>(it - plan.loop_nodes.begin());
      if (pos > best_pos) {
        best_pos = pos;
        home = n;
      }
    }
    home_node.push_back(home);
  }

  // Loop nest: a left-deep chain, one NestedLoop (TYPE 1) or OuterJoinLoop
  // (TYPE 3) per loop node, each wrapping the node's binding source.
  OperatorPtr chain;
  double cum = 1.0;
  for (int node : plan.loop_nodes) {
    const QtNode& n = qt.nodes[node];
    std::unique_ptr<BindingSource> src;
    if (n.parent < 0) {
      const AccessPlan::RootAccess* ra = nullptr;
      if (access != nullptr) {
        for (const auto& r : access->roots) {
          if (r.node == node) {
            ra = &r;
            break;
          }
        }
      }
      if (ra != nullptr && ra->method == AccessPlan::RootMethod::kIndexEq) {
        src = std::make_unique<IndexProbe>(node, ra->index_class,
                                           ra->index_attr, ra->eq_value);
        cum *= 1.0;
      } else {
        src = std::make_unique<ExtentScan>(node, n.class_name);
        cum *= PerParentEstimate(qt, node, mapper);
      }
    } else {
      std::string label = "X" + std::to_string(node) + " via " +
                          n.via_attr->name;
      if (n.derivation == NodeDerivation::kTransitiveEva) label += "*";
      src = std::make_unique<EvaTraverse>(node, std::move(label));
      cum *= PerParentEstimate(qt, node, mapper);
    }
    src->est_rows = cum;
    OperatorPtr loop;
    if (n.label == 3) {
      loop = std::make_unique<OuterJoinLoop>(std::move(chain), std::move(src));
    } else {
      loop = std::make_unique<NestedLoop>(std::move(chain), std::move(src));
    }
    loop->est_rows = cum;
    chain = std::move(loop);
  }
  if (chain == nullptr) {
    chain = std::make_unique<OnceOp>();
    chain->est_rows = 1.0;
  }

  // Selection (always present: it also counts combinations examined).
  OperatorPtr op;
  if (qt.where != nullptr && !type2_nodes.empty()) {
    op = std::make_unique<Type2Exists>(std::move(chain), qt.where.get(),
                                       std::move(type2_nodes));
  } else {
    op = std::make_unique<Filter>(std::move(chain), qt.where.get());
  }
  op->est_rows = cum;  // selectivity 1.0: no predicate statistics yet

  bool structured = qt.mode == OutputMode::kStructure;
  Project::Options popts;
  popts.structured = structured;
  popts.make_sort_keys =
      !structured && (plan.needs_restore_sort || !qt.order_by.empty());
  popts.restore_root_keys = plan.needs_restore_sort;
  popts.home_node = std::move(home_node);
  popts.loop_nodes = plan.loop_nodes;
  popts.node_depth = std::move(node_depth);
  bool sort = popts.make_sort_keys;
  op = std::make_unique<Project>(std::move(op), std::move(popts));
  op->est_rows = cum;

  if (sort) {
    std::vector<bool> descending;
    for (const auto& o : qt.order_by) descending.push_back(o.descending);
    op = std::make_unique<SortOp>(std::move(op), std::move(descending));
    op->est_rows = cum;
  }
  if (qt.mode == OutputMode::kTableDistinct) {
    op = std::make_unique<Distinct>(std::move(op));
    op->est_rows = cum;
  }
  if (qt.limit >= 0) {
    op = std::make_unique<LimitOp>(std::move(op), qt.limit);
    op->est_rows = std::min(cum, static_cast<double>(qt.limit));
  }
  plan.root = std::move(op);
  return plan;
}

std::string PhysicalPlan::Describe(bool analyze) const {
  std::string out;
  std::function<void(const PhysicalOperator*, int)> render =
      [&](const PhysicalOperator* op, int depth) {
        out.append(static_cast<size_t>(depth) * 2, ' ');
        out += op->Describe();
        out += " (est_rows=" +
               std::to_string(static_cast<uint64_t>(
                   std::llround(std::max(0.0, op->est_rows))));
        if (analyze) {
          out += " actual_rows=" + std::to_string(op->actual_rows());
          out += " time_us=" + std::to_string(op->time_us());
          out += " pool_hits=" + std::to_string(op->pool_hits());
          out += " pool_misses=" + std::to_string(op->pool_misses());
        }
        out += ")\n";
        for (const PhysicalOperator* child : op->Children()) {
          render(child, depth + 1);
        }
      };
  if (root != nullptr) render(root.get(), 0);
  return out;
}

}  // namespace sim
