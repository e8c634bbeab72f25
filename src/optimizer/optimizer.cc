#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace sim {

std::string AccessPlan::Describe() const {
  std::string out = "plan(";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out += ", ";
    out += "X" + std::to_string(roots[i].node);
    if (roots[i].method == RootMethod::kIndexEq) {
      out += ":index[" + roots[i].index_class + "." + roots[i].index_attr +
             "=" + roots[i].eq_value.ToString() + "]";
    } else {
      out += ":scan";
    }
  }
  out += ") cost=" + std::to_string(est_cost);
  if (!order_preserving) {
    out += " +sort=" + std::to_string(sort_cost);
  }
  return out;
}

void Optimizer::RefreshStats() {
  MutexLock l(opt_mu_);
  RefreshStatsLocked();
}

void Optimizer::RefreshStatsLocked() {
  ++stats_refreshes_;
  stats_ = StatsSnapshot::Collect(mapper_);
  cost_model_ = CostModel(&mapper_->phys(), &stats_);
  stats_mutation_count_ = mapper_->mutation_count();
}

void Optimizer::CollectIndexCandidates(const QueryTree& qt, const BExpr* expr,
                                       std::vector<IndexCandidate>* out) const {
  if (expr == nullptr) return;
  if (expr->kind != BExprKind::kBinary) return;
  const auto* bin = static_cast<const BBinary*>(expr);
  if (bin->op == BinaryOp::kAnd) {
    CollectIndexCandidates(qt, bin->lhs.get(), out);
    CollectIndexCandidates(qt, bin->rhs.get(), out);
    return;
  }
  if (bin->op != BinaryOp::kEq) return;
  const BExpr* field_side = bin->lhs.get();
  const BExpr* value_side = bin->rhs.get();
  if (field_side->kind != BExprKind::kField) {
    std::swap(field_side, value_side);
  }
  if (field_side->kind != BExprKind::kField ||
      value_side->kind != BExprKind::kLiteral) {
    return;
  }
  const auto* field = static_cast<const BField*>(field_side);
  const auto* lit = static_cast<const BLiteral*>(value_side);
  // Only root (perspective) nodes benefit from an index entry point.
  bool is_root = false;
  for (int r : qt.roots) {
    if (r == field->node) is_root = true;
  }
  if (!is_root) return;
  if (!mapper_->HasIndex(field->owner->name, field->attr->name)) return;
  IndexCandidate c;
  c.root = field->node;
  c.index_class = field->owner->name;
  c.index_attr = field->attr->name;
  c.eq_value = lit->value;
  out->push_back(std::move(c));
}

double Optimizer::ChildTraversalCost(const QueryTree& qt, int node,
                                     double parent_card) const {
  double total = 0;
  for (int c : qt.MainChildren(node)) {
    const QtNode& child = qt.nodes[c];
    double per_parent = 1.0;
    double child_card = parent_card;
    if (child.derivation == NodeDerivation::kEva ||
        child.derivation == NodeDerivation::kTransitiveEva) {
      bool is_side_a = true;
      Result<int> eva = mapper_->phys().EvaOf(child.via_owner->name,
                                              child.via_attr->name,
                                              &is_side_a);
      if (eva.ok()) {
        per_parent = cost_model_.EvaTraverseCost(*eva, is_side_a);
        double fanout =
            static_cast<size_t>(*eva) < stats_.evas.size()
                ? (is_side_a ? stats_.evas[*eva].fanout_a
                             : stats_.evas[*eva].fanout_b)
                : 1.0;
        child_card = parent_card * std::max(fanout, 0.01);
        if (child.derivation == NodeDerivation::kTransitiveEva) {
          // Closures revisit the structure once per reached entity.
          per_parent *= 4.0;
          child_card *= 4.0;
        }
      }
    } else if (child.derivation == NodeDerivation::kMvDva) {
      per_parent = 1.0;  // one dependent-unit or embedded access
    }
    total += parent_card * per_parent + ChildTraversalCost(qt, c, child_card);
  }
  return total;
}

double Optimizer::CostStrategy(
    const QueryTree& qt,
    const std::vector<AccessPlan::RootAccess>& roots) const {
  double cost = 0;
  double outer_card = 1.0;
  for (const auto& r : roots) {
    const QtNode& node = qt.nodes[r.node];
    double access_cost;
    double card;
    if (r.method == AccessPlan::RootMethod::kIndexEq) {
      access_cost = cost_model_.IndexLookupCost();
      card = 1.0;
    } else {
      access_cost = cost_model_.ExtentScanCost(node.class_name);
      card = std::max<double>(
          1.0, static_cast<double>(stats_.CardinalityOf(node.class_name)));
    }
    cost += outer_card * access_cost;
    outer_card *= card;
  }
  // Descend into each root's subtree with its (post-access) cardinality.
  for (const auto& r : roots) {
    const QtNode& node = qt.nodes[r.node];
    double card = r.method == AccessPlan::RootMethod::kIndexEq
                      ? 1.0
                      : std::max<double>(1.0, static_cast<double>(
                                                  stats_.CardinalityOf(
                                                      node.class_name)));
    cost += ChildTraversalCost(qt, r.node, card);
  }
  return cost;
}

Result<AccessPlan> Optimizer::Optimize(const QueryTree& qt) {
  MutexLock l(opt_mu_);
  ++plans_made_;
  // Data has changed since the statistics snapshot: re-collect before
  // costing, so cardinalities and fanouts reflect the current extents.
  if (mapper_->mutation_count() != stats_mutation_count_) {
    RefreshStatsLocked();
  }
  std::vector<IndexCandidate> candidates;
  CollectIndexCandidates(qt, qt.where.get(), &candidates);

  // Base accesses in declaration order.
  std::vector<AccessPlan::RootAccess> base;
  for (int r : qt.roots) {
    AccessPlan::RootAccess a;
    a.node = r;
    a.method = AccessPlan::RootMethod::kScan;
    a.est_cardinality = static_cast<double>(
        stats_.CardinalityOf(qt.nodes[r].class_name));
    base.push_back(std::move(a));
  }

  AccessPlan best;
  best.roots = base;
  best.est_cost = CostStrategy(qt, base);
  best.order_preserving = true;
  int considered = 1;

  // Strategy space: each subset assignment of index candidates (use / not
  // use, one per root) x root permutations. Both spaces are tiny.
  std::vector<std::vector<AccessPlan::RootAccess>> access_options = {base};
  for (const IndexCandidate& c : candidates) {
    size_t existing = access_options.size();
    for (size_t i = 0; i < existing; ++i) {
      std::vector<AccessPlan::RootAccess> with_index = access_options[i];
      for (auto& ra : with_index) {
        if (ra.node == c.root &&
            ra.method == AccessPlan::RootMethod::kScan) {
          ra.method = AccessPlan::RootMethod::kIndexEq;
          ra.index_class = c.index_class;
          ra.index_attr = c.index_attr;
          ra.eq_value = c.eq_value;
          ra.est_cardinality = 1.0;
          access_options.push_back(with_index);
          break;
        }
      }
    }
  }

  for (const auto& option : access_options) {
    // Permute root order (≤ 4 roots: bounded).
    std::vector<size_t> perm(option.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    if (perm.size() > 4) {
      // Too many perspectives to permute exhaustively; keep declaration
      // order only.
      double cost = CostStrategy(qt, option);
      ++considered;
      if (cost < best.est_cost) {
        best.roots = option;
        best.est_cost = cost;
        best.order_preserving = true;
        best.sort_cost = 0;
      }
      continue;
    }
    do {
      std::vector<AccessPlan::RootAccess> ordered;
      for (size_t i : perm) ordered.push_back(option[i]);
      double cost = CostStrategy(qt, ordered);
      bool preserving = true;
      for (size_t i = 0; i < perm.size(); ++i) {
        if (perm[i] != i) preserving = false;
      }
      double sort_cost = 0;
      if (!preserving) {
        // Sorting the output restores perspective order: N log N row
        // moves, charged in block units.
        double rows = 1.0;
        for (const auto& r : ordered) {
          rows *= std::max(1.0, r.est_cardinality);
        }
        sort_cost = rows * std::log2(std::max(2.0, rows)) /
                    cost_model_.blocking_factor();
        cost += sort_cost;
      }
      ++considered;
      if (cost < best.est_cost) {
        best.roots = std::move(ordered);
        best.est_cost = cost;
        best.order_preserving = preserving;
        best.sort_cost = sort_cost;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  best.strategies_considered = considered;
  return best;
}

}  // namespace sim
