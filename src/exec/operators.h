#ifndef SIMDB_EXEC_OPERATORS_H_
#define SIMDB_EXEC_OPERATORS_H_

// Volcano-style physical operators. A physical plan is a tree of
// PhysicalOperator nodes with the classic Open()/Next()/Close() iterator
// contract; one Next() call delivers one unit of work and the whole
// pipeline streams, so a consumer that stops early (LIMIT, cursor Close)
// stops the scans underneath it.
//
// Two operator families share the interface:
//
//  * binding operators move the machine of §4.5 one step: they bind a QT
//    node in the shared EvalContext and deliver "the current combination
//    advanced" (Row* is ignored). ExtentScan / IndexProbe bind perspective
//    roots; EvaTraverse binds EVA / MV-DVA / transitive children from the
//    parent's current binding; NestedLoop and OuterJoinLoop compose them
//    into the TYPE 1 / TYPE 3 loop nest (OuterJoinLoop emits the §4.5
//    dummy all-null instance when the inner domain is empty).
//  * row operators sit above the loop nest: Filter / Type2Exists apply the
//    selection (the latter evaluating TYPE 2 variables existentially),
//    Project evaluates the target list into Rows (tabular or structured),
//    Sort restores perspective order / applies ORDER BY, Distinct
//    implements TABLE DISTINCT, Limit implements RETRIEVE FIRST n.
//
// Operators never own bindings privately: all range-variable state lives
// in the ExecContext's EvalContext, exactly like the recursive
// interpreter, so expression evaluation is unchanged.
//
// Every operator records the rows it has delivered (across re-opens) and
// carries the planner's estimate, which is what EXPLAIN ANALYZE prints.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "exec/expr_eval.h"
#include "exec/output.h"
#include "luc/mapper.h"
#include "semantics/query_tree.h"

namespace sim {

// Per-query execution statistics of the operator pipeline.
struct ExecStats {
  uint64_t combinations_examined = 0;
  uint64_t rows_emitted = 0;
  bool sorted_for_order = false;
};

// Everything a running pipeline shares: the bindings (EvalContext), the
// expression evaluator, and the counters. The QueryTree must outlive the
// context; the optional QueryContext (resource governor) must too.
class ExecContext {
 public:
  ExecContext(const QueryTree* qt, LucMapper* mapper,
              QueryContext* qctx = nullptr)
      : eval_(qt, mapper), evaluator_(&eval_) {
    eval_.set_query_context(qctx);
  }

  const QueryTree& qt() const { return eval_.qt(); }
  LucMapper* mapper() { return eval_.mapper(); }
  EvalContext& bindings() { return eval_; }
  ExprEvaluator& evaluator() { return evaluator_; }
  QueryContext* query_context() const { return eval_.query_context(); }

  // Per-statement scratch arena: the governor's when one is attached
  // (reset at statement end by its owner), else a context-owned one that
  // dies with the pipeline. Views into it are valid for the statement.
  Arena& arena() {
    if (QueryContext* qctx = query_context()) return qctx->arena();
    return local_arena_;
  }

  ExecStats stats;
  // When set, every operator's Next measures wall time and buffer-pool
  // fetch/miss deltas (inclusive of its children). Off by default — the
  // per-Next clock reads are too expensive for ordinary execution — and
  // forced on by EXPLAIN ANALYZE.
  bool time_operators = false;
  // Side channel from Project to Sort: the sort key of the row Project
  // just delivered (ORDER BY expressions, then root surrogates when the
  // plan reordered roots).
  std::vector<Value> current_sort_keys;

 private:
  EvalContext eval_;
  ExprEvaluator evaluator_;
  Arena local_arena_;
};

class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  // One-line description for EXPLAIN, e.g. "ExtentScan(student X0)".
  virtual std::string Describe() const = 0;

  virtual Status Open(ExecContext& cx) = 0;
  // Delivers the next unit: binding operators advance the combination
  // (out is ignored and may be null); row operators write *out. Returns
  // false when exhausted. This non-virtual wrapper is the pipeline's
  // cooperative cancellation point: every Next anywhere in the tree
  // consults the governor, so deadlines and cancellation stop a scan
  // within one delivered unit.
  Result<bool> Next(ExecContext& cx, Row* out) {
    if (QueryContext* qctx = cx.query_context()) {
      SIM_RETURN_IF_ERROR(qctx->Check());
    }
    if (cx.time_operators) return TimedNext(cx, out);
    SIM_ASSIGN_OR_RETURN(bool has, DoNext(cx, out));
    if (has) ++actual_rows_;
    return has;
  }
  virtual Status Close(ExecContext& cx) = 0;

  virtual std::vector<const PhysicalOperator*> Children() const { return {}; }

  double est_rows = 0;  // planner estimate of total rows delivered
  uint64_t actual_rows() const { return actual_rows_; }
  // Accumulated wall time and buffer-pool deltas across all Next calls,
  // INCLUSIVE of children (a child's Next runs inside its parent's).
  // Only populated when ExecContext::time_operators is set.
  uint64_t time_us() const { return time_ns_ / 1000; }
  uint64_t pool_fetches() const { return pool_fetches_; }
  uint64_t pool_misses() const { return pool_misses_; }
  uint64_t pool_hits() const { return pool_fetches_ - pool_misses_; }

 protected:
  virtual Result<bool> DoNext(ExecContext& cx, Row* out) = 0;

 private:
  Result<bool> TimedNext(ExecContext& cx, Row* out);

  uint64_t actual_rows_ = 0;
  uint64_t time_ns_ = 0;
  uint64_t pool_fetches_ = 0;
  uint64_t pool_misses_ = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

// ----- binding operators -----

// Base of operators that bind one QT node per delivered unit. A binding
// source is (re)opened once per outer combination; Open derives the domain
// from the parent's current binding.
class BindingSource : public PhysicalOperator {
 public:
  explicit BindingSource(int node) : node_(node) {}
  int node() const { return node_; }

 protected:
  // Installs `b` as the node's current binding and applies the node's
  // domain filter (view predicates inside aggregate scopes). Returns true
  // when the binding is accepted.
  Result<bool> AcceptBinding(ExecContext& cx, NodeBinding b);
  void ClearBinding(ExecContext& cx) {
    cx.bindings().binding(node_) = NodeBinding();
  }

  int node_;
};

// Streams the extent of a perspective class in surrogate order (or the
// class's system-maintained order). Uses the LUC mapper's extent cursor
// when physical order is provably surrogate order; otherwise falls back
// to a sorted surrogate list (ids only — field values are never
// materialized).
class ExtentScan : public BindingSource {
 public:
  ExtentScan(int node, std::string class_name)
      : BindingSource(node), class_name_(std::move(class_name)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  std::string class_name_;
  bool streaming_ = false;
  std::unique_ptr<LucMapper::ExtentCursor> cursor_;  // streaming path
  std::vector<SurrogateId> ids_;                     // fallback path
  size_t next_ = 0;
};

// Binds a perspective root through a secondary-index equality probe
// (at most one delivered binding).
class IndexProbe : public BindingSource {
 public:
  IndexProbe(int node, std::string index_class, std::string index_attr,
             Value eq_value)
      : BindingSource(node),
        index_class_(std::move(index_class)),
        index_attr_(std::move(index_attr)),
        eq_value_(std::move(eq_value)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  std::string index_class_, index_attr_;
  Value eq_value_;
  bool pending_ = false;
  SurrogateId found_ = kInvalidSurrogate;
};

// Binds an EVA / MV-DVA / transitive-closure child node from the parent's
// current binding, one instance per Next. EVA targets stream through the
// mapper's relationship cursor (§5.1); the transitive closure runs an
// incremental BFS that delivers entities in discovery order with level
// numbers (§4.7).
class EvaTraverse : public BindingSource {
 public:
  // `label` is the planner-composed description ("X2 via works-in*"),
  // since the operator itself only stores the node id.
  EvaTraverse(int node, std::string label)
      : BindingSource(node), label_(std::move(label)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  std::string label_;
  bool empty_parent_ = false;
  // kEva. Held by value and re-opened in place so the target buffer's
  // capacity is reused across outer rows.
  LucMapper::TargetCursor cursor_;
  bool cursor_active_ = false;
  bool role_filter_ = false;
  // kMvDva
  std::vector<Value> values_;
  size_t next_value_ = 0;
  // kTransitiveEva incremental BFS
  std::deque<std::pair<SurrogateId, int>> expand_;
  std::deque<NodeBinding> ready_;
  std::unordered_set<SurrogateId> seen_;
};

// Nested-loop composition for a TYPE 1 node: for every combination of the
// outer input (or exactly once when there is no outer), re-opens the inner
// binding source and delivers each accepted binding.
class NestedLoop : public PhysicalOperator {
 public:
  NestedLoop(OperatorPtr outer, std::unique_ptr<BindingSource> inner)
      : outer_(std::move(outer)), inner_(std::move(inner)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;
  virtual Result<bool> OnInnerExhausted(ExecContext& cx);

  OperatorPtr outer_;  // may be null: drive exactly once
  std::unique_ptr<BindingSource> inner_;
  bool inner_open_ = false;
  bool once_done_ = false;
  bool inner_yielded_ = false;
};

// TYPE 3 variant (§4.5 directed outer join): when the inner domain of one
// outer combination is empty, delivers a single dummy all-null instance
// instead of nothing.
class OuterJoinLoop : public NestedLoop {
 public:
  using NestedLoop::NestedLoop;
  std::string Describe() const override;

 protected:
  Result<bool> OnInnerExhausted(ExecContext& cx) override;
};

// Delivers exactly one (empty) combination — the loop nest of a query
// with no main-perspective nodes, e.g. "Retrieve AVG(Salary of X)".
class OnceOp : public PhysicalOperator {
 public:
  std::string Describe() const override { return "Once"; }
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  bool done_ = false;
};

// ----- row operators -----

// Applies the selection to each combination (3VL: only definite truth
// passes). Counts combinations_examined. `where` may be null (pure
// counting pass-through).
class Filter : public PhysicalOperator {
 public:
  Filter(OperatorPtr input, const BExpr* where)
      : input_(std::move(input)), where_(where) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;
  virtual Result<TriBool> EvaluateSelection(ExecContext& cx);

  OperatorPtr input_;
  const BExpr* where_;  // not owned (lives in the QueryTree)
};

// Selection in the presence of TYPE 2 variables: "for some X_{m+1}..X_n
// ... if <selection> is true" — the TYPE 2 domains are iterated
// existentially inside the predicate and never multiply the output.
class Type2Exists : public Filter {
 public:
  Type2Exists(OperatorPtr input, const BExpr* where, std::vector<int> nodes)
      : Filter(std::move(input), where), type2_nodes_(std::move(nodes)) {}

  std::string Describe() const override;

 protected:
  Result<TriBool> EvaluateSelection(ExecContext& cx) override;

 private:
  std::vector<int> type2_nodes_;
};

// Evaluates the target list for each surviving combination. Tabular mode
// delivers one Row per combination (and evaluates the sort key into the
// context when a Sort runs above). Structured mode delivers one record per
// TYPE 1/3 node whose binding changed, tagged with format and level.
class Project : public PhysicalOperator {
 public:
  struct Options {
    bool structured = false;
    bool make_sort_keys = false;     // ORDER BY present or restore needed
    bool restore_root_keys = false;  // append root surrogates to the key
    std::vector<int> home_node;      // structured: per-target home
    std::vector<int> loop_nodes;     // structured: emission order
    std::vector<int> node_depth;     // structured: per node id
  };

  Project(OperatorPtr input, Options options)
      : input_(std::move(input)), options_(std::move(options)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  Result<bool> NextTabular(ExecContext& cx, Row* out);
  Result<bool> NextStructured(ExecContext& cx, Row* out);

  OperatorPtr input_;
  Options options_;
  std::vector<NodeBinding> last_emitted_;  // structured change watch
  std::deque<Row> pending_;                // structured multi-record burst
};

// Materializes its input, stable-sorts by the side-channel keys (ORDER BY
// directions first, then ascending root surrogates) and re-delivers.
// Restores the perspective-implied order after a root-reordering plan.
class SortOp : public PhysicalOperator {
 public:
  // `descending` carries one flag per ORDER BY key; key positions beyond it
  // (the appended perspective-order surrogates) always sort ascending.
  SortOp(OperatorPtr input, std::vector<bool> descending)
      : input_(std::move(input)), descending_(std::move(descending)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  OperatorPtr input_;
  std::vector<bool> descending_;
  bool sorted_ = false;
  std::vector<Row> rows_;
  std::vector<std::vector<Value>> keys_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// Streaming duplicate elimination over full row values (TABLE DISTINCT).
class Distinct : public PhysicalOperator {
 public:
  explicit Distinct(OperatorPtr input) : input_(std::move(input)) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  OperatorPtr input_;
  // Rows dedupe on a single encoded key (AppendRowKey: same bytes iff
  // StrictEquals row-wise), built in a reused buffer and copied into the
  // per-statement arena on first sight. The set holds views into the
  // arena; Close() clears it before the arena rewinds.
  std::string key_buf_;
  std::unordered_set<std::string_view> seen_;
};

// Stops the pipeline after n delivered rows (RETRIEVE FIRST n). Because
// the pipeline streams, everything below stops scanning too.
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(OperatorPtr input, int64_t limit)
      : input_(std::move(input)), limit_(limit) {}

  std::string Describe() const override;
  Status Open(ExecContext& cx) override;
  Status Close(ExecContext& cx) override;
  std::vector<const PhysicalOperator*> Children() const override;

 protected:
  Result<bool> DoNext(ExecContext& cx, Row* out) override;

 private:
  OperatorPtr input_;
  int64_t limit_;
  int64_t delivered_ = 0;
};

// Null-first three-way comparison used by SortOp (and the legacy
// interpreter's restore sort).
int CompareForSort(const Value& a, const Value& b);

}  // namespace sim

#endif  // SIMDB_EXEC_OPERATORS_H_
