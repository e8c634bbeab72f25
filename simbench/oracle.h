#ifndef SIMBENCH_ORACLE_H_
#define SIMBENCH_ORACLE_H_

// Expected answers and the checker that compares engine results with them.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/output.h"

namespace simbench {

// One expected output value.
struct Cell {
  enum class Kind { kNull, kInt, kReal, kStr };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double r = 0;
  std::string s;

  static Cell Null() { return Cell(); }
  static Cell Int(int64_t v) { return {Kind::kInt, v, 0, {}}; }
  static Cell Real(double v) { return {Kind::kReal, 0, v, {}}; }
  static Cell Str(std::string v) { return {Kind::kStr, 0, 0, std::move(v)}; }
};
using ExpectedRow = std::vector<Cell>;

// An expected answer: rows split into consecutive groups. The order of the
// groups is defined by the statement (perspective order, Order By); the
// order of rows inside one group is not (the values of a multi-valued
// attribute of one entity, Order By ties, a Distinct result).
class Expected {
 public:
  // Starts a new group holding `row`.
  void Add(ExpectedRow row) {
    starts_.push_back(rows_.size());
    rows_.push_back(std::move(row));
  }
  // Adds `row` to the current group (starts one when there is none).
  void AddToGroup(ExpectedRow row) {
    if (starts_.empty()) starts_.push_back(0);
    rows_.push_back(std::move(row));
  }
  size_t rows() const { return rows_.size(); }

 private:
  friend std::string CheckAnswer(const Expected&, const std::vector<sim::Row>&);
  std::vector<ExpectedRow> rows_;
  std::vector<size_t> starts_;  // index of each group's first row
};

// "" when `actual` is `expected`, else a description of the first mismatch.
std::string CheckAnswer(const Expected& expected,
                        const std::vector<sim::Row>& actual);

// "" when `actual` is one of `candidates` (a key several writers may have
// changed while it was read), else the mismatch against the first one.
std::string CheckAnswerAny(const std::vector<Expected>& candidates,
                           const std::vector<sim::Row>& actual);

}  // namespace simbench

#endif  // SIMBENCH_ORACLE_H_
