#include "oracle.h"

#include <algorithm>
#include <cstdio>

namespace simbench {
namespace {

bool Matches(const Cell& c, const sim::Value& v) {
  switch (c.kind) {
    case Cell::Kind::kNull:
      return v.is_null();
    case Cell::Kind::kInt:
      return v.type() == sim::ValueType::kInt && v.int_value() == c.i;
    case Cell::Kind::kReal:
      return v.is_numeric() && v.AsReal() == c.r;
    case Cell::Kind::kStr:
      return v.type() == sim::ValueType::kString &&
             v.string_view_value() == c.s;
  }
  return false;
}

bool Matches(const ExpectedRow& e, const sim::Row& a) {
  if (e.size() != a.values.size()) return false;
  for (size_t i = 0; i < e.size(); ++i) {
    if (!Matches(e[i], a.values[i])) return false;
  }
  return true;
}

// One encoding for both sides, so rows of an unordered group can be
// compared as sorted multisets.
std::string Encode(const Cell& c) {
  switch (c.kind) {
    case Cell::Kind::kNull:
      return "null";
    case Cell::Kind::kInt:
      return std::to_string(c.i);
    case Cell::Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", c.r);
      return buf;
    }
    case Cell::Kind::kStr:
      return '"' + c.s + '"';
  }
  return "";
}

std::string Encode(const sim::Value& v) {
  if (v.is_null()) return "null";
  switch (v.type()) {
    case sim::ValueType::kInt:
      return std::to_string(v.int_value());
    case sim::ValueType::kReal:
      return Encode(Cell::Real(v.real_value()));
    case sim::ValueType::kString:
      return '"' + std::string(v.string_view_value()) + '"';
    default:
      return std::string(sim::ValueTypeName(v.type())) + ":" + v.ToString();
  }
}

template <typename Row>
std::string EncodeRow(const Row& cells) {
  std::string out = "[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ", ";
    out += Encode(cells[i]);
  }
  return out + "]";
}

}  // namespace

std::string CheckAnswer(const Expected& expected,
                        const std::vector<sim::Row>& actual) {
  if (expected.rows_.size() != actual.size()) {
    return "expected " + std::to_string(expected.rows_.size()) +
           " rows, got " + std::to_string(actual.size());
  }
  for (size_t g = 0; g < expected.starts_.size(); ++g) {
    size_t begin = expected.starts_[g];
    size_t end = g + 1 < expected.starts_.size() ? expected.starts_[g + 1]
                                                 : expected.rows_.size();
    if (end - begin == 1) {
      if (!Matches(expected.rows_[begin], actual[begin])) {
        return "row " + std::to_string(begin) + ": expected " +
               EncodeRow(expected.rows_[begin]) + ", got " +
               EncodeRow(actual[begin].values);
      }
      continue;
    }
    std::vector<std::string> want, got;
    for (size_t r = begin; r < end; ++r) {
      want.push_back(EncodeRow(expected.rows_[r]));
      got.push_back(EncodeRow(actual[r].values));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    for (size_t r = 0; r < want.size(); ++r) {
      if (want[r] != got[r]) {
        return "rows " + std::to_string(begin) + ".." +
               std::to_string(end - 1) + " (any order): expected " + want[r] +
               ", got " + got[r];
      }
    }
  }
  return "";
}

std::string CheckAnswerAny(const std::vector<Expected>& candidates,
                           const std::vector<sim::Row>& actual) {
  std::string first;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::string why = CheckAnswer(candidates[i], actual);
    if (why.empty()) return "";
    if (i == 0) first = why;
  }
  return "matches none of " + std::to_string(candidates.size()) +
         " acceptable answers; against the oldest: " + first;
}

}  // namespace simbench
