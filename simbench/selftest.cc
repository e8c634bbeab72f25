// Oracle self-test: the answer checker must accept the engine's real
// answers on a small population and flag every injected fault — a dropped
// row, a changed value, a row moved where perspective order or Order By
// defines the order, and a value no writer acknowledged or had in flight.
// Exit status 0 when every case behaves, 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "oracle.h"
#include "population.h"

namespace simbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

bool Flags(const Expected& e, const std::vector<sim::Row>& rows) {
  return !CheckAnswer(e, rows).empty();
}

std::vector<sim::Row> Query(sim::Database* db, const std::string& text) {
  sim::Result<sim::ResultSet> rs = db->ExecuteQuery(text);
  if (!rs.ok()) {
    std::printf("FAIL: %s: %s\n", text.c_str(), rs.status().ToString().c_str());
    ++failures;
    return {};
  }
  return std::move(rs->rows);
}

sim::Row SalaryRow(const char* name, double salary) {
  sim::Row r;
  r.values = {sim::Value::Str(name), sim::Value::Real(salary)};
  return r;
}

int Run() {
  Model m = Model::Generate({3, 12, 15, 60}, 7);
  sim::Result<std::unique_ptr<sim::Database>> opened =
      OpenAndLoad(m, sim::DatabaseOptions());
  if (!opened.ok()) {
    std::printf("FAIL: setup: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  sim::Database* db = opened->get();

  // Perspective order: one group per student, in extent order.
  Expected persp;
  for (const Model::Student& s : m.students) {
    persp.Add({Cell::Str(s.name),
               s.advisor >= 0 ? Cell::Str(m.instructors[s.advisor].name)
                              : Cell::Null()});
  }
  std::vector<sim::Row> rows =
      Query(db, "From Student Retrieve name, name of advisor");
  Expect(!Flags(persp, rows), "perspective-ordered answer accepted");
  if (rows.size() < 4) return 1;
  std::vector<sim::Row> bad = rows;
  bad.erase(bad.begin() + 2);
  Expect(Flags(persp, bad), "dropped row flagged");
  bad = rows;
  bad[1].values[0] = sim::Value::Str("Student-x");
  Expect(Flags(persp, bad), "changed value flagged");
  bad = rows;
  std::swap(bad[1], bad[2]);
  Expect(Flags(persp, bad), "row out of perspective order flagged");

  // Order By defines the order of every row.
  std::vector<const Model::Student*> by_name;
  for (const Model::Student& s : m.students) by_name.push_back(&s);
  std::sort(by_name.begin(), by_name.end(),
            [](const auto* a, const auto* b) { return a->name > b->name; });
  Expected ordered;
  for (const Model::Student* s : by_name) ordered.Add({Cell::Str(s->name)});
  rows = Query(db, "From Student Retrieve name Order By name Desc");
  Expect(!Flags(ordered, rows), "Order By answer accepted");
  if (rows.size() < 2) return 1;
  bad = rows;
  std::swap(bad[0], bad[1]);
  Expect(Flags(ordered, bad), "row out of Order By order flagged");

  // The values of one entity's multi-valued EVA come in any order.
  const Model::Student* multi = nullptr;
  for (const Model::Student& s : m.students) {
    if (multi == nullptr && s.courses.size() >= 2) multi = &s;
  }
  if (multi == nullptr) return 1;
  Expected mv;
  for (int c : multi->courses) {
    mv.AddToGroup({Cell::Str(multi->name), Cell::Str(m.courses[c].title)});
  }
  rows = Query(db, "From Student Retrieve name, title of courses-enrolled "
                   "Where soc-sec-no = " + std::to_string(multi->ssn));
  Expect(!Flags(mv, rows), "multi-valued answer accepted");
  bad = rows;
  std::reverse(bad.begin(), bad.end());
  Expect(!Flags(mv, bad), "multi-valued answer in another order accepted");
  bad = rows;
  bad.pop_back();
  Expect(Flags(mv, bad), "dropped multi-valued row flagged");
  bad = rows;
  bad[0].values[1] = sim::Value::Str("Course-x");
  Expect(Flags(mv, bad), "changed multi-valued value flagged");

  // A key other clients write: any acknowledged or in-flight value passes.
  std::vector<Expected> versions(2);
  versions[0].Add({Cell::Str("Instructor-1"), Cell::Real(43000)});
  versions[1].Add({Cell::Str("Instructor-1"), Cell::Real(51000)});
  Expect(CheckAnswerAny(versions, {SalaryRow("Instructor-1", 51000)}).empty(),
         "in-flight value accepted");
  Expect(!CheckAnswerAny(versions, {SalaryRow("Instructor-1", 47000)}).empty(),
         "value no writer produced flagged");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main() { return simbench::Run(); }
