// Parity suite for the Volcano pipeline (exec/operators, exec/physical_plan):
// every retrieval exercised by the paper-examples and executor tests runs
// through (a) the original recursive interpreter (RunReference in
// reference_interpreter.h, kept as the semantic oracle), (b)
// Database::ExecuteQuery and (c) a Database::Cursor drain, and the three
// outputs are byte-compared — values, null flags, structured format tags
// and nesting levels included.
// Also covers early Cursor::Close mid-stream, the ordering-restore Sort
// operator, LIMIT early termination and optimizer statistics staleness.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/physical_plan.h"
#include "optimizer/optimizer.h"
#include "parser/dml_parser.h"
#include "reference_interpreter.h"
#include "semantics/binder.h"
#include "university_fixture.h"

namespace sim {
namespace {

// Every Retrieve from paper_examples_test.cc and executor_test.cc that is
// valid against the unmodified UNIVERSITY fixture (queries those tests run
// after updates simply match zero rows here — still a parity case).
const char* kParityQueries[] = {
    // paper examples (§4.9 / §7)
    "From Student Retrieve Title of Courses-Enrolled "
    "Where Name = \"John Q. Public\"",
    "From Person Retrieve soc-sec-no Where Name = \"John Q. Public\"",
    "From Instructor Retrieve employee-nbr Where name = \"John Doe\"",
    "From Student Retrieve student-nbr Where name = \"John Doe\"",
    "From Person Retrieve profession Where name = \"John Doe\"",
    "From Student Retrieve Title of Courses-Enrolled "
    "Where Name = \"John Doe\"",
    "From Student Retrieve Name of Advisor Where Name = \"John Doe\"",
    "From Instructor Retrieve Name of Advisees "
    "Where Name = \"Emmy Noether\"",
    "From Instructor Retrieve salary Where name = \"Emmy Noether\"",
    "From course "
    "Retrieve count distinct (transitive(prerequisite-of)) "
    "Where title = \"Quantum Chromodynamics\"",
    "From course "
    "Retrieve count distinct (transitive(prerequisites)) "
    "Where title = \"Quantum Chromodynamics\"",
    "Retrieve name of instructor, title of courses-taught "
    "Where name of major-department of advisees = \"Physics\"",
    "From student, instructor "
    "Retrieve name of student, name of Instructor "
    "Where birthdate of student < birthdate of instructor and "
    "      advisor of student NEQ instructor and "
    "      not instructor isa teaching-assistant",
    // executor tests
    "From Student Retrieve Name",
    "From Student Retrieve Name, Title of Courses-Enrolled",
    "From Person Retrieve Name, Name of Spouse",
    "From Instructor Retrieve Name Where student-nbr of advisees > 0",
    "From Student Retrieve Name Where Salary of Advisor > 0",
    "From Student Retrieve Name Where not (Salary of Advisor > 0)",
    "From Course Retrieve Title Where credits >= 8",
    "From Course Retrieve Title Where credits < 4",
    "From Course Retrieve Title Where credits <> 4",
    "From Course Retrieve Title Where Title like \"Calculus%\"",
    "From Instructor Retrieve salary + bonus, salary / 1000, "
    "name + \"!\" Where name = \"Richard Feynman\"",
    "From Instructor Retrieve salary + bonus Where name = \"Alan Turing\"",
    "From Department Retrieve name, "
    "count(instructors-employed) of Department",
    "Retrieve AVG(Salary of Instructor)",
    "Retrieve MIN(credits of course), MAX(credits of course), "
    "SUM(credits of course)",
    "From Student Retrieve Name, "
    "COUNT(Teachers of Courses-enrolled) of Student",
    "From Instructor Retrieve Name Where "
    "\"Physics\" = some(name of major-department of advisees)",
    "From Instructor Retrieve Name Where "
    "\"Physics\" = no(name of major-department of advisees)",
    "From Student Retrieve Name Where "
    "4 <= all(credits of courses-enrolled)",
    "From Student Retrieve Name Where "
    "8 <= all(credits of courses-enrolled)",
    "From Course Retrieve Title of Transitive(prerequisites) "
    "Where Title = \"Calculus II\"",
    "From Course Retrieve Title, credits Order By credits Desc, Title",
    "From Course Retrieve Table Distinct credits of Course",
    "From Course Retrieve Table credits of Course",
    "From Student Retrieve Structure Name, Title of Courses-Enrolled",
    "From Person Retrieve Name Where Person isa student",
    "From Person Retrieve Name Where Person isa teaching-assistant",
    "From Student Retrieve Name, Student-Nbr of Spouse as Student of "
    "Student",
    "From Department d, Department e Retrieve name of d, name of e",
    "From Person Retrieve Name, profession Where Name = \"Tom Jones\"",
    // STRUCTURE output homes a target in the record of the deepest node it
    // reads, also through a function: one length per enrolled course.
    "From Student Retrieve Structure Name, "
    "length(Title of Courses-Enrolled)",
};

// Renders every observable part of a ResultSet: the pretty-printed table
// plus raw per-row format tags, levels and null flags.
std::string Render(const ResultSet& rs) {
  std::string out = rs.ToString();
  out += "\nstructured=" + std::to_string(rs.structured);
  for (const Row& r : rs.rows) {
    out += "\n[" + std::to_string(r.format_node) + "," +
           std::to_string(r.level) + "]";
    for (const Value& v : r.values) {
      out += v.is_null() ? "|<null>" : "|" + v.ToString();
    }
  }
  return out;
}

Result<QueryTree> Bind(Database* db, const std::string& q) {
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, DmlParser::ParseStatement(q));
  if (stmt->kind != StmtKind::kRetrieve) {
    return Status::InvalidArgument("not a Retrieve");
  }
  Binder binder(&db->catalog());
  return binder.BindRetrieve(static_cast<const RetrieveStmt&>(*stmt));
}

// The original recursive interpreter, through the same optimizer.
Result<ResultSet> Reference(Database* db, const std::string& q) {
  SIM_ASSIGN_OR_RETURN(LucMapper * mapper, db->mapper());
  SIM_ASSIGN_OR_RETURN(QueryTree qt, Bind(db, q));
  Optimizer opt(mapper);
  SIM_ASSIGN_OR_RETURN(AccessPlan plan, opt.Optimize(qt));
  return sim::testing::RunReference(qt, &plan, mapper);
}

// Builds the operator tree for `plan` (null = declaration order) and
// drains it through an ExecContext, as the engine's cursor does.
Result<ResultSet> DrainPlan(const QueryTree& qt, const AccessPlan* plan,
                            LucMapper* mapper, ExecStats* stats) {
  SIM_ASSIGN_OR_RETURN(PhysicalPlan pplan,
                       PhysicalPlan::Build(qt, plan, mapper));
  ResultSet rs;
  rs.columns = qt.target_labels;
  rs.structured = qt.mode == OutputMode::kStructure;
  ExecContext cx(&qt, mapper);
  SIM_RETURN_IF_ERROR(pplan.root->Open(cx));
  Row row;
  while (true) {
    SIM_ASSIGN_OR_RETURN(bool has, pplan.root->Next(cx, &row));
    if (!has) break;
    rs.rows.push_back(row);
  }
  SIM_RETURN_IF_ERROR(pplan.root->Close(cx));
  *stats = cx.stats;
  return rs;
}

Result<ResultSet> Drain(Database::Cursor cur) {
  ResultSet rs;
  rs.columns = cur.columns();
  rs.structured = cur.structured();
  Row row;
  while (true) {
    SIM_ASSIGN_OR_RETURN(bool has, cur.Next(&row));
    if (!has) break;
    rs.rows.push_back(row);
  }
  SIM_RETURN_IF_ERROR(cur.Close());
  return rs;
}

class PipelineParity : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = sim::testing::OpenUniversity();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }
  // Query pipelines must never leave the stored database dirty: every test
  // ends with a full simcheck audit.
  void TearDown() override {
    if (db_ == nullptr) return;
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->ToString();
  }
  std::unique_ptr<Database> db_;
};

TEST_F(PipelineParity, AllQueriesMatchReferenceAndCursor) {
  for (const char* q : kParityQueries) {
    auto oracle = Reference(db_.get(), q);
    ASSERT_TRUE(oracle.ok()) << q << " -> " << oracle.status().ToString();
    auto piped = db_->ExecuteQuery(q);
    ASSERT_TRUE(piped.ok()) << q << " -> " << piped.status().ToString();
    EXPECT_EQ(Render(*oracle), Render(*piped)) << q;

    auto cur = db_->OpenCursor(q);
    ASSERT_TRUE(cur.ok()) << q << " -> " << cur.status().ToString();
    auto streamed = Drain(std::move(*cur));
    ASSERT_TRUE(streamed.ok()) << q << " -> " << streamed.status().ToString();
    EXPECT_EQ(Render(*oracle), Render(*streamed)) << q;
  }
}

TEST_F(PipelineParity, EmptyDatabaseParity) {
  auto db = sim::testing::OpenUniversity(DatabaseOptions(), false);
  ASSERT_TRUE(db.ok());
  for (const char* q : {"From Student Retrieve Name",
                        "Retrieve count(student), avg(salary of instructor)",
                        "From Person Retrieve Name, Name of Spouse"}) {
    auto oracle = Reference(db->get(), q);
    ASSERT_TRUE(oracle.ok()) << q;
    auto piped = (*db)->ExecuteQuery(q);
    ASSERT_TRUE(piped.ok()) << q;
    EXPECT_EQ(Render(*oracle), Render(*piped)) << q;
  }
}

TEST_F(PipelineParity, CursorEarlyCloseMidStream) {
  const char* q = "From Department d, Department e Retrieve name of d, "
                  "name of e";
  auto full = db_->ExecuteQuery(q);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->rows.size(), 9u);

  auto cur = db_->OpenCursor(q);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  Row row;
  for (int i = 0; i < 2; ++i) {
    auto has = cur->Next(&row);
    ASSERT_TRUE(has.ok() && *has);
    // The streamed prefix matches the materialized run row-for-row.
    ASSERT_EQ(row.values.size(), full->rows[i].values.size());
    for (size_t c = 0; c < row.values.size(); ++c) {
      EXPECT_EQ(row.values[c].ToString(), full->rows[i].values[c].ToString());
    }
  }
  // Only the combinations needed for two rows were examined.
  EXPECT_LT(cur->stats().combinations_examined, 9u);
  ASSERT_TRUE(cur->Close().ok());
  // Close is idempotent and Next after Close reports exhaustion.
  ASSERT_TRUE(cur->Close().ok());
  auto after = cur->Next(&row);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(*after);
}

// Force a root order that differs from the declaration order; the plan
// must restore perspective-major output with the Sort operator, in both
// the reference interpreter and the pipeline.
TEST_F(PipelineParity, SortRestoresPerspectiveOrderReversedRoots) {
  const char* q = "From Department d, Course c Retrieve name of d, "
                  "title of c";
  auto mapper = db_->mapper();
  ASSERT_TRUE(mapper.ok());
  auto qt = Bind(db_.get(), q);
  ASSERT_TRUE(qt.ok()) << qt.status().ToString();
  ASSERT_EQ(qt->roots.size(), 2u);

  // Natural declaration-order run (no access plan).
  ExecStats natural_stats;
  auto natural = DrainPlan(*qt, nullptr, *mapper, &natural_stats);
  ASSERT_TRUE(natural.ok()) << natural.status().ToString();
  ASSERT_EQ(natural->rows.size(), 18u);
  EXPECT_FALSE(natural_stats.sorted_for_order);

  // Hand-built plan iterating Course outside Department.
  AccessPlan reversed;
  AccessPlan::RootAccess a, b;
  a.node = qt->roots[1];
  b.node = qt->roots[0];
  reversed.roots = {a, b};
  reversed.order_preserving = false;

  auto oracle = sim::testing::RunReference(*qt, &reversed, *mapper);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExecStats piped_stats;
  auto piped = DrainPlan(*qt, &reversed, *mapper, &piped_stats);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  EXPECT_TRUE(piped_stats.sorted_for_order);
  EXPECT_EQ(Render(*oracle), Render(*piped));
  // The restore sort brings the reversed iteration back to the
  // perspective-major order of the natural run.
  EXPECT_EQ(Render(*natural), Render(*piped));
}

TEST_F(PipelineParity, LimitStopsPipelineEarly) {
  const char* unlimited = "From Department d, Department e "
                          "Retrieve name of d, name of e";
  const char* limited = "From Department d, Department e "
                        "Retrieve name of d, name of e Limit 2";
  auto full = db_->ExecuteQuery(unlimited);
  ASSERT_TRUE(full.ok());
  uint64_t full_combos = db_->last_exec_stats().combinations_examined;
  ASSERT_EQ(full->rows.size(), 9u);

  auto lim = db_->ExecuteQuery(limited);
  ASSERT_TRUE(lim.ok()) << lim.status().ToString();
  uint64_t lim_combos = db_->last_exec_stats().combinations_examined;
  ASSERT_EQ(lim->rows.size(), 2u);
  // Streaming early termination: strictly fewer combinations examined.
  EXPECT_LT(lim_combos, full_combos);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(lim->rows[i].values[0].ToString(),
              full->rows[i].values[0].ToString());
    EXPECT_EQ(lim->rows[i].values[1].ToString(),
              full->rows[i].values[1].ToString());
  }

  // RETRIEVE FIRST n is the paper-compatible spelling of the same thing.
  auto first = db_->ExecuteQuery(
      "From Department d, Department e Retrieve First 2 name of d, "
      "name of e");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(Render(*lim), Render(*first));

  // The reference interpreter agrees on content (it truncates post-hoc).
  auto oracle = Reference(db_.get(), limited);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Render(*oracle), Render(*lim));
}

TEST_F(PipelineParity, LimitZeroAndOverLimit) {
  auto none = db_->ExecuteQuery("From Student Retrieve Name Limit 0");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->rows.size(), 0u);
  auto all = db_->ExecuteQuery("From Student Retrieve Name Limit 99");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 3u);
  // LIMIT applies after ORDER BY: the top-2 of the sorted output.
  auto top = db_->ExecuteQuery(
      "From Course Retrieve Title, credits Order By credits Desc, Title "
      "Limit 2");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->rows.size(), 2u);
  EXPECT_EQ(top->rows[0].values[0].ToString(), "Databases");
  EXPECT_EQ(top->rows[1].values[0].ToString(), "Quantum Chromodynamics");
}

TEST_F(PipelineParity, ExplainAnalyzePrintsOperatorTree) {
  auto text = db_->ExplainAnalyze(
      "From Student Retrieve Name, Title of Courses-Enrolled");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Project"), std::string::npos);
  EXPECT_NE(text->find("ExtentScan"), std::string::npos);
  EXPECT_NE(text->find("EvaTraverse"), std::string::npos);
  EXPECT_NE(text->find("est_rows="), std::string::npos);
  EXPECT_NE(text->find("actual_rows="), std::string::npos);
  // Plain Explain shows estimates but no actuals.
  auto plain = db_->Explain("From Student Retrieve Name");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(plain->find("est_rows="), std::string::npos);
  EXPECT_EQ(plain->find("actual_rows="), std::string::npos);
}

TEST(PipelineStats, OptimizerStatsAutoRefreshOnMutation) {
  auto db = sim::testing::OpenUniversity(DatabaseOptions(), false);
  ASSERT_TRUE(db.ok());
  auto mapper = (*db)->mapper();
  ASSERT_TRUE(mapper.ok());
  Optimizer opt(*mapper);
  EXPECT_EQ(opt.stats().CardinalityOf("course"), 0u);

  // Load the fixture data after the snapshot was taken.
  ASSERT_TRUE((*db)->ExecuteScript(sim::testing::kUniversityData).ok());

  auto qt = Bind(db->get(), "From Course Retrieve title");
  ASSERT_TRUE(qt.ok());
  auto plan = opt.Optimize(*qt);
  ASSERT_TRUE(plan.ok());
  // The mutation counter advanced, so Optimize re-collected statistics.
  EXPECT_EQ(opt.stats().CardinalityOf("course"), 6u);
}

}  // namespace
}  // namespace sim
