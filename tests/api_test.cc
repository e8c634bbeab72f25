// Database API surface tests: Explain, result formatting, option plumbing,
// file-backed opening, and error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "university_fixture.h"

namespace sim {
namespace {

// The four Retrieve entry points, each reduced to text: the rows it
// returned and the access plan it ran with (ExecuteQuery, OpenCursor), or
// the plan it printed (Explain, ExplainAnalyze).
struct EntryPoint {
  const char* name;
  Result<std::string> (*run)(Database* db, const std::string& q);
};

const EntryPoint kEntryPoints[] = {
    {"ExecuteQuery",
     [](Database* db, const std::string& q) -> Result<std::string> {
       SIM_ASSIGN_OR_RETURN(ResultSet rs, db->ExecuteQuery(q));
       return rs.ToString() + db->last_plan().Describe();
     }},
    {"OpenCursor",
     [](Database* db, const std::string& q) -> Result<std::string> {
       SIM_ASSIGN_OR_RETURN(Database::Cursor cur, db->OpenCursor(q));
       ResultSet rs;
       rs.columns = cur.columns();
       Row row;
       while (true) {
         SIM_ASSIGN_OR_RETURN(bool has, cur.Next(&row));
         if (!has) break;
         rs.rows.push_back(row);
       }
       SIM_RETURN_IF_ERROR(cur.Close());
       return rs.ToString() + db->last_plan().Describe();
     }},
    {"Explain",
     [](Database* db, const std::string& q) { return db->Explain(q); }},
    {"ExplainAnalyze",
     [](Database* db, const std::string& q) {
       return db->ExplainAnalyze(q);
     }},
};

// With the optimizer off no entry point may pick (or print) the index
// the optimizer chooses on a large Person extent; with it on, all do.
TEST(ApiTest, EveryEntryPointHonorsUseOptimizer) {
  const std::string q =
      "From Person Retrieve Name Where soc-sec-no = 456887766";
  for (bool optimize : {true, false}) {
    DatabaseOptions options;
    options.use_optimizer = optimize;
    auto db = sim::testing::OpenUniversity(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Large enough that the index probe beats the scan (see
    // ExplainShowsTreeAndPlan).
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*db)
                      ->ExecuteUpdate("Insert person (soc-sec-no := " +
                                      std::to_string(1000 + i) + ")")
                      .ok());
    }
    for (const EntryPoint& ep : kEntryPoints) {
      auto out = ep.run(db->get(), q);
      ASSERT_TRUE(out.ok()) << ep.name << ": " << out.status().ToString();
      EXPECT_EQ(out->find("index[") != std::string::npos, optimize)
          << ep.name << " with use_optimizer=" << optimize << ":\n"
          << *out;
    }
  }
}

// Paranoid mode wraps every Retrieve plan in the iterator-protocol
// checker: the explain entry points show it, and the entry points that
// return rows return the same rows as without it.
TEST(ApiTest, EveryEntryPointWrapsParanoidPlans) {
  const std::string q =
      "From Student Retrieve Name, Title of Courses-Enrolled";
  DatabaseOptions paranoid;
  paranoid.paranoid_checks = true;
  auto checked = sim::testing::OpenUniversity(paranoid);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  auto plain = sim::testing::OpenUniversity();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (const EntryPoint& ep : kEntryPoints) {
    auto out = ep.run(checked->get(), q);
    ASSERT_TRUE(out.ok()) << ep.name << ": " << out.status().ToString();
    if (std::string_view(ep.name).starts_with("Explain")) {
      EXPECT_NE(out->find("ProtocolCheck"), std::string::npos)
          << ep.name << ":\n" << *out;
    } else {
      auto want = ep.run(plain->get(), q);
      ASSERT_TRUE(want.ok()) << ep.name << ": " << want.status().ToString();
      EXPECT_EQ(*out, *want) << ep.name;
    }
  }
}

TEST(ApiTest, ExplainShowsTreeAndPlan) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  auto text = (*db)->Explain(
      "From Student Retrieve Name Where soc-sec-no = 456887766");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("perspective"), std::string::npos);
  EXPECT_NE(text->find("plan("), std::string::npos);
  EXPECT_NE(text->find("cost"), std::string::npos);
  // On a tiny extent the optimizer correctly prefers the 1-page scan over
  // a 3-block index probe; with a larger extent it switches to the index.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*db)
                    ->ExecuteUpdate("Insert person (soc-sec-no := " +
                                    std::to_string(1000 + i) + ")")
                    .ok());
  }
  text = (*db)->Explain(
      "From Person Retrieve Name Where soc-sec-no = 456887766");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("index["), std::string::npos);
  // Explain rejects updates.
  EXPECT_FALSE((*db)->Explain("Delete student").ok());
}

TEST(ApiTest, QueryUpdateRouting) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ExecuteQuery("Delete student").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->ExecuteUpdate("From Student Retrieve Name").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->ExecuteScript("From Student Retrieve Name.").code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiTest, DdlAfterDataRejected) {
  // Schema freeze is a precondition failure (the mapping exists), not a
  // missing feature: kFailedPrecondition, with a message that tells the
  // caller what to do instead.
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  Status s = (*db)->ExecuteDdl("Class Late ( x: integer );");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("frozen"), std::string::npos) << s.ToString();
}

TEST(ApiTest, DdlAfterInsertRejected) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("Class A ( x: integer );").ok());
  ASSERT_TRUE((*db)->ExecuteUpdate("Insert a (x := 1)").ok());
  EXPECT_EQ((*db)->ExecuteDdl("Class Late ( y: integer );").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ApiTest, DdlAfterCursorOpenRejected) {
  // Opening a cursor builds the physical mapping too; DDL arriving while
  // the cursor is still draining must hit the same typed freeze error.
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("Class A ( x: integer );").ok());
  auto cur = (*db)->OpenCursor("From A Retrieve x");
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ((*db)->ExecuteDdl("Class Late ( y: integer );").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cur->Close().ok());
}

TEST(ApiTest, MultipleDdlBatchesBeforeData) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("Class A ( x: integer );").ok());
  ASSERT_TRUE((*db)->ExecuteDdl("Subclass B of A ( y: integer );").ok());
  ASSERT_TRUE((*db)->ExecuteUpdate("Insert b (x := 1, y := 2)").ok());
  auto rs = (*db)->ExecuteQuery("From B Retrieve x, y");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST(ApiTest, TransactionStateErrors) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->Commit().ok());
  EXPECT_FALSE((*db)->Rollback().ok());
  ASSERT_TRUE((*db)->Begin().ok());
  EXPECT_FALSE((*db)->Begin().ok());
  ASSERT_TRUE((*db)->Commit().ok());
}

TEST(ApiTest, FileBackedDatabase) {
  std::string path = ::testing::TempDir() + "/simdb_api_test.db";
  // The WAL durably carries the catalog: a stale log would replay its DDL
  // into the "fresh" database, so both files must go.
  ::remove(path.c_str());
  ::remove((path + ".wal").c_str());
  DatabaseOptions options;
  options.file_path = path;
  auto db = sim::testing::OpenUniversity(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery("From Student Retrieve Name");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
  EXPECT_GT((*db)->pager().page_count(), 0u);
  ::remove(path.c_str());
  ::remove((path + ".wal").c_str());
}

TEST(ApiTest, ResultSetFormatting) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  auto rs = (*db)->ExecuteQuery(
      "From Department Retrieve name, dept-nbr Order By dept-nbr");
  ASSERT_TRUE(rs.ok());
  std::string table = rs->ToString();
  // Header, rule, one line per row.
  EXPECT_NE(table.find("name"), std::string::npos);
  EXPECT_NE(table.find("---"), std::string::npos);
  EXPECT_NE(table.find("Physics"), std::string::npos);
  size_t lines = std::count(table.begin(), table.end(), '\n');
  EXPECT_EQ(lines, 2u + rs->rows.size());

  auto structured = (*db)->ExecuteQuery(
      "From Department Retrieve Structure name");
  ASSERT_TRUE(structured.ok());
  EXPECT_TRUE(structured->structured);
  EXPECT_NE(structured->ToString().find("["), std::string::npos);
}

TEST(ApiTest, BufferPoolOptionRespected) {
  DatabaseOptions options;
  options.buffer_pool_frames = 16;
  auto db = sim::testing::OpenUniversity(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->buffer_pool().capacity(), 16u);
}

TEST(ApiTest, LastExecStatsReflectWork) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  auto rs = (*db)->ExecuteQuery("From Person Retrieve Name");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ((*db)->last_exec_stats().rows_emitted, 6u);
  EXPECT_GE((*db)->last_exec_stats().combinations_examined, 6u);
}

TEST(ApiTest, ParseErrorsCarryLocation) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok());
  auto rs = (*db)->ExecuteQuery("From Student Retrieve +");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kParseError);
  EXPECT_NE(rs.status().message().find("line"), std::string::npos);
}

}  // namespace
}  // namespace sim
