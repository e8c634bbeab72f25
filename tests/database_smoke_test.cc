// End-to-end smoke tests: open the UNIVERSITY database, load data, run
// basic retrievals through the full Parser -> Binder -> Optimizer ->
// physical plan -> Mapper -> storage stack.

#include <gtest/gtest.h>

#include "university_fixture.h"

namespace sim {
namespace {

using sim::testing::OpenUniversity;

TEST(DatabaseSmoke, SchemaCompiles) {
  auto db = OpenUniversity(DatabaseOptions(), /*with_data=*/false);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DirectoryManager::SchemaStats stats = (*db)->catalog().ComputeStats();
  EXPECT_EQ(stats.base_classes, 3);  // Person, Course, Department
  EXPECT_EQ(stats.subclasses, 3);    // Student, Instructor, TA
  EXPECT_EQ(stats.max_depth, 3);     // Person -> Student -> TA
}

TEST(DatabaseSmoke, LoadsSampleData) {
  auto db = OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto mapper = (*db)->mapper();
  ASSERT_TRUE(mapper.ok());
  EXPECT_EQ((*mapper)->ExtentCount("person").value(), 6u);
  EXPECT_EQ((*mapper)->ExtentCount("student").value(), 3u);
  EXPECT_EQ((*mapper)->ExtentCount("instructor").value(), 4u);
  EXPECT_EQ((*mapper)->ExtentCount("teaching-assistant").value(), 1u);
  EXPECT_EQ((*mapper)->ExtentCount("course").value(), 6u);
  EXPECT_EQ((*mapper)->ExtentCount("department").value(), 3u);
}

TEST(DatabaseSmoke, SimpleRetrieve) {
  auto db = OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery("From Student Retrieve Name, Name of Advisor");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 3u);
  // Students in insertion (surrogate) order; Tom Jones has no advisor ->
  // null advisor name (directed outer join).
  EXPECT_EQ(rs->rows[0].values[0].ToString(), "John Doe");
  EXPECT_EQ(rs->rows[0].values[1].ToString(), "Emmy Noether");
  EXPECT_EQ(rs->rows[1].values[0].ToString(), "Jane Roe");
  EXPECT_EQ(rs->rows[1].values[1].ToString(), "Richard Feynman");
  EXPECT_EQ(rs->rows[2].values[0].ToString(), "Tom Jones");
  EXPECT_TRUE(rs->rows[2].values[1].is_null());
}

TEST(DatabaseSmoke, SelectionWithExtendedAttribute) {
  auto db = OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery(
      "From Student Retrieve Name Where Name of Advisor = \"Emmy Noether\"");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0].values[0].ToString(), "John Doe");
}

TEST(DatabaseSmoke, UniqueIndexLookup) {
  auto db = OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery(
      "From Student Retrieve Name Where Soc-Sec-No = 456887766");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0].values[0].ToString(), "John Doe");
}

}  // namespace
}  // namespace sim
