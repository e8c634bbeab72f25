// simcheck test suite: proves the InvariantChecker detects every class of
// corruption the CorruptionInjector can plant (each primitive slips one
// inconsistency underneath the LUC mapper's invariant-preserving API), that
// a healthy database audits clean on all layers, and that the layer-3 plan
// validator and iterator-protocol wrapper reject malformed executions.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "catalog/directory.h"
#include "check/check.h"
#include "check/corrupt.h"
#include "check/plan_check.h"
#include "exec/operators.h"
#include "exec/physical_plan.h"
#include "storage/page.h"
#include "university_fixture.h"

namespace sim {
namespace {

// Finds the surrogate of the entity of `cls` whose `attr` DVA equals `want`.
SurrogateId FindByField(Database* db, const std::string& cls,
                        const std::string& attr, const std::string& want) {
  auto mapper = db->mapper();
  if (!mapper.ok()) return kInvalidSurrogate;
  auto extent = (*mapper)->ExtentOf(cls);
  if (!extent.ok()) return kInvalidSurrogate;
  for (SurrogateId s : *extent) {
    auto v = (*mapper)->GetField(s, cls, attr);
    if (v.ok() && v->StrictEquals(Value::Str(want))) return s;
  }
  return kInvalidSurrogate;
}

SurrogateId FindByName(Database* db, const std::string& cls,
                       const std::string& name) {
  return FindByField(db, cls, "name", name);
}

// Audits `db` and returns the report, failing the test on infrastructure
// errors (corruption findings are expected, audit aborts are not).
CheckReport Audit(Database* db) {
  auto report = db->Audit();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : CheckReport();
}

bool HasStorageFinding(const CheckReport& report, const std::string& code) {
  for (const CheckError& e : report.errors) {
    if (e.invariant == code && e.layer == CheckLayer::kStorage) return true;
  }
  return false;
}

// ----- clean audits -----

TEST(CheckCleanTest, UniversityFixtureAuditsClean) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  CheckReport report = Audit(db->get());
  EXPECT_TRUE(report.clean()) << report.ToString();
  // The clean audit must actually have looked at the data.
  EXPECT_GT(report.entities_checked, 0u);
  EXPECT_GT(report.records_checked, 0u);
  EXPECT_GT(report.eva_pairs_checked, 0u);
  EXPECT_GT(report.index_entries_checked, 0u);
  EXPECT_GT(report.pages_checked, 0u);
}

TEST(CheckCleanTest, AllMappingPoliciesAuditClean) {
  for (bool colocate : {true, false}) {
    for (KeyOrganization org :
         {KeyOrganization::kDirect, KeyOrganization::kHashed,
          KeyOrganization::kIndexSequential}) {
      DatabaseOptions options;
      options.mapping.colocate_tree_hierarchies = colocate;
      options.mapping.surrogate_org = org;
      auto db = sim::testing::OpenUniversity(options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      CheckReport report = Audit(db->get());
      EXPECT_TRUE(report.clean())
          << "colocate=" << colocate << " org=" << static_cast<int>(org)
          << "\n"
          << report.ToString();
    }
  }
}

TEST(CheckCleanTest, CheckDatabaseStatementReturnsFindingsAsRows) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery("Check Database");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->columns.size(), 5u);
  EXPECT_EQ(rs->columns[0], "layer");
  EXPECT_EQ(rs->columns[1], "invariant");
  EXPECT_EQ(rs->row_count(), 0u);

  // Plant a corruption; the same statement now surfaces it as rows.
  auto mapper = (*db)->mapper();
  ASSERT_TRUE(mapper.ok());
  SurrogateId s = FindByName(db->get(), "person", "Alan Turing");
  ASSERT_NE(s, kInvalidSurrogate);
  CorruptionInjector injector(*mapper);
  ASSERT_TRUE(injector.FlipRecordByte("person", s).ok());
  rs = (*db)->ExecuteQuery("Check Database");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rs->row_count(), 0u);
}

// CHECK DATABASE is a query, not an update.
TEST(CheckCleanTest, CheckDatabaseRejectedAsUpdate) {
  auto db = sim::testing::OpenUniversity(DatabaseOptions(),
                                         /*with_data=*/false);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->ExecuteUpdate("Check Database").status().code(),
            StatusCode::kInvalidArgument);
}

// ----- layer 1: catalog corruption (unfinalized DirectoryManager, since
// Finalize() refuses schemas this broken) -----

// AddClass itself refuses cycles and double bases, so plant the corruption
// by mutating the stored definition after legal construction — the same
// in-memory drift the layer-1 audit exists to catch.
ClassDef* MutableClass(DirectoryManager* dir, const std::string& name) {
  auto def = dir->FindClass(name);
  if (!def.ok()) return nullptr;
  return const_cast<ClassDef*>(*def);
}

TEST(CheckCatalogTest, DetectsSuperclassCycle) {
  DirectoryManager dir;
  ClassDef a;
  a.name = "A";
  ClassDef b;
  b.name = "B";
  b.superclasses = {"A"};
  ASSERT_TRUE(dir.AddClass(std::move(a)).ok());
  ASSERT_TRUE(dir.AddClass(std::move(b)).ok());
  ASSERT_NE(MutableClass(&dir, "A"), nullptr);
  MutableClass(&dir, "A")->superclasses = {"B"};  // A <-> B
  InvariantChecker checker(&dir, nullptr, nullptr, nullptr);
  CheckReport report;
  ASSERT_TRUE(checker.AuditCatalog(&report).ok());
  EXPECT_TRUE(report.HasInvariant("class-dag-cycle")) << report.ToString();
  EXPECT_GT(report.CountLayer(CheckLayer::kCatalog), 0u);
}

TEST(CheckCatalogTest, DetectsMultipleBaseAncestors) {
  DirectoryManager dir;
  ClassDef a;
  a.name = "A";
  ClassDef b;
  b.name = "B";
  ClassDef c;
  c.name = "C";
  c.superclasses = {"A"};
  ASSERT_TRUE(dir.AddClass(std::move(a)).ok());
  ASSERT_TRUE(dir.AddClass(std::move(b)).ok());
  ASSERT_TRUE(dir.AddClass(std::move(c)).ok());
  ASSERT_NE(MutableClass(&dir, "C"), nullptr);
  MutableClass(&dir, "C")->superclasses = {"A", "B"};  // two base ancestors
  InvariantChecker checker(&dir, nullptr, nullptr, nullptr);
  CheckReport report;
  ASSERT_TRUE(checker.AuditCatalog(&report).ok());
  EXPECT_TRUE(report.HasInvariant("multiple-base-ancestors"))
      << report.ToString();
}

// ----- layer 2: storage corruption -----

class CheckCorruptionTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions options = DatabaseOptions()) {
    auto db = sim::testing::OpenUniversity(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto mapper = db_->mapper();
    ASSERT_TRUE(mapper.ok()) << mapper.status().ToString();
    mapper_ = *mapper;
    // Every corruption test starts from a verified-clean database, so any
    // finding after the injection is attributable to it.
    CheckReport before = Audit(db_.get());
    ASSERT_TRUE(before.clean()) << before.ToString();
  }

  std::unique_ptr<Database> db_;
  LucMapper* mapper_ = nullptr;
};

// Corruption 1: byte-flip inside a heap record (the value-type tag of the
// first field), making the stored record undecodable.
TEST_F(CheckCorruptionTest, ByteFlippedRecordDetected) {
  Open();
  SurrogateId s = FindByName(db_.get(), "person", "Emmy Noether");
  ASSERT_NE(s, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  ASSERT_TRUE(injector.FlipRecordByte("person", s).ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "record-decode")) << report.ToString();
}

// Corruption 2: drop only the inverse direction of a stored EVA pair
// (student --advisor--> instructor keeps the forward record, the
// instructor's advisees side loses it), violating §3.2's system-maintained
// inverse guarantee.
TEST_F(CheckCorruptionTest, DroppedEvaInverseDetected) {
  Open();
  SurrogateId john = FindByName(db_.get(), "student", "John Doe");
  SurrogateId noether = FindByName(db_.get(), "instructor", "Emmy Noether");
  ASSERT_NE(john, kInvalidSurrogate);
  ASSERT_NE(noether, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  ASSERT_TRUE(injector.DropInverseSide("student", "advisor", john, noether)
                  .ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "eva-inverse-record-missing"))
      << report.ToString();
  // The record-level audit names the entity whose inverse is gone.
  bool names_entity = false;
  for (const CheckError& e : report.errors) {
    if (e.invariant == "eva-inverse-record-missing" && e.surrogate == john) {
      names_entity = true;
    }
  }
  EXPECT_TRUE(names_entity) << report.ToString();
}

// Same injection against a symmetric EVA (spouse is its own inverse).
TEST_F(CheckCorruptionTest, DroppedSymmetricEvaSideDetected) {
  Open();
  SurrogateId john = FindByName(db_.get(), "person", "John Doe");
  SurrogateId jane = FindByName(db_.get(), "person", "Jane Roe");
  ASSERT_NE(john, kInvalidSurrogate);
  ASSERT_NE(jane, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  ASSERT_TRUE(injector.DropInverseSide("person", "spouse", john, jane).ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "eva-inverse-record-missing"))
      << report.ToString();
}

// Corruption 3: delete one unit record of a multi-role entity (per-class
// units), orphaning the base-class row whose role set still claims the
// subclass (§3.1: subclass membership implies base membership).
TEST_F(CheckCorruptionTest, OrphanSubclassRowDetected) {
  DatabaseOptions options;
  options.mapping.colocate_tree_hierarchies = false;
  Open(options);
  SurrogateId john = FindByName(db_.get(), "student", "John Doe");
  ASSERT_NE(john, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  ASSERT_TRUE(injector.DeleteUnitRecord("student", john).ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "subclass-extent-orphan"))
      << report.ToString();
}

// Corruption 4: write a duplicate UNIQUE value directly into the stored
// record, bypassing enforcement and index maintenance (§3.2.1 UNIQUE).
TEST_F(CheckCorruptionTest, DuplicateUniqueValueDetected) {
  Open();
  SurrogateId turing = FindByName(db_.get(), "instructor", "Alan Turing");
  ASSERT_NE(turing, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  // Noether already holds employee-nbr 1002.
  ASSERT_TRUE(injector
                  .RawWriteField("instructor", "employee-nbr", turing,
                                 Value::Int(1002))
                  .ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "unique-duplicate"))
      << report.ToString();
  // The raw write also desynced the secondary index from the heap.
  EXPECT_TRUE(HasStorageFinding(report, "sec-index-missing-entry") ||
              HasStorageFinding(report, "sec-index-orphan"))
      << report.ToString();
}

// Corruption 5: re-point a hash-organized primary (surrogate -> record-id)
// index entry at a neighbouring slot.
TEST_F(CheckCorruptionTest, DesyncedHashIndexDetected) {
  DatabaseOptions options;
  options.mapping.surrogate_org = KeyOrganization::kHashed;
  Open(options);
  SurrogateId s = FindByField(db_.get(), "course", "title", "Databases");
  ASSERT_NE(s, kInvalidSurrogate);
  CorruptionInjector injector(mapper_);
  ASSERT_TRUE(injector.DesyncPrimaryIndex("course", s).ok());
  CheckReport report = Audit(db_.get());
  EXPECT_TRUE(HasStorageFinding(report, "primary-index-mismatch"))
      << report.ToString();
}

// Corruption 6: append MV DVA members past the declared MAX (and a
// DISTINCT duplicate) bypassing enforcement (§3.2.1), in both physical
// representations of a bounded MV DVA.
class CheckMvCorruptionTest : public ::testing::TestWithParam<bool> {};

TEST_P(CheckMvCorruptionTest, MvMaxAndDistinctViolationsDetected) {
  DatabaseOptions options;
  options.mapping.embed_bounded_mvdva = GetParam();
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecuteDdl("Class Box ("
                               "  tag: string[8];"
                               "  bounded: integer mv (max 2, distinct) );")
                  .ok());
  auto mapper = (*db)->mapper();
  ASSERT_TRUE(mapper.ok());
  auto s = (*mapper)->CreateEntity("Box", nullptr);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*mapper)->AddMvValue(*s, "Box", "bounded", Value::Int(1),
                                    nullptr).ok());
  ASSERT_TRUE((*mapper)->AddMvValue(*s, "Box", "bounded", Value::Int(2),
                                    nullptr).ok());
  auto clean = (*db)->Audit();
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->clean()) << clean->ToString();

  CorruptionInjector injector(*mapper);
  ASSERT_TRUE(injector.RawAppendMvValue("Box", "bounded", *s, Value::Int(3))
                  .ok());
  ASSERT_TRUE(injector.RawAppendMvValue("Box", "bounded", *s, Value::Int(2))
                  .ok());
  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasStorageFinding(*report, "mv-max-exceeded"))
      << report->ToString();
  EXPECT_TRUE(HasStorageFinding(*report, "mv-distinct-duplicate"))
      << report->ToString();
}

INSTANTIATE_TEST_SUITE_P(Representations, CheckMvCorruptionTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Embedded" : "SeparateUnit";
                         });

// A heap page left with fewer free bytes than a slot entry (routine once
// records of varied sizes fill a file) must audit clean, so a database
// holding one closes and reopens under the default post-recovery audit.
TEST(CheckReopenTest, NearlyFullHeapPageAuditsCleanAndReopens) {
  std::string path = ::testing::TempDir() + "/simcheck_tight_page.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  DatabaseOptions options;
  options.file_path = path;
  int inserted = 0;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl("Class Item (tag: string[60]);").ok());
    auto mapper = (*db)->mapper();
    ASSERT_TRUE(mapper.ok());
    auto insert = [&](int tag_len) {
      std::string tag(static_cast<size_t>(tag_len), 't');
      ASSERT_TRUE((*db)->ExecuteUpdate("Insert Item (tag := \"" + tag + "\")")
                      .ok());
      ++inserted;
    };
    // Usable bytes of the page the next insert goes to.
    auto newest_free = [&]() {
      auto h = (*db)->buffer_pool().Fetch((*mapper)->HeapPages().back());
      EXPECT_TRUE(h.ok());
      return h.ok() ? SlottedPage(h->data()).FreeSpaceForNewRecord() : 0;
    };
    ASSERT_TRUE((*db)->Begin().ok());
    char empty[kPageSize];
    SlottedPage::Initialize(empty);
    insert(0);
    // Record bytes of an Item with an empty tag: what the first insert
    // took from a fresh page, less its slot entry.
    const int overhead =
        SlottedPage(empty).FreeSpaceForNewRecord() - newest_free() - 4;
    // Mid-sized records until one tag length leaves the page 2 bytes, half
    // a slot entry.
    while (inserted < 500) {
      int tag_len = newest_free() - overhead - 2;
      if (tag_len >= 0 && tag_len <= 60) {
        insert(tag_len);
        break;
      }
      insert(20);
    }
    ASSERT_TRUE((*db)->Commit().ok());
    // Probe copies of the heap pages: one refuses even an empty record,
    // and reports 0 usable bytes.
    int tight = 0;
    for (PageId id : (*mapper)->HeapPages()) {
      auto h = (*db)->buffer_pool().Fetch(id);
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      char copy[kPageSize];
      std::memcpy(copy, h->data(), kPageSize);
      SlottedPage page(copy);
      if (page.Insert("").ok()) continue;
      ++tight;
      EXPECT_EQ(page.FreeSpaceForNewRecord(), 0) << "page " << id;
    }
    ASSERT_EQ(tight, 1);
    auto report = (*db)->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->ToString();
  }  // clean close
  ASSERT_TRUE(options.recovery_audit);
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rs = (*db)->ExecuteQuery("Retrieve count(item)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0].values[0].int_value(), inserted);
  db->reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// Corruption 7: flip a stored byte on disk without restamping the page
// checksum — detected by the page-layer audit of a reopened database
// (recovery rehydrates the mapper, so the reopened audit runs full depth).
TEST(CheckPageTest, PageChecksumCorruptionDetected) {
  std::string path = ::testing::TempDir() + "/simcheck_page_corrupt.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    DatabaseOptions options;
    options.file_path = path;
    auto db = sim::testing::OpenUniversity(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }  // clean close checkpoints the WAL into the file

  DatabaseOptions options;
  options.file_path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The freshly reopened database audits clean at full depth: recovery
  // rehydrated the mapper, so the storage layer scans records again.
  auto before = (*db)->Audit();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->clean()) << before->ToString();
  ASSERT_GT(before->pages_checked, 0u);
  EXPECT_GT(before->records_checked, 0u);

  // Flip one payload byte of the first non-empty page, bypassing the
  // checksum stamp.
  Pager& pager = (*db)->pager();
  char buf[kPageSize];
  bool corrupted = false;
  for (uint32_t id = 0; id < pager.page_count() && !corrupted; ++id) {
    ASSERT_TRUE(pager.Read(id, buf).ok());
    bool all_zero = true;
    for (char c : buf) {
      if (c != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    buf[kPageSize - 1] ^= 0x5A;
    ASSERT_TRUE(pager.Write(id, buf).ok());
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "no non-empty page found to corrupt";

  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasStorageFinding(*report, "page-checksum"))
      << report->ToString();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// ----- paranoid mode -----

TEST(CheckParanoidTest, UpdateStatementsAuditedWhenParanoid) {
  DatabaseOptions options;
  options.paranoid_checks = true;
  // The whole fixture load already ran one audit per statement.
  auto db = sim::testing::OpenUniversity(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)
                  ->ExecuteUpdate("Modify instructor (salary := 51000) "
                                  "Where name = \"Alan Turing\"")
                  .ok());

  // Plant a corruption in a unit the statement itself never scans (the
  // course family): the paranoid post-statement audit fails the next
  // (otherwise valid) update.
  auto mapper = (*db)->mapper();
  ASSERT_TRUE(mapper.ok());
  SurrogateId s = FindByField(db->get(), "course", "title", "Databases");
  ASSERT_NE(s, kInvalidSurrogate);
  CorruptionInjector injector(*mapper);
  ASSERT_TRUE(injector.FlipRecordByte("course", s).ok());
  auto r = (*db)->ExecuteUpdate("Modify instructor (salary := 52000) "
                                "Where name = \"Alan Turing\"");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("paranoid audit"), std::string::npos)
      << r.status().ToString();
}

TEST(CheckParanoidTest, CursorsStreamNormallyUnderProtocolCheck) {
  DatabaseOptions options;
  options.paranoid_checks = true;
  auto db = sim::testing::OpenUniversity(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto cur = (*db)->OpenCursor("From Student Retrieve name");
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  int rows = 0;
  Row row;
  while (true) {
    auto more = cur->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++rows;
  }
  EXPECT_EQ(rows, 3);  // John Doe, Jane Roe, Tom Jones
  // Exhausted cursor keeps reporting end-of-stream, never a protocol trip.
  auto again = cur->Next(&row);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(*again);
  EXPECT_TRUE(cur->Close().ok());
}

// ----- layer 3: plan validation and iterator protocol -----

TEST(PlanCheckTest, NullRootIsReported) {
  PhysicalPlan plan;
  QueryTree qt;
  CheckReport report;
  ValidatePlan(plan, qt, &report);
  EXPECT_TRUE(report.HasInvariant("plan-missing-operator"))
      << report.ToString();
  EXPECT_GT(report.CountLayer(CheckLayer::kPlan), 0u);
  EXPECT_FALSE(ValidatePlanOrError(plan, qt).ok());
}

TEST(PlanCheckTest, BuiltPlansValidateCleanly) {
  auto db = sim::testing::OpenUniversity();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Explain runs ValidatePlanOrError internally; a validation failure
  // would surface as an error here.
  auto text = (*db)->ExplainAnalyze(
      "From Student Retrieve name, title of courses-enrolled "
      "Order By name Limit 2");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
}

TEST(ProtocolCheckTest, EnforcesOpenNextCloseStateMachine) {
  QueryTree qt;
  ExecContext cx(&qt, nullptr);
  Row row;

  ProtocolCheck op(std::make_unique<OnceOp>());
  // Next before Open.
  auto r = op.Next(cx, &row);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("Next before Open"),
            std::string::npos);

  ASSERT_TRUE(op.Open(cx).ok());
  // Double Open.
  Status reopen = op.Open(cx);
  ASSERT_FALSE(reopen.ok());
  EXPECT_NE(reopen.ToString().find("already open"), std::string::npos);

  // OnceOp delivers exactly one (empty) combination.
  r = op.Next(cx, &row);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  r = op.Next(cx, &row);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // Next after exhaustion.
  r = op.Next(cx, &row);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("after exhaustion"),
            std::string::npos);

  ASSERT_TRUE(op.Close(cx).ok());
  // Double Close.
  Status reclose = op.Close(cx);
  ASSERT_FALSE(reclose.ok());
  EXPECT_NE(reclose.ToString().find("not open"), std::string::npos);
}

}  // namespace
}  // namespace sim
