// Unit tests for the storage substrate: slotted pages, pager, buffer pool,
// record codec, heap files and transactions.

#include <gtest/gtest.h>

#include <random>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/record_codec.h"
#include "storage/txn.h"

namespace sim {
namespace {

TEST(SlottedPageTest, InsertGetDelete) {
  char data[kPageSize];
  SlottedPage::Initialize(data);
  SlottedPage page(data);
  auto s1 = page.Insert("hello");
  ASSERT_TRUE(s1.ok());
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);

  std::string_view rec;
  ASSERT_TRUE(page.Get(*s1, &rec));
  EXPECT_EQ(rec, "hello");
  ASSERT_TRUE(page.Get(*s2, &rec));
  EXPECT_EQ(rec, "world!");

  ASSERT_TRUE(page.Delete(*s1).ok());
  EXPECT_FALSE(page.Get(*s1, &rec));
  // Slot numbers remain stable for surviving records.
  ASSERT_TRUE(page.Get(*s2, &rec));
  EXPECT_EQ(rec, "world!");
  // Deleting twice fails.
  EXPECT_FALSE(page.Delete(*s1).ok());
}

TEST(SlottedPageTest, SlotReuseAfterDelete) {
  char data[kPageSize];
  SlottedPage::Initialize(data);
  SlottedPage page(data);
  auto s1 = page.Insert("first");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(page.Delete(*s1).ok());
  auto s2 = page.Insert("second");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);  // tombstoned slot reused
}

TEST(SlottedPageTest, CompactionReclaimsGarbage) {
  char data[kPageSize];
  SlottedPage::Initialize(data);
  SlottedPage page(data);
  // Fill the page with ~100-byte records.
  std::vector<int> slots;
  std::string payload(100, 'x');
  for (;;) {
    auto s = page.Insert(payload);
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  ASSERT_GT(slots.size(), 30u);
  // Delete every other record, then a larger record must fit via
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page.Delete(slots[i]).ok());
  }
  std::string big(1000, 'y');
  auto s = page.Insert(big);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  std::string_view rec;
  ASSERT_TRUE(page.Get(*s, &rec));
  EXPECT_EQ(rec, big);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(page.Get(slots[i], &rec));
    EXPECT_EQ(rec, payload);
  }
}

TEST(SlottedPageTest, UpdateInPlaceAndGrow) {
  char data[kPageSize];
  SlottedPage::Initialize(data);
  SlottedPage page(data);
  auto s = page.Insert("0123456789");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(page.Update(*s, "short").ok());
  std::string_view rec;
  ASSERT_TRUE(page.Get(*s, &rec));
  EXPECT_EQ(rec, "short");
  ASSERT_TRUE(page.Update(*s, std::string(500, 'z')).ok());
  ASSERT_TRUE(page.Get(*s, &rec));
  EXPECT_EQ(rec.size(), 500u);
}

// A page left with fewer free bytes than one slot entry has no usable
// space: its estimate reads 0, never negative (the heap audit treats a
// negative estimate as corruption), and it refuses every record, an empty
// one included. With exactly one slot entry free, an empty record fits.
TEST(SlottedPageTest, NearlyFullPageReportsZeroAndRefusesRecords) {
  for (int left = 0; left <= 4; ++left) {
    char data[kPageSize];
    SlottedPage::Initialize(data);
    SlottedPage page(data);
    // One record sized to leave `left` bytes after its own slot entry.
    std::string fill(static_cast<size_t>(page.FreeSpaceForNewRecord() - left),
                     'f');
    ASSERT_TRUE(page.Insert(fill).ok()) << left;
    EXPECT_EQ(page.FreeSpaceForNewRecord(), 0) << left;
    EXPECT_FALSE(page.Insert("x").ok()) << left;
    EXPECT_EQ(page.Insert("").ok(), left == 4) << left;
  }
}

TEST(PagerTest, MemPagerRoundTrip) {
  MemPager pager;
  auto p0 = pager.Allocate();
  ASSERT_TRUE(p0.ok());
  char out[kPageSize];
  char in[kPageSize];
  std::fill(in, in + kPageSize, 'a');
  ASSERT_TRUE(pager.Write(*p0, in).ok());
  ASSERT_TRUE(pager.Read(*p0, out).ok());
  EXPECT_EQ(memcmp(in, out, kPageSize), 0);
  EXPECT_EQ(pager.stats().physical_reads, 1u);
  EXPECT_EQ(pager.stats().physical_writes, 1u);
  EXPECT_FALSE(pager.Read(99, out).ok());
}

TEST(PagerTest, FilePagerPersists) {
  std::string path = ::testing::TempDir() + "/simdb_pager_test.db";
  ::remove(path.c_str());
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    auto p0 = (*pager)->Allocate();
    ASSERT_TRUE(p0.ok());
    char in[kPageSize];
    std::fill(in, in + kPageSize, 'q');
    ASSERT_TRUE((*pager)->Write(*p0, in).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 1u);
    char out[kPageSize];
    ASSERT_TRUE((*pager)->Read(0, out).ok());
    EXPECT_EQ(out[100], 'q');
  }
  ::remove(path.c_str());
}

TEST(BufferPoolTest, HitMissAccounting) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  PageId id = h->id();
  h->data()[kPageDataStart] = 'z';
  h->MarkDirty();
  h->Release();

  pool.ResetStats();
  auto h2 = pool.Fetch(id);  // hit: still resident
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(pool.stats().logical_fetches, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(h2->data()[kPageDataStart], 'z');
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->data()[kPageDataStart] = static_cast<char>('A' + i);
    h->MarkDirty();
    ids.push_back(h->id());
  }
  // Re-fetch the first page: it was evicted and must come back from the
  // pager with its data intact.
  pool.ResetStats();
  auto h = pool.Fetch(ids[0]);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[kPageDataStart], 'A');
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, PinsBlockEviction) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  auto h1 = pool.New();
  auto h2 = pool.New();
  ASSERT_TRUE(h1.ok() && h2.ok());
  // Both frames pinned: a third page cannot enter.
  auto h3 = pool.New();
  EXPECT_FALSE(h3.ok());
  h1->Release();
  auto h4 = pool.New();
  EXPECT_TRUE(h4.ok());
}

TEST(BufferPoolTest, InvalidateAllColdsTheCache) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  PageId id = h->id();
  h->MarkDirty();
  h->Release();
  ASSERT_TRUE(pool.InvalidateAll().ok());
  pool.ResetStats();
  auto h2 = pool.Fetch(id);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(RecordCodecTest, RoundTrip) {
  std::vector<Value> values = {
      Value::Surrogate(12345),  Value::Str("|1|2|"),
      Value::Null(),            Value::Int(-99),
      Value::Real(2.75),        Value::Bool(true),
      Value::Date(6726),        Value::Str(std::string(300, 'x')),
  };
  std::string encoded = EncodeRecord(7, values);
  uint16_t record_type;
  std::vector<Value> decoded;
  ASSERT_TRUE(DecodeRecord(encoded, &record_type, &decoded).ok());
  EXPECT_EQ(record_type, 7);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(values[i].StrictEquals(decoded[i])) << i;
  }
  auto peek = PeekRecordType(encoded);
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(*peek, 7);
}

TEST(RecordCodecTest, DecodeRejectsTruncation) {
  std::string encoded = EncodeRecord(1, {Value::Str("hello")});
  uint16_t rt;
  std::vector<Value> out;
  EXPECT_FALSE(DecodeRecord(encoded.substr(0, 6), &rt, &out).ok());
  EXPECT_FALSE(DecodeRecord("", &rt, &out).ok());
}

// Property: index key encoding is order-preserving under memcmp.
TEST(RecordCodecTest, IndexKeyOrderPreservingInts) {
  std::vector<int64_t> ints = {-1000000, -5, -1, 0, 1, 7, 42, 99999999};
  for (size_t i = 0; i + 1 < ints.size(); ++i) {
    auto a = EncodeIndexKey(Value::Int(ints[i]));
    auto b = EncodeIndexKey(Value::Int(ints[i + 1]));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_LT(*a, *b) << ints[i] << " vs " << ints[i + 1];
  }
}

TEST(RecordCodecTest, IndexKeyOrderPreservingReals) {
  std::vector<double> reals = {-1e9, -2.5, -0.0, 0.5, 3.25, 7e8};
  for (size_t i = 0; i + 1 < reals.size(); ++i) {
    auto a = EncodeIndexKey(Value::Real(reals[i]));
    auto b = EncodeIndexKey(Value::Real(reals[i + 1]));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_LT(*a, *b) << reals[i] << " vs " << reals[i + 1];
  }
}

TEST(RecordCodecTest, NullsAreNotIndexable) {
  EXPECT_FALSE(EncodeIndexKey(Value::Null()).ok());
}

TEST(HeapFileTest, InsertGetUpdateDelete) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  HeapFile file(&pool, "test");
  auto rid = file.Insert("record one");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(file.Get(*rid, &out).ok());
  EXPECT_EQ(out, "record one");

  auto new_rid = file.Update(*rid, "record one, updated");
  ASSERT_TRUE(new_rid.ok());
  ASSERT_TRUE(file.Get(*new_rid, &out).ok());
  EXPECT_EQ(out, "record one, updated");

  ASSERT_TRUE(file.Delete(*new_rid).ok());
  EXPECT_FALSE(file.Get(*new_rid, &out).ok());
  EXPECT_EQ(file.record_count(), 0u);
}

TEST(HeapFileTest, SpansManyPagesAndScans) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  HeapFile file(&pool, "test");
  const int kCount = 500;
  std::string payload(64, 'p');
  for (int i = 0; i < kCount; ++i) {
    std::string rec = payload + std::to_string(i);
    ASSERT_TRUE(file.Insert(rec).ok());
  }
  EXPECT_GT(file.pages().size(), 5u);
  int scanned = 0;
  for (auto it = file.Begin(); it.Valid(); it.Next()) ++scanned;
  EXPECT_EQ(scanned, kCount);
  EXPECT_EQ(file.record_count(), static_cast<uint64_t>(kCount));
}

TEST(HeapFileTest, UpdateThatMovesRecord) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  HeapFile file(&pool, "test");
  // Fill one page so a grown record must move.
  std::vector<RecordId> rids;
  for (int i = 0; i < 35; ++i) {
    auto rid = file.Insert(std::string(100, 'a'));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  auto moved = file.Update(rids[0], std::string(3000, 'b'));
  ASSERT_TRUE(moved.ok());
  std::string out;
  ASSERT_TRUE(file.Get(*moved, &out).ok());
  EXPECT_EQ(out.size(), 3000u);
}

TEST(TxnTest, AbortRunsUndoInReverse) {
  TransactionManager manager;
  Transaction* txn = manager.Begin();
  std::vector<int> order;
  txn->LogUndo([&]() {
    order.push_back(1);
    return Status::Ok();
  });
  txn->LogUndo([&]() {
    order.push_back(2);
    return Status::Ok();
  });
  ASSERT_TRUE(manager.Abort(txn).ok());
  // The transaction is destroyed on Abort; only the counters remain.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(manager.aborted_count(), 1u);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(TxnTest, CommitDiscardsUndo) {
  TransactionManager manager;
  Transaction* txn = manager.Begin();
  bool ran = false;
  txn->LogUndo([&]() {
    ran = true;
    return Status::Ok();
  });
  ASSERT_TRUE(manager.Commit(txn).ok());
  // The transaction is destroyed on Commit; only the counters remain.
  EXPECT_FALSE(ran);
  EXPECT_EQ(manager.committed_count(), 1u);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(TxnTest, CommitAndAbortFreeTheTransaction) {
  TransactionManager manager;
  for (int i = 0; i < 100; ++i) {
    Transaction* txn = manager.Begin();
    Status s = (i % 2 == 0) ? manager.Commit(txn) : manager.Abort(txn);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(manager.active_count(), 0u);  // no retained history
  }
  EXPECT_EQ(manager.committed_count(), 50u);
  EXPECT_EQ(manager.aborted_count(), 50u);
}

TEST(TxnTest, CommitHookFailureKeepsTransactionActive) {
  TransactionManager manager;
  manager.set_commit_hook(
      [](Transaction*) { return Status::IoError("wal unavailable"); });
  Transaction* txn = manager.Begin();
  bool undone = false;
  txn->LogUndo([&]() {
    undone = true;
    return Status::Ok();
  });
  EXPECT_FALSE(manager.Commit(txn).ok());
  EXPECT_TRUE(txn->active());  // still alive: caller decides to abort
  EXPECT_EQ(manager.committed_count(), 0u);
  ASSERT_TRUE(manager.Abort(txn).ok());
  EXPECT_TRUE(undone);
}

TEST(TxnTest, RollbackToSavepoint) {
  TransactionManager manager;
  Transaction* txn = manager.Begin();
  std::vector<int> order;
  txn->LogUndo([&]() {
    order.push_back(1);
    return Status::Ok();
  });
  size_t savepoint = txn->undo_depth();
  txn->LogUndo([&]() {
    order.push_back(2);
    return Status::Ok();
  });
  ASSERT_TRUE(txn->RollbackTo(savepoint).ok());
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
  EXPECT_TRUE(txn->active());
  ASSERT_TRUE(manager.Abort(txn).ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 1);
}

}  // namespace
}  // namespace sim
