#ifndef SIMDB_STORAGE_PAGE_H_
#define SIMDB_STORAGE_PAGE_H_

// Slotted-page layout. Every storage unit (heap file, B+-tree node, hash
// bucket) lives in fixed-size pages; record-level structures use the
// slotted layout implemented here. The page is the unit of "block access"
// accounting that the optimizer cost model and the §5.2 mapping experiments
// observe.
//
// Every page reserves a common header in its first kPageHeaderSize bytes:
//
//   [ u32 checksum | u32 reserved ]
//
// The checksum is a CRC32 over bytes [4, kPageSize) stamped by the buffer
// pool / WAL just before the page goes to durable storage, and verified
// when a page comes back from it, so a torn in-place write is detected on
// read instead of being interpreted as data. An all-zero page (freshly
// allocated, never written) is also considered valid. Structure-specific
// layouts (slotted page, B+-tree node, hash bucket) start at
// kPageDataStart.

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace sim {

inline constexpr size_t kPageSize = 4096;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFF;

// Common durable-page header: u32 CRC32 of bytes [4, kPageSize), u32
// reserved (always zero for now).
inline constexpr size_t kPageHeaderSize = 8;
inline constexpr size_t kPageDataStart = kPageHeaderSize;

// CRC32 (IEEE 802.3 polynomial, the zlib/PNG crc) over `len` bytes.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// Computes and stores the checksum of `page` in its header.
void StampPageChecksum(char* page);

// True when the stored checksum matches the page contents, or when the
// whole page is zero (allocated but never written).
bool PageChecksumOk(const char* page);

// A view over one page of memory, arranged as:
//
//   [ u16 slot_count | u16 free_end | u16 garbage | slot directory ... ]
//   [ ...free space... | record data grows from the page end ]
//
// laid out after the common page header (kPageDataStart).
//
// Each slot directory entry is {u16 offset, u16 length}; offset 0 marks a
// tombstoned slot (the page and slotted headers occupy the low offsets, so
// no record can legitimately start at 0). Slot numbers are stable across
// deletes, which lets RecordIds remain valid for the lifetime of a record.
class SlottedPage {
 public:
  // Wraps existing page memory; does not take ownership.
  explicit SlottedPage(char* data) : data_(data) {}

  // Formats fresh page memory as an empty slotted page.
  static void Initialize(char* data);

  int slot_count() const;

  // Bytes available for a new record, accounting for its slot entry.
  // Includes reclaimable garbage (Insert compacts when needed). Never
  // negative: a page without room for a slot entry reports 0.
  int FreeSpaceForNewRecord() const;

  // Appends a record; returns its slot number, or IoError if it cannot fit.
  Result<int> Insert(std::string_view record);

  // Reads the record in `slot`. Returns false if the slot is empty/deleted
  // or out of range. The returned view points into the page memory.
  bool Get(int slot, std::string_view* record) const;

  // Tombstones a slot. The space becomes garbage reclaimed by compaction.
  Status Delete(int slot);

  // Replaces the record in `slot`. Works in place when the new record is
  // not larger; otherwise re-allocates within this page (compacting if
  // needed) and fails with IoError if the page cannot hold the new size.
  Status Update(int slot, std::string_view record);

  // Live record bytes plus directory overhead currently used.
  int UsedBytes() const;

 private:
  uint16_t ReadU16(size_t off) const;
  void WriteU16(size_t off, uint16_t v);
  // Slot directory entry offsets within the page.
  static size_t SlotOffsetPos(int slot) { return kHeaderSize + slot * 4; }
  static size_t SlotLengthPos(int slot) { return kHeaderSize + slot * 4 + 2; }
  // Rewrites all live records contiguously at the page end.
  void Compact();
  // Free bytes (garbage included) minus one slot entry; negative when the
  // page cannot even take a slot entry.
  int SpaceAfterSlotEntry() const;

  // Common page header plus the slotted header fields.
  static constexpr size_t kHeaderSize = kPageDataStart + 6;

  char* data_;
};

}  // namespace sim

#endif  // SIMDB_STORAGE_PAGE_H_
