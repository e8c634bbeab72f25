#include "storage/page.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

namespace sim {

namespace {

constexpr size_t kSlotEntrySize = 4;
// Slotted header fields live right after the common page header.
constexpr size_t kSlotCountPos = kPageDataStart + 0;
constexpr size_t kFreeEndPos = kPageDataStart + 2;
constexpr size_t kGarbagePos = kPageDataStart + 4;

// Slicing-by-8: eight derived tables let the hot loop fold 8 input bytes
// per iteration instead of 1. Same polynomial (0xEDB88320, reflected) and
// identical results as the classic byte-at-a-time form — page stamps and
// WAL frame CRCs are on the commit path, where two 4 KiB passes per page
// append are pure per-commit CPU cost.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int j = 1; j < 8; ++j) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<std::array<uint32_t, 256>, 8> tables =
      BuildCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The word-folding formulation assumes little-endian loads; big-endian
  // builds fall through to the byte loop below.
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
        tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
        tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
#endif
  for (size_t i = 0; i < len; ++i) {
    c = tables[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void StampPageChecksum(char* page) {
  uint32_t crc = Crc32(page + 4, kPageSize - 4);
  std::memcpy(page, &crc, 4);
}

bool PageChecksumOk(const char* page) {
  uint32_t stored;
  std::memcpy(&stored, page, 4);
  uint32_t actual = Crc32(page + 4, kPageSize - 4);
  if (stored == actual) return true;
  if (stored != 0) return false;
  // Never-stamped pages are valid only when fully zero.
  for (size_t i = 4; i < kPageSize; ++i) {
    if (page[i] != 0) return false;
  }
  return true;
}

uint16_t SlottedPage::ReadU16(size_t off) const {
  uint16_t v;
  std::memcpy(&v, data_ + off, 2);
  return v;
}

void SlottedPage::WriteU16(size_t off, uint16_t v) {
  std::memcpy(data_ + off, &v, 2);
}

void SlottedPage::Initialize(char* data) {
  std::memset(data, 0, kPageSize);
  SlottedPage page(data);
  page.WriteU16(kSlotCountPos, 0);
  page.WriteU16(kFreeEndPos, static_cast<uint16_t>(kPageSize));
  page.WriteU16(kGarbagePos, 0);
}

int SlottedPage::slot_count() const { return ReadU16(kSlotCountPos); }

int SlottedPage::SpaceAfterSlotEntry() const {
  int slots = slot_count();
  int free_end = ReadU16(kFreeEndPos);
  int garbage = ReadU16(kGarbagePos);
  int directory_end = static_cast<int>(kHeaderSize + slots * kSlotEntrySize);
  int contiguous = free_end - directory_end;
  int total = contiguous + garbage;
  // A new record also needs a slot entry (unless a tombstoned slot can be
  // reused; we are conservative here).
  return total - static_cast<int>(kSlotEntrySize);
}

int SlottedPage::FreeSpaceForNewRecord() const {
  // A page with fewer free bytes than a slot entry takes no record: it has
  // 0 usable bytes, not a negative count.
  return std::max(0, SpaceAfterSlotEntry());
}

Result<int> SlottedPage::Insert(std::string_view record) {
  const int len = static_cast<int>(record.size());
  // Exact, unclamped fit test: a page short of a slot entry refuses even
  // an empty record.
  if (len > SpaceAfterSlotEntry()) {
    return Status::IoError("record does not fit in page");
  }
  int slots = slot_count();
  // Reuse a tombstoned slot if available to bound directory growth.
  int slot = -1;
  for (int i = 0; i < slots; ++i) {
    if (ReadU16(SlotOffsetPos(i)) == 0) {
      slot = i;
      break;
    }
  }
  bool new_slot = slot < 0;
  if (new_slot) slot = slots;

  int free_end = ReadU16(kFreeEndPos);
  int directory_end = static_cast<int>(
      kHeaderSize + (slots + (new_slot ? 1 : 0)) * kSlotEntrySize);
  if (free_end - directory_end < len) {
    Compact();
    free_end = ReadU16(kFreeEndPos);
    if (free_end - directory_end < len) {
      return Status::IoError("record does not fit in page after compaction");
    }
  }
  int offset = free_end - len;
  std::memcpy(data_ + offset, record.data(), len);
  WriteU16(kFreeEndPos, static_cast<uint16_t>(offset));
  if (new_slot) WriteU16(kSlotCountPos, static_cast<uint16_t>(slots + 1));
  WriteU16(SlotOffsetPos(slot), static_cast<uint16_t>(offset));
  WriteU16(SlotLengthPos(slot), static_cast<uint16_t>(len));
  return slot;
}

bool SlottedPage::Get(int slot, std::string_view* record) const {
  if (slot < 0 || slot >= slot_count()) return false;
  uint16_t offset = ReadU16(SlotOffsetPos(slot));
  if (offset == 0) return false;
  uint16_t len = ReadU16(SlotLengthPos(slot));
  *record = std::string_view(data_ + offset, len);
  return true;
}

Status SlottedPage::Delete(int slot) {
  if (slot < 0 || slot >= slot_count()) {
    return Status::NotFound("no such slot");
  }
  uint16_t offset = ReadU16(SlotOffsetPos(slot));
  if (offset == 0) return Status::NotFound("slot already empty");
  uint16_t len = ReadU16(SlotLengthPos(slot));
  WriteU16(SlotOffsetPos(slot), 0);
  WriteU16(SlotLengthPos(slot), 0);
  WriteU16(kGarbagePos, static_cast<uint16_t>(ReadU16(kGarbagePos) + len));
  return Status::Ok();
}

Status SlottedPage::Update(int slot, std::string_view record) {
  if (slot < 0 || slot >= slot_count()) {
    return Status::NotFound("no such slot");
  }
  uint16_t offset = ReadU16(SlotOffsetPos(slot));
  if (offset == 0) return Status::NotFound("slot is empty");
  uint16_t old_len = ReadU16(SlotLengthPos(slot));
  if (record.size() <= old_len) {
    std::memcpy(data_ + offset, record.data(), record.size());
    WriteU16(SlotLengthPos(slot), static_cast<uint16_t>(record.size()));
    WriteU16(kGarbagePos,
             static_cast<uint16_t>(ReadU16(kGarbagePos) +
                                   (old_len - record.size())));
    return Status::Ok();
  }
  // Grow: delete then re-insert into the same slot.
  SIM_RETURN_IF_ERROR(Delete(slot));
  int slots = slot_count();
  int free_end = ReadU16(kFreeEndPos);
  int directory_end = static_cast<int>(kHeaderSize + slots * kSlotEntrySize);
  int len = static_cast<int>(record.size());
  if (free_end - directory_end < len) {
    Compact();
    free_end = ReadU16(kFreeEndPos);
    if (free_end - directory_end < len) {
      // Restore nothing: caller treats this as "move the record elsewhere".
      return Status::IoError("updated record does not fit in page");
    }
  }
  int new_offset = free_end - len;
  std::memcpy(data_ + new_offset, record.data(), len);
  WriteU16(kFreeEndPos, static_cast<uint16_t>(new_offset));
  WriteU16(SlotOffsetPos(slot), static_cast<uint16_t>(new_offset));
  WriteU16(SlotLengthPos(slot), static_cast<uint16_t>(len));
  return Status::Ok();
}

int SlottedPage::UsedBytes() const {
  int used = static_cast<int>(kHeaderSize + slot_count() * kSlotEntrySize);
  for (int i = 0; i < slot_count(); ++i) {
    if (ReadU16(SlotOffsetPos(i)) != 0) used += ReadU16(SlotLengthPos(i));
  }
  return used;
}

void SlottedPage::Compact() {
  int slots = slot_count();
  std::vector<std::pair<int, std::string>> live;
  live.reserve(slots);
  for (int i = 0; i < slots; ++i) {
    uint16_t offset = ReadU16(SlotOffsetPos(i));
    if (offset == 0) continue;
    uint16_t len = ReadU16(SlotLengthPos(i));
    live.emplace_back(i, std::string(data_ + offset, len));
  }
  int free_end = static_cast<int>(kPageSize);
  for (const auto& [slot, bytes] : live) {
    free_end -= static_cast<int>(bytes.size());
    std::memcpy(data_ + free_end, bytes.data(), bytes.size());
    WriteU16(SlotOffsetPos(slot), static_cast<uint16_t>(free_end));
    WriteU16(SlotLengthPos(slot), static_cast<uint16_t>(bytes.size()));
  }
  WriteU16(kFreeEndPos, static_cast<uint16_t>(free_end));
  WriteU16(kGarbagePos, 0);
}

}  // namespace sim
