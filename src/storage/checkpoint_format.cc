#include "storage/checkpoint_format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/macros.h"

namespace nextmaint {
namespace storage {

namespace {

/// Slice-by-8 tables for the reflected IEEE polynomial: table[0] is the
/// classic bytewise table, and table[k][b] is the CRC of byte b followed
/// by k zero bytes, so one step folds eight input bytes with eight
/// independent lookups instead of a chain of eight dependent ones.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = table[k - 1][i];
      table[k][i] = table[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return table;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

/// Four bytes as a little-endian word, on any host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const uint32_t lo = crc ^ LoadLe32(data.data() + i);
    const uint32_t hi = LoadLe32(data.data() + i + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

Status ByteParser::Need(size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::DataLoss("truncated record: need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) +
                            ", have " + std::to_string(data_.size() - pos_));
  }
  return Status::OK();
}

Status ByteParser::ReadU16(uint16_t* out) {
  NM_RETURN_NOT_OK(Need(2));
  *out = static_cast<uint16_t>(data_[pos_]) |
         static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return Status::OK();
}

Status ByteParser::ReadU32(uint32_t* out) {
  NM_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteParser::ReadU64(uint64_t* out) {
  NM_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteParser::ReadI64(int64_t* out) {
  uint64_t raw = 0;
  NM_RETURN_NOT_OK(ReadU64(&raw));
  *out = static_cast<int64_t>(raw);
  return Status::OK();
}

Status ByteParser::ReadF64(double* out) {
  uint64_t raw = 0;
  NM_RETURN_NOT_OK(ReadU64(&raw));
  *out = std::bit_cast<double>(raw);
  return Status::OK();
}

Status ByteParser::ReadBytes(size_t n, std::string* out) {
  NM_RETURN_NOT_OK(Need(n));
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return Status::OK();
}

Status ByteParser::Skip(size_t n) {
  NM_RETURN_NOT_OK(Need(n));
  pos_ += n;
  return Status::OK();
}

std::string EncodeSuperblockSlot(const SuperblockSlot& slot) {
  std::string out;
  out.reserve(kSuperblockSlotBytes);
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendU32(&out, kCheckpointVersion);
  AppendU32(&out, slot.vehicle_count);
  AppendU64(&out, slot.generation);
  AppendU64(&out, slot.index_offset);
  AppendU64(&out, slot.index_size);
  AppendU32(&out, slot.index_crc32);
  AppendU64(&out, slot.file_used);
  out.append(kSuperblockSlotBytes - 4 - out.size(), '\0');
  AppendU32(&out, Crc32(out));
  NM_CHECK(out.size() == kSuperblockSlotBytes);
  return out;
}

Result<SuperblockSlot> DecodeSuperblockSlot(std::span<const uint8_t> buf) {
  if (buf.size() != kSuperblockSlotBytes) {
    return Status::DataLoss("superblock slot is " + std::to_string(buf.size()) +
                            " bytes, expected " +
                            std::to_string(kSuperblockSlotBytes));
  }
  if (std::memcmp(buf.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return Status::DataLoss("bad checkpoint magic");
  }
  // The slot CRC covers everything before its own trailing 4 bytes; check
  // it first so all later field validation runs on bytes known to be the
  // ones a writer committed.
  ByteParser tail(buf.subspan(kSuperblockSlotBytes - 4));
  uint32_t stored_crc = 0;
  NM_RETURN_NOT_OK(tail.ReadU32(&stored_crc));
  const uint32_t actual_crc = Crc32(buf.first(kSuperblockSlotBytes - 4));
  if (stored_crc != actual_crc) {
    return Status::DataLoss("superblock slot CRC mismatch");
  }
  ByteParser parser(buf.subspan(sizeof(kCheckpointMagic)));
  uint32_t version = 0;
  SuperblockSlot slot;
  NM_RETURN_NOT_OK(parser.ReadU32(&version));
  NM_RETURN_NOT_OK(parser.ReadU32(&slot.vehicle_count));
  NM_RETURN_NOT_OK(parser.ReadU64(&slot.generation));
  NM_RETURN_NOT_OK(parser.ReadU64(&slot.index_offset));
  NM_RETURN_NOT_OK(parser.ReadU64(&slot.index_size));
  NM_RETURN_NOT_OK(parser.ReadU32(&slot.index_crc32));
  NM_RETURN_NOT_OK(parser.ReadU64(&slot.file_used));
  if (version != kCheckpointVersion) {
    return Status::DataLoss("unsupported checkpoint version " +
                            std::to_string(version));
  }
  if (slot.generation == 0) {
    return Status::DataLoss("superblock slot has generation 0");
  }
  if (slot.index_offset < kDataRegionOffset ||
      slot.index_size > slot.file_used ||
      slot.index_offset > slot.file_used - slot.index_size) {
    return Status::DataLoss("superblock index span escapes the data region");
  }
  if (static_cast<uint64_t>(slot.vehicle_count) * kMinIndexEntryBytes >
      slot.index_size) {
    return Status::DataLoss("vehicle count " +
                            std::to_string(slot.vehicle_count) +
                            " cannot fit the committed index");
  }
  return slot;
}

std::string EncodeSegmentIndex(const std::vector<SegmentIndexEntry>& entries) {
  std::string out;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SegmentIndexEntry& entry = entries[i];
    NM_CHECK_MSG(entry.vehicle_id.size() <= kMaxNameBytes &&
                     entry.model_name.size() <= kMaxNameBytes,
                 "index entry name exceeds kMaxNameBytes");
    NM_CHECK_MSG(i == 0 || entries[i - 1].vehicle_id < entry.vehicle_id,
                 "index entries must be sorted by vehicle id");
    AppendU16(&out, static_cast<uint16_t>(entry.vehicle_id.size()));
    out.append(entry.vehicle_id);
    AppendU16(&out, static_cast<uint16_t>(entry.model_name.size()));
    out.append(entry.model_name);
    AppendU64(&out, entry.segment_offset);
    AppendU64(&out, entry.payload_size);
    AppendU32(&out, entry.payload_crc32);
  }
  return out;
}

Result<std::vector<SegmentIndexEntry>> DecodeSegmentIndex(
    std::span<const uint8_t> buf, uint32_t vehicle_count,
    uint64_t file_limit) {
  ByteParser parser(buf);
  std::vector<SegmentIndexEntry> entries;
  // Cap the reservation by what the bytes could possibly hold: a corrupt
  // vehicle_count must fail on parse, not force a giant allocation first.
  entries.reserve(std::min<size_t>(vehicle_count,
                                   buf.size() / kMinIndexEntryBytes));
  for (uint32_t i = 0; i < vehicle_count; ++i) {
    SegmentIndexEntry entry;
    uint16_t id_len = 0;
    NM_RETURN_NOT_OK(parser.ReadU16(&id_len));
    if (id_len > kMaxNameBytes) {
      return Status::DataLoss("vehicle id length " + std::to_string(id_len) +
                              " exceeds the format cap");
    }
    NM_RETURN_NOT_OK(parser.ReadBytes(id_len, &entry.vehicle_id));
    uint16_t name_len = 0;
    NM_RETURN_NOT_OK(parser.ReadU16(&name_len));
    if (name_len > kMaxNameBytes) {
      return Status::DataLoss("model name length " + std::to_string(name_len) +
                              " exceeds the format cap");
    }
    NM_RETURN_NOT_OK(parser.ReadBytes(name_len, &entry.model_name));
    NM_RETURN_NOT_OK(parser.ReadU64(&entry.segment_offset));
    NM_RETURN_NOT_OK(parser.ReadU64(&entry.payload_size));
    NM_RETURN_NOT_OK(parser.ReadU32(&entry.payload_crc32));
    if (entry.segment_offset < kDataRegionOffset ||
        entry.payload_size > file_limit ||
        entry.segment_offset > file_limit - entry.payload_size) {
      return Status::DataLoss("segment for '" + entry.vehicle_id +
                              "' escapes the committed data region");
    }
    if (!entries.empty() && entries.back().vehicle_id >= entry.vehicle_id) {
      return Status::DataLoss("index entries out of order at '" +
                              entry.vehicle_id + "'");
    }
    entries.push_back(std::move(entry));
  }
  if (!parser.AtEnd()) {
    return Status::DataLoss("trailing bytes after the last index entry");
  }
  return entries;
}

}  // namespace storage
}  // namespace nextmaint
