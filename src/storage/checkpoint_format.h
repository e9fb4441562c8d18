#ifndef NEXTMAINT_STORAGE_CHECKPOINT_FORMAT_H_
#define NEXTMAINT_STORAGE_CHECKPOINT_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

/// \file checkpoint_format.h
/// On-disk layout of the segmented fleet checkpoint (format "NMCKPT1").
///
/// The earlier checkpoint was one monolithic text stream: loading it parsed
/// every model eagerly, and updating one vehicle rewrote the fleet. The
/// segmented format makes both operations proportional to what actually
/// changed, while keeping crash safety:
///
///     offset 0    superblock slot A (64 bytes)
///     offset 64   superblock slot B (64 bytes)
///     offset 128  data region: segments and index copies, append-only
///
/// A *segment* is one vehicle's opaque model payload (the same text bytes
/// `Regressor::Save` emits — storage never parses models). The *index* is a
/// sorted table of (vehicle id, model name, segment offset/size/crc32)
/// entries. A *superblock slot* names the committed index; the two slots
/// alternate shadow-paging style:
///
///  - A full SaveAll writes a fresh tmp file (slot A = generation 1,
///    slot B zeroed) and renames it into place, so a reader sees either
///    the previous complete file or the new one.
///  - A single-vehicle update appends the new segment and a new index copy
///    to the data region, then publishes them by overwriting the *other*
///    slot with generation + 1. Readers take the valid slot with the
///    highest generation, so a torn commit is invisible: old segments, the
///    old index and the old slot are never modified in place.
///
/// Everything multi-byte is little-endian. Each slot carries a CRC32 over
/// its first 60 bytes; the index and every segment carry their own CRC32.
/// Decoders in this header are pure span -> struct functions so the fuzz
/// suite (tests/storage/) can hammer them without touching a filesystem,
/// mirroring the wire-protocol decoders (serve/protocol.h). Corruption is
/// reported as StatusCode::kDataLoss: bytes we previously wrote back can no
/// longer be trusted.

namespace nextmaint {
namespace storage {

/// First bytes of every segmented checkpoint ("NMCKPT1\0").
inline constexpr char kCheckpointMagic[8] = {'N', 'M', 'C', 'K',
                                             'P', 'T', '1', '\0'};
inline constexpr uint32_t kCheckpointVersion = 1;
/// One superblock slot, encoded.
inline constexpr size_t kSuperblockSlotBytes = 64;
/// Start of the append-only data region (after the two slots).
inline constexpr uint64_t kDataRegionOffset = 2 * kSuperblockSlotBytes;
/// Upper bound on vehicle-id / model-name bytes in an index entry; a
/// decoded length beyond it is corruption, not a huge allocation.
inline constexpr size_t kMaxNameBytes = 1024;
/// Encoded size floor of one index entry (empty id and name).
inline constexpr size_t kMinIndexEntryBytes = 2 + 2 + 8 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected) over `data`: a portable slice-by-8
/// table kernel, equal to the bytewise algorithm on every input.
uint32_t Crc32(std::span<const uint8_t> data);
inline uint32_t Crc32(const std::string& data) {
  return Crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

/// Little-endian primitive appenders, shared with the corpus format.
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);
void AppendF64(std::string* out, double v);

/// Bounds-checked little-endian reader over an immutable byte span.
/// Truncation surfaces as kDataLoss (the caller is decoding bytes this
/// library previously wrote).
class ByteParser {
 public:
  explicit ByteParser(std::span<const uint8_t> data) : data_(data) {}

  [[nodiscard]] Status ReadU16(uint16_t* out);
  [[nodiscard]] Status ReadU32(uint32_t* out);
  [[nodiscard]] Status ReadU64(uint64_t* out);
  [[nodiscard]] Status ReadI64(int64_t* out);
  [[nodiscard]] Status ReadF64(double* out);
  /// Reads `n` raw bytes into `out`.
  [[nodiscard]] Status ReadBytes(size_t n, std::string* out);
  /// Skips `n` bytes.
  [[nodiscard]] Status Skip(size_t n);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] Status Need(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Decoded superblock slot. `generation` 0 never occurs in a valid slot.
struct SuperblockSlot {
  uint32_t vehicle_count = 0;
  uint64_t generation = 0;
  /// Absolute file offset / byte size of the committed index.
  uint64_t index_offset = 0;
  uint64_t index_size = 0;
  uint32_t index_crc32 = 0;
  /// Offset of the first free byte; appends resume here. Everything the
  /// committed index references lies below it.
  uint64_t file_used = 0;
};

/// One committed vehicle segment.
struct SegmentIndexEntry {
  std::string vehicle_id;
  std::string model_name;
  /// Absolute file offset of the payload bytes.
  uint64_t segment_offset = 0;
  uint64_t payload_size = 0;
  uint32_t payload_crc32 = 0;
};

/// Encodes one superblock slot (exactly kSuperblockSlotBytes, CRC filled).
std::string EncodeSuperblockSlot(const SuperblockSlot& slot);

/// Decodes and validates one superblock slot: magic, version, slot CRC,
/// generation > 0, and internal consistency (index inside
/// [kDataRegionOffset, file_used], count vs index size). kDataLoss on any
/// violation. `buf` must be exactly kSuperblockSlotBytes.
[[nodiscard]] Result<SuperblockSlot> DecodeSuperblockSlot(
    std::span<const uint8_t> buf);

/// Encodes the index for `entries` (must be sorted by vehicle_id,
/// duplicate-free — NM_CHECKed).
std::string EncodeSegmentIndex(const std::vector<SegmentIndexEntry>& entries);

/// Decodes an index of `vehicle_count` entries from `buf` (the exact
/// committed index bytes; the caller has already verified `index_crc32`).
/// Validates strict vehicle-id ordering, name caps, and that every segment
/// lies inside [kDataRegionOffset, file_limit). kDataLoss on any violation.
[[nodiscard]] Result<std::vector<SegmentIndexEntry>> DecodeSegmentIndex(
    std::span<const uint8_t> buf, uint32_t vehicle_count, uint64_t file_limit);

}  // namespace storage
}  // namespace nextmaint

#endif  // NEXTMAINT_STORAGE_CHECKPOINT_FORMAT_H_
