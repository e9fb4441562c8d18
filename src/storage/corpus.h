#ifndef NEXTMAINT_STORAGE_CORPUS_H_
#define NEXTMAINT_STORAGE_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "data/time_series.h"
#include "storage/checkpoint_store.h"

/// \file corpus.h
/// Compacted binary fleet corpus (format "NMCORP1", version 2): per-vehicle
/// column blocks behind a small index.
///
/// Fleet CSVs are convenient to produce but expensive to serve from: every
/// pipeline start re-parses text for the whole fleet. The compactor (CLI
/// `compact`, following LightGBM's two-pass dataset_loader design)
/// converts a CSV directory into one binary file:
///
///     offset 0    superblock (64 bytes: magic, version, counts, index span)
///     offset 64   column blocks, one per vehicle (dense daily f64 usage)
///     tail        index: id, first day, day count, block offset + CRC
///
/// `CorpusReader` mmaps the file and decodes only the index eagerly; a
/// vehicle's block pages are touched (and CRC-verified) only when
/// `Series()` materializes it. All numbers little-endian; the whole file is
/// written tmp + rename, so readers never see a partial corpus. Corruption,
/// and a file of any other version, surfaces as StatusCode::kDataLoss.

namespace nextmaint {
namespace storage {

/// First bytes of every compacted corpus ("NMCORP1\0").
inline constexpr char kCorpusMagic[8] = {'N', 'M', 'C', 'O', 'R', 'P', '1',
                                         '\0'};
inline constexpr uint32_t kCorpusVersion = 2;
inline constexpr size_t kCorpusSuperblockBytes = 64;

/// Index facts about one vehicle.
struct CorpusVehicleSummary {
  std::string vehicle_id;
  /// Date of the first observation; day i of the block is first_day + i.
  Date first_day;
  uint32_t num_days = 0;
};

/// True when `path` starts with the corpus magic; kMissing-like paths are
/// IOError (the CLI uses this to route `--data FILE` vs `--data DIR`).
[[nodiscard]] Result<bool> IsCorpusFile(const std::string& path);

/// Streaming corpus writer: one vehicle resident at a time, summaries and
/// block layout accumulated in memory, file published atomically by
/// Finish(). Vehicles must be added in strictly ascending id order (the
/// compactor sorts its CSV worklist, which gives byte-deterministic
/// output).
class CorpusWriter {
 public:
  /// Starts writing `path` (via `path.tmp`).
  static Result<std::unique_ptr<CorpusWriter>> Create(std::string path);
  ~CorpusWriter();

  /// Appends one vehicle's column block and stages its index entry.
  [[nodiscard]] Status AddVehicle(const std::string& vehicle_id,
                                  const data::DailySeries& series);

  /// Writes the index and superblock, fsyncs, and renames the temp
  /// file into place. Returns the corpus size in bytes. The writer is
  /// finished afterwards (further AddVehicle/Finish calls fail).
  [[nodiscard]] Result<uint64_t> Finish();

 private:
  CorpusWriter(std::string path, std::string tmp_path, int fd);

  struct BlockEntry;

  const std::string path_;
  const std::string tmp_path_;
  int fd_;
  uint64_t tail_ = kCorpusSuperblockBytes;
  std::vector<BlockEntry> entries_;
  bool finished_ = false;
};

/// mmap-backed corpus reader: index eager, blocks lazy.
class CorpusReader {
 public:
  /// Maps `path` and decodes the superblock + index (kDataLoss on any
  /// corruption, and on a corpus of another version: regenerate it with
  /// `nextmaint compact`). No block pages are touched.
  static Result<std::unique_ptr<CorpusReader>> Open(const std::string& path);

  /// All vehicle summaries, sorted by id.
  const std::vector<CorpusVehicleSummary>& summaries() const {
    return summaries_;
  }

  /// Summary of one vehicle; NotFound for absent ids.
  [[nodiscard]] Result<const CorpusVehicleSummary*> Summary(
      const std::string& vehicle_id) const;

  /// Materializes one vehicle's daily series from its column block. This
  /// is the first (and only) point the block's pages are read; the block
  /// CRC is verified here. NotFound for absent ids.
  [[nodiscard]] Result<data::DailySeries> Series(
      const std::string& vehicle_id) const;

 private:
  struct BlockRef {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc32 = 0;
  };

  CorpusReader() = default;

  std::shared_ptr<const MappedFile> file_;
  std::vector<CorpusVehicleSummary> summaries_;
  /// Parallel to summaries_: where each vehicle's block lives.
  std::vector<BlockRef> blocks_;
};

}  // namespace storage
}  // namespace nextmaint

#endif  // NEXTMAINT_STORAGE_CORPUS_H_
