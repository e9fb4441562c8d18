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
/// Compacted binary fleet corpus (format "NMCORP1"): per-vehicle column
/// blocks behind summary headers.
///
/// Fleet CSVs are convenient to produce but expensive to serve from: every
/// pipeline start re-parses text for the whole fleet, and cold-start
/// similarity needs each candidate's first-half-cycle usage — which the
/// CSV path can only get by loading the full series. The compactor
/// (CLI `compact`, following LightGBM's two-pass dataset_loader design)
/// converts a CSV directory into one binary file:
///
///     offset 0    superblock (64 bytes: magic, counts, index span, T_v)
///     offset 64   column blocks, one per vehicle (dense daily f64 usage)
///     tail        summary index: id, first day, day count, usage moments,
///                 the first-half-cycle similarity key, block offset + CRC
///
/// `CorpusReader` mmaps the file and decodes only the summary index
/// eagerly. Cold-start similarity and corpus screening run from those
/// headers alone; a vehicle's block pages are touched (and CRC-verified)
/// only when `Series()` materializes it. All numbers little-endian; the
/// whole file is written tmp + rename, so readers never see a partial
/// corpus. Corruption surfaces as StatusCode::kDataLoss.

namespace nextmaint {
namespace storage {

/// First bytes of every compacted corpus ("NMCORP1\0").
inline constexpr char kCorpusMagic[8] = {'N', 'M', 'C', 'O', 'R', 'P', '1',
                                         '\0'};
inline constexpr uint32_t kCorpusVersion = 1;
inline constexpr size_t kCorpusSuperblockBytes = 64;

/// Header-resident facts about one vehicle — everything cold-start
/// screening needs without touching the vehicle's block.
struct CorpusVehicleSummary {
  std::string vehicle_id;
  /// Date of the first observation; day i of the block is first_day + i.
  Date first_day;
  uint32_t num_days = 0;
  double total_usage = 0.0;
  double mean_usage = 0.0;
  double max_usage = 0.0;
  /// The cold-start similarity key: utilization of the first half of the
  /// first cycle (days until cumulative usage reaches T_v/2, inclusive),
  /// computed by data::FirstHalfCycleUsage. Empty when the
  /// vehicle has not used T_v/2 yet (category "new") or the series is
  /// incomplete.
  std::vector<double> first_half_usage;
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
  /// Starts writing `path` (via `path.tmp`). `maintenance_interval_s` is
  /// the T_v the similarity keys are derived against; it is stored in the
  /// superblock so readers know which scheduling regime the headers match.
  static Result<std::unique_ptr<CorpusWriter>> Create(
      std::string path, double maintenance_interval_s);
  ~CorpusWriter();

  /// Appends one vehicle's column block and stages its summary header.
  /// (Named AddVehicle, not Add: the lint's harvested-name matching would
  /// otherwise flag unrelated void Add() overloads tree-wide.)
  [[nodiscard]] Status AddVehicle(const std::string& vehicle_id,
                                  const data::DailySeries& series);

  /// Writes the summary index and superblock, fsyncs, and renames the temp
  /// file into place. Returns the corpus size in bytes. The writer is
  /// finished afterwards (further Add/Finish calls fail).
  [[nodiscard]] Result<uint64_t> Finish();

 private:
  CorpusWriter(std::string path, std::string tmp_path, int fd, double tv);

  struct BlockEntry;

  const std::string path_;
  const std::string tmp_path_;
  int fd_;
  const double tv_;
  uint64_t tail_ = kCorpusSuperblockBytes;
  std::vector<BlockEntry> entries_;
  bool finished_ = false;
};

/// mmap-backed corpus reader: summary headers eager, blocks lazy.
class CorpusReader {
 public:
  /// Maps `path` and decodes the superblock + summary index (kDataLoss on
  /// any corruption). No block pages are touched.
  static Result<std::unique_ptr<CorpusReader>> Open(const std::string& path);

  /// The T_v the similarity keys were compacted against.
  double maintenance_interval_s() const { return tv_; }

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
  double tv_ = 0.0;
  std::vector<CorpusVehicleSummary> summaries_;
  /// Parallel to summaries_: where each vehicle's block lives.
  std::vector<BlockRef> blocks_;
};

}  // namespace storage
}  // namespace nextmaint

#endif  // NEXTMAINT_STORAGE_CORPUS_H_
