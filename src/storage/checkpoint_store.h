#ifndef NEXTMAINT_STORAGE_CHECKPOINT_STORE_H_
#define NEXTMAINT_STORAGE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/checkpoint_format.h"

/// \file checkpoint_store.h
/// The fleet checkpoint surface: segmented, mmap-able, lazily loadable.
///
/// `CheckpointStore` is the one API the scheduler, serving engine and CLI
/// persist fleet model state through (docs/storage.md). It treats model
/// payloads as opaque byte blobs — (de)serialization stays with the owner —
/// which is what lets storage sit below core in the layer graph.
///
///   Open        bind a store to a path (the file need not exist yet)
///   Load        mmap the committed checkpoint; returns lazy segment views
///   SaveAll     atomically replace the checkpoint (tmp + rename)
///   SaveVehicle stage one vehicle's new payload (appended, uncommitted)
///   Commit      publish staged segments via the alternate superblock slot
///
/// Failure seams carry the storage.checkpoint.{open,map,segment_write,
/// commit} failpoints (docs/fault-injection.md). Corrupt committed state —
/// bad magic, torn superblock, CRC mismatch, truncated segment — surfaces
/// as StatusCode::kDataLoss.

namespace nextmaint {
namespace storage {

/// One vehicle's model payload as the owner serialized it.
struct VehicleRecord {
  std::string vehicle_id;
  std::string model_name;
  std::string payload;
};

/// A read-only mmap of a checkpoint file. Segment views alias into it, so
/// it stays alive (shared_ptr) until the last view is gone.
class MappedFile {
 public:
  /// mmaps `path` read-only. The fd is closed after mapping.
  static Result<std::shared_ptr<const MappedFile>> Map(
      const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const uint8_t> bytes() const {
    return std::span<const uint8_t>(data_, size_);
  }

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// A lazy window onto one committed segment. Holding a view keeps the
/// mapping alive; the payload bytes are only touched (and CRC-verified)
/// when Payload() is called — that is the laziness LoadCheckpoint rides on.
class SegmentView {
 public:
  SegmentView() = default;
  SegmentView(std::shared_ptr<const MappedFile> file, uint64_t offset,
              uint64_t size, uint32_t crc32)
      : file_(std::move(file)), offset_(offset), size_(size), crc32_(crc32) {}

  /// The segment's payload bytes, CRC-checked on every call (callers
  /// materialize a segment once). kDataLoss when the stored CRC does not
  /// match the mapped bytes.
  [[nodiscard]] Result<std::string_view> Payload() const;

  uint64_t size() const { return size_; }
  bool valid() const { return file_ != nullptr; }

 private:
  std::shared_ptr<const MappedFile> file_;
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
  uint32_t crc32_ = 0;
};

/// One vehicle in a loaded checkpoint: identity from the index, payload
/// lazy behind the segment view.
struct ManifestEntry {
  std::string vehicle_id;
  std::string model_name;
  SegmentView segment;
};

/// A committed checkpoint as seen by Load(): generation plus the sorted
/// vehicle manifest.
struct CheckpointManifest {
  uint64_t generation = 0;
  std::vector<ManifestEntry> vehicles;
};

/// What a checkpoint path holds.
enum class CheckpointFormat {
  kMissing,
  /// The segmented "NMCKPT1" format this store reads and writes.
  kSegmented,
  /// Anything else, including a text checkpoint from before the segmented
  /// format: Load/SaveVehicle report it as DataLoss.
  kUnrecognized,
};

/// Sniffs the on-disk format from the file's first bytes (IOError only for
/// genuinely unreadable paths; a short or empty file is kUnrecognized).
[[nodiscard]] Result<CheckpointFormat> SniffCheckpointFormat(
    const std::string& path);

/// The segmented checkpoint store. One instance per path; the internal
/// mutex serializes staged writes, so one store can be shared by a serving
/// engine's writer and background checkpointers. Distinct processes still
/// must not write one path concurrently (the tmp name and the alternate
/// slot are per-file resources).
class CheckpointStore {
 public:
  /// Binds a store to `path`. The file may be absent (SaveAll creates it;
  /// Load and SaveVehicle then fail) or not a checkpoint at all (Load and
  /// SaveVehicle then fail with DataLoss; SaveAll overwrites it).
  static Result<std::unique_ptr<CheckpointStore>> Open(std::string path);

  /// mmaps the committed checkpoint and returns its manifest with lazy
  /// segment views. The index is decoded and bounds/CRC-checked eagerly
  /// (it is small); segment payloads stay untouched until
  /// SegmentView::Payload(). kDataLoss when no valid superblock slot
  /// exists, the file is not a checkpoint, or the index is corrupt.
  [[nodiscard]] Result<CheckpointManifest> Load() EXCLUDES(mu_);

  /// Atomically replaces the checkpoint with exactly `records` (sorted
  /// internally; ids must be unique). Byte-deterministic: the same records
  /// always produce an identical file. Discards staged segments. Returns
  /// the committed generation (always 1 — a full save restarts the chain).
  /// Every payload CRC is computed here, on the default thread pool.
  [[nodiscard]] Result<uint64_t> SaveAll(std::vector<VehicleRecord> records)
      EXCLUDES(mu_);

  /// Stages one vehicle's new payload: appends the segment to the data
  /// region beyond the committed tail and records the index update in
  /// memory. Invisible to readers (and lost on crash) until Commit().
  /// FailedPrecondition when the path has no segmented checkpoint yet.
  [[nodiscard]] Status SaveVehicle(const VehicleRecord& record) EXCLUDES(mu_);

  /// Publishes every staged segment: appends the merged index, fsyncs, and
  /// flips the alternate superblock slot with generation + 1. The previous
  /// generation's superblock, index and segments are never touched, so a
  /// torn commit leaves the old checkpoint fully readable. Returns the new
  /// committed generation; no-op (current generation) when nothing is
  /// staged.
  [[nodiscard]] Result<uint64_t> Commit() EXCLUDES(mu_);

  const std::string& path() const { return path_; }

 private:
  explicit CheckpointStore(std::string path) : path_(std::move(path)) {}

  /// Reads the committed superblock + index into committed_*, refreshing
  /// the cache the write path merges staged entries against.
  [[nodiscard]] Status RefreshCommittedState() REQUIRES(mu_);

  const std::string path_;

  mutable Mutex mu_;
  /// Committed state mirror (superblock of the winning slot + its decoded
  /// index), loaded on first write-path use.
  bool committed_loaded_ GUARDED_BY(mu_) = false;
  SuperblockSlot committed_ GUARDED_BY(mu_);
  std::vector<SegmentIndexEntry> committed_index_ GUARDED_BY(mu_);
  /// Segments appended past committed_.file_used but not yet published;
  /// merged into the next Commit()'s index.
  std::vector<SegmentIndexEntry> staged_ GUARDED_BY(mu_);
  /// First free byte for the next staged append (>= committed_.file_used).
  uint64_t staged_tail_ GUARDED_BY(mu_) = 0;
};

}  // namespace storage
}  // namespace nextmaint

#endif  // NEXTMAINT_STORAGE_CHECKPOINT_STORE_H_
