#include "storage/checkpoint_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/failpoints.h"
#include "common/macros.h"
#include "common/parallel.h"

namespace nextmaint {
namespace storage {

namespace {

/// RAII fd so every error return path closes.
class FileHandle {
 public:
  explicit FileHandle(int fd) : fd_(fd) {}
  ~FileHandle() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_;
};

[[nodiscard]] Status WriteAll(int fd, const void* data, size_t size,
                              const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

[[nodiscard]] Status PwriteAll(int fd, const void* data, size_t size,
                               uint64_t offset, const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

[[nodiscard]] Status PreadAll(int fd, void* data, size_t size, uint64_t offset,
                              const std::string& path) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread from '" + path +
                             "' failed: " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::DataLoss("'" + path + "' is shorter than its committed " +
                              "state claims");
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

[[nodiscard]] Status FsyncFile(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync of '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

/// Picks the valid superblock slot with the highest generation out of the
/// two raw 128 leading bytes. kDataLoss (first slot's diagnosis) when
/// neither slot validates.
Result<SuperblockSlot> PickSuperblock(std::span<const uint8_t> head) {
  NM_CHECK(head.size() >= kDataRegionOffset);
  Result<SuperblockSlot> a =
      DecodeSuperblockSlot(head.first(kSuperblockSlotBytes));
  Result<SuperblockSlot> b = DecodeSuperblockSlot(
      head.subspan(kSuperblockSlotBytes, kSuperblockSlotBytes));
  if (a.ok() && b.ok()) {
    return a.ValueOrDie().generation >= b.ValueOrDie().generation ? a : b;
  }
  if (a.ok()) return a;
  if (b.ok()) return b;
  return a.status().WithContext("no valid superblock slot");
}

/// Validates the committed index bytes against the superblock CRC and
/// decodes it.
Result<std::vector<SegmentIndexEntry>> DecodeCommittedIndex(
    const SuperblockSlot& slot, std::span<const uint8_t> index_bytes) {
  if (Crc32(index_bytes) != slot.index_crc32) {
    return Status::DataLoss("segment index CRC mismatch");
  }
  return DecodeSegmentIndex(index_bytes, slot.vehicle_count, slot.file_used);
}

[[nodiscard]] Status CheckRecordNames(const VehicleRecord& record) {
  if (record.vehicle_id.empty() || record.vehicle_id.size() > kMaxNameBytes ||
      record.model_name.size() > kMaxNameBytes) {
    return Status::InvalidArgument("vehicle id/model name of '" +
                                   record.vehicle_id +
                                   "' is empty or exceeds the format cap");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const MappedFile>> MappedFile::Map(
    const std::string& path) {
  NEXTMAINT_FAILPOINT("storage.checkpoint.open");
  FileHandle fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.ok()) {
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size < kDataRegionOffset) {
    return Status::DataLoss("'" + path + "' is too short to hold a " +
                            "checkpoint superblock");
  }
  NEXTMAINT_FAILPOINT("storage.checkpoint.map");
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  if (mapped == MAP_FAILED) {
    return Status::IOError("cannot mmap '" + path +
                           "': " + std::strerror(errno));
  }
  // Private-constructor factory, so make_shared cannot reach it.
  return std::shared_ptr<const MappedFile>(
      new MappedFile(  // nextmaint-lint: allow(naked-new)
          static_cast<const uint8_t*>(mapped), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

Result<std::string_view> SegmentView::Payload() const {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("empty segment view");
  }
  const std::span<const uint8_t> bytes = file_->bytes();
  NM_CHECK(offset_ <= bytes.size() && size_ <= bytes.size() - offset_);
  const std::span<const uint8_t> payload = bytes.subspan(offset_, size_);
  if (Crc32(payload) != crc32_) {
    return Status::DataLoss(
        "segment CRC mismatch (torn or bit-flipped payload)");
  }
  return std::string_view(reinterpret_cast<const char*>(payload.data()),
                          payload.size());
}

Result<CheckpointFormat> SniffCheckpointFormat(const std::string& path) {
  FileHandle fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.ok()) {
    if (errno == ENOENT) return CheckpointFormat::kMissing;
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  char head[16] = {};
  ssize_t n;
  do {
    n = ::pread(fd.get(), head, sizeof(head), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IOError("cannot read '" + path +
                           "': " + std::strerror(errno));
  }
  if (static_cast<size_t>(n) >= sizeof(kCheckpointMagic) &&
      std::memcmp(head, kCheckpointMagic, sizeof(kCheckpointMagic)) == 0) {
    return CheckpointFormat::kSegmented;
  }
  return CheckpointFormat::kUnrecognized;
}

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    std::string path) {
  if (path.empty()) {
    return Status::InvalidArgument("checkpoint path must not be empty");
  }
  // Private-constructor factory, so make_unique cannot reach it.
  return std::unique_ptr<CheckpointStore>(
      new CheckpointStore(std::move(path)));  // nextmaint-lint: allow(naked-new)
}

Result<CheckpointManifest> CheckpointStore::Load() {
  NM_ASSIGN_OR_RETURN(CheckpointFormat format, SniffCheckpointFormat(path_));
  switch (format) {
    case CheckpointFormat::kMissing:
      return Status::IOError("cannot open '" + path_ + "' for reading");
    case CheckpointFormat::kUnrecognized:
      return Status::DataLoss("'" + path_ + "' is not a checkpoint " +
                              "(garbage superblock)");
    case CheckpointFormat::kSegmented:
      break;
  }
  NM_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                      MappedFile::Map(path_));
  const std::span<const uint8_t> bytes = file->bytes();
  Result<SuperblockSlot> slot_result = PickSuperblock(bytes);
  if (!slot_result.ok()) return slot_result.status().WithContext(path_);
  const SuperblockSlot slot = std::move(slot_result).ValueOrDie();
  if (slot.file_used > bytes.size()) {
    return Status::DataLoss("'" + path_ + "' truncated below its committed " +
                            "size (" + std::to_string(slot.file_used) +
                            " bytes committed, " +
                            std::to_string(bytes.size()) + " on disk)");
  }
  Result<std::vector<SegmentIndexEntry>> index_result = DecodeCommittedIndex(
      slot, bytes.subspan(slot.index_offset, slot.index_size));
  if (!index_result.ok()) return index_result.status().WithContext(path_);
  std::vector<SegmentIndexEntry> entries =
      std::move(index_result).ValueOrDie();
  CheckpointManifest manifest;
  manifest.generation = slot.generation;
  manifest.vehicles.reserve(entries.size());
  for (SegmentIndexEntry& entry : entries) {
    ManifestEntry out;
    out.vehicle_id = std::move(entry.vehicle_id);
    out.model_name = std::move(entry.model_name);
    out.segment = SegmentView(file, entry.segment_offset, entry.payload_size,
                              entry.payload_crc32);
    manifest.vehicles.push_back(std::move(out));
  }
  return manifest;
}

Result<uint64_t> CheckpointStore::SaveAll(std::vector<VehicleRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const VehicleRecord& a, const VehicleRecord& b) {
              return a.vehicle_id < b.vehicle_id;
            });
  // The CRCs are the only pass over every payload byte before the write,
  // so they run in parallel; the index loop below stays serial.
  std::vector<uint32_t> crcs(records.size());
  NM_RETURN_NOT_OK(ParallelFor(
      0, records.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          crcs[i] = Crc32(records[i].payload);
        }
        return Status::OK();
      }));
  std::vector<SegmentIndexEntry> entries;
  entries.reserve(records.size());
  uint64_t offset = kDataRegionOffset;
  for (size_t i = 0; i < records.size(); ++i) {
    const VehicleRecord& record = records[i];
    NM_RETURN_NOT_OK(CheckRecordNames(record));
    if (i > 0 && records[i - 1].vehicle_id == record.vehicle_id) {
      return Status::InvalidArgument("duplicate vehicle '" +
                                     record.vehicle_id + "' in SaveAll");
    }
    SegmentIndexEntry entry;
    entry.vehicle_id = record.vehicle_id;
    entry.model_name = record.model_name;
    entry.segment_offset = offset;
    entry.payload_size = record.payload.size();
    entry.payload_crc32 = crcs[i];
    offset += entry.payload_size;
    entries.push_back(std::move(entry));
  }
  const std::string index = EncodeSegmentIndex(entries);
  SuperblockSlot slot;
  slot.vehicle_count = static_cast<uint32_t>(entries.size());
  slot.generation = 1;
  slot.index_offset = offset;
  slot.index_size = index.size();
  slot.index_crc32 = Crc32(index);
  slot.file_used = offset + index.size();

  // Everything goes to `path.tmp`, which replaces `path` only after a
  // successful fsync. A failure at any seam removes the temp file and
  // leaves the previous checkpoint intact.
  const std::string tmp_path = path_ + ".tmp";
  Status status = [&]() -> Status {
    NEXTMAINT_FAILPOINT("storage.checkpoint.open");
    FileHandle fd(::open(tmp_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (!fd.ok()) {
      return Status::IOError("cannot open '" + tmp_path +
                             "' for writing: " + std::strerror(errno));
    }
    const std::string slot_a = EncodeSuperblockSlot(slot);
    const std::string slot_b(kSuperblockSlotBytes, '\0');
    NM_RETURN_NOT_OK(WriteAll(fd.get(), slot_a.data(), slot_a.size(),
                              tmp_path));
    NM_RETURN_NOT_OK(WriteAll(fd.get(), slot_b.data(), slot_b.size(),
                              tmp_path));
    for (const VehicleRecord& record : records) {
      NEXTMAINT_FAILPOINT("storage.checkpoint.segment_write");
      NM_RETURN_NOT_OK(WriteAll(fd.get(), record.payload.data(),
                                record.payload.size(), tmp_path));
    }
    NM_RETURN_NOT_OK(WriteAll(fd.get(), index.data(), index.size(), tmp_path));
    NEXTMAINT_FAILPOINT("storage.checkpoint.commit");
    NM_RETURN_NOT_OK(FsyncFile(fd.get(), tmp_path));
    return Status::OK();
  }();
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status.WithContext(path_);
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename '" + tmp_path + "' to '" + path_ +
                           "'");
  }

  MutexLock lock(mu_);
  committed_loaded_ = true;
  committed_ = slot;
  committed_index_ = std::move(entries);
  staged_.clear();
  staged_tail_ = slot.file_used;
  return slot.generation;
}

Status CheckpointStore::RefreshCommittedState() {
  NEXTMAINT_FAILPOINT("storage.checkpoint.open");
  NM_ASSIGN_OR_RETURN(CheckpointFormat format, SniffCheckpointFormat(path_));
  if (format == CheckpointFormat::kMissing) {
    return Status::FailedPrecondition(
        "'" + path_ + "' has no segmented checkpoint to update; write one "
        "with SaveAll first");
  }
  if (format == CheckpointFormat::kUnrecognized) {
    return Status::DataLoss("'" + path_ + "' is not a checkpoint " +
                            "(garbage superblock)");
  }
  FileHandle fd(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.ok()) {
    return Status::IOError("cannot open '" + path_ +
                           "' for reading: " + std::strerror(errno));
  }
  uint8_t head[kDataRegionOffset] = {};
  NM_RETURN_NOT_OK(PreadAll(fd.get(), head, sizeof(head), 0, path_));
  NM_ASSIGN_OR_RETURN(SuperblockSlot slot,
                      PickSuperblock(std::span<const uint8_t>(head)));
  std::string index_bytes;
  index_bytes.resize(slot.index_size);
  NM_RETURN_NOT_OK(PreadAll(fd.get(), index_bytes.data(), index_bytes.size(),
                            slot.index_offset, path_));
  NM_ASSIGN_OR_RETURN(
      std::vector<SegmentIndexEntry> entries,
      DecodeCommittedIndex(
          slot, std::span<const uint8_t>(
                    reinterpret_cast<const uint8_t*>(index_bytes.data()),
                    index_bytes.size())));
  committed_ = slot;
  committed_index_ = std::move(entries);
  staged_.clear();
  staged_tail_ = slot.file_used;
  committed_loaded_ = true;
  return Status::OK();
}

Status CheckpointStore::SaveVehicle(const VehicleRecord& record) {
  NM_RETURN_NOT_OK(CheckRecordNames(record));
  MutexLock lock(mu_);
  if (!committed_loaded_) {
    NM_RETURN_NOT_OK(RefreshCommittedState().WithContext(path_));
  }
  FileHandle fd(::open(path_.c_str(), O_WRONLY | O_CLOEXEC));
  if (!fd.ok()) {
    return Status::IOError("cannot open '" + path_ +
                           "' for writing: " + std::strerror(errno));
  }
  NEXTMAINT_FAILPOINT("storage.checkpoint.segment_write");
  NM_RETURN_NOT_OK(PwriteAll(fd.get(), record.payload.data(),
                             record.payload.size(), staged_tail_, path_));
  SegmentIndexEntry entry;
  entry.vehicle_id = record.vehicle_id;
  entry.model_name = record.model_name;
  entry.segment_offset = staged_tail_;
  entry.payload_size = record.payload.size();
  entry.payload_crc32 = Crc32(record.payload);
  staged_tail_ += entry.payload_size;
  // Restaging a vehicle before Commit keeps the newest payload; the
  // superseded append becomes an unreferenced orphan past file_used.
  auto it = std::find_if(staged_.begin(), staged_.end(),
                         [&](const SegmentIndexEntry& staged) {
                           return staged.vehicle_id == record.vehicle_id;
                         });
  if (it != staged_.end()) {
    *it = std::move(entry);
  } else {
    staged_.push_back(std::move(entry));
  }
  return Status::OK();
}

Result<uint64_t> CheckpointStore::Commit() {
  MutexLock lock(mu_);
  if (!committed_loaded_) {
    NM_RETURN_NOT_OK(RefreshCommittedState().WithContext(path_));
  }
  if (staged_.empty()) return committed_.generation;

  // Merge staged entries over the committed index (staged wins), keeping
  // the sorted order the format requires.
  std::vector<SegmentIndexEntry> merged = committed_index_;
  for (const SegmentIndexEntry& staged : staged_) {
    auto it = std::lower_bound(
        merged.begin(), merged.end(), staged,
        [](const SegmentIndexEntry& a, const SegmentIndexEntry& b) {
          return a.vehicle_id < b.vehicle_id;
        });
    if (it != merged.end() && it->vehicle_id == staged.vehicle_id) {
      *it = staged;
    } else {
      merged.insert(it, staged);
    }
  }
  const std::string index = EncodeSegmentIndex(merged);
  SuperblockSlot slot;
  slot.vehicle_count = static_cast<uint32_t>(merged.size());
  slot.generation = committed_.generation + 1;
  slot.index_offset = staged_tail_;
  slot.index_size = index.size();
  slot.index_crc32 = Crc32(index);
  slot.file_used = staged_tail_ + index.size();

  FileHandle fd(::open(path_.c_str(), O_WRONLY | O_CLOEXEC));
  if (!fd.ok()) {
    return Status::IOError("cannot open '" + path_ +
                           "' for writing: " + std::strerror(errno));
  }
  // Publish order is what makes a torn commit invisible: (1) the merged
  // index lands past the committed tail and is fsynced, (2) only then does
  // the *alternate* superblock slot flip to the new generation. A crash
  // before (2) leaves the old slot winning; a torn slot write fails its
  // CRC and readers fall back to the old slot.
  NM_RETURN_NOT_OK(PwriteAll(fd.get(), index.data(), index.size(),
                             staged_tail_, path_));
  NEXTMAINT_FAILPOINT("storage.checkpoint.commit");
  NM_RETURN_NOT_OK(FsyncFile(fd.get(), path_));
  const std::string slot_bytes = EncodeSuperblockSlot(slot);
  const uint64_t slot_offset =
      ((slot.generation - 1) % 2) * kSuperblockSlotBytes;
  NM_RETURN_NOT_OK(PwriteAll(fd.get(), slot_bytes.data(), slot_bytes.size(),
                             slot_offset, path_));
  NM_RETURN_NOT_OK(FsyncFile(fd.get(), path_));

  committed_ = slot;
  committed_index_ = std::move(merged);
  staged_.clear();
  staged_tail_ = slot.file_used;
  return slot.generation;
}

}  // namespace storage
}  // namespace nextmaint
