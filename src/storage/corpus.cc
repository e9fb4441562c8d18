#include "storage/corpus.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/macros.h"

namespace nextmaint {
namespace storage {

namespace {

[[nodiscard]] Status WriteAllFd(int fd, const void* data, size_t size,
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

/// Superblock layout (64 bytes): magic, version, vehicle count, index
/// span + CRC, T_v, file_used, zero padding, slot CRC over bytes [0, 60).
std::string EncodeCorpusSuperblock(uint32_t vehicle_count,
                                   uint64_t index_offset, uint64_t index_size,
                                   uint32_t index_crc32, double tv,
                                   uint64_t file_used) {
  std::string out;
  out.reserve(kCorpusSuperblockBytes);
  out.append(kCorpusMagic, sizeof(kCorpusMagic));
  AppendU32(&out, kCorpusVersion);
  AppendU32(&out, vehicle_count);
  AppendU64(&out, index_offset);
  AppendU64(&out, index_size);
  AppendU32(&out, index_crc32);
  AppendF64(&out, tv);
  AppendU64(&out, file_used);
  out.append(kCorpusSuperblockBytes - 4 - out.size(), '\0');
  AppendU32(&out, Crc32(out));
  NM_CHECK(out.size() == kCorpusSuperblockBytes);
  return out;
}

struct CorpusSuperblock {
  uint32_t vehicle_count = 0;
  uint64_t index_offset = 0;
  uint64_t index_size = 0;
  uint32_t index_crc32 = 0;
  double tv = 0.0;
  uint64_t file_used = 0;
};

Result<CorpusSuperblock> DecodeCorpusSuperblock(std::span<const uint8_t> buf) {
  if (buf.size() != kCorpusSuperblockBytes) {
    return Status::DataLoss("corpus superblock is " +
                            std::to_string(buf.size()) + " bytes, expected " +
                            std::to_string(kCorpusSuperblockBytes));
  }
  if (std::memcmp(buf.data(), kCorpusMagic, sizeof(kCorpusMagic)) != 0) {
    return Status::DataLoss("bad corpus magic");
  }
  ByteParser tail(buf.subspan(kCorpusSuperblockBytes - 4));
  uint32_t stored_crc = 0;
  NM_RETURN_NOT_OK(tail.ReadU32(&stored_crc));
  if (stored_crc != Crc32(buf.first(kCorpusSuperblockBytes - 4))) {
    return Status::DataLoss("corpus superblock CRC mismatch");
  }
  ByteParser parser(buf.subspan(sizeof(kCorpusMagic)));
  uint32_t version = 0;
  CorpusSuperblock sb;
  NM_RETURN_NOT_OK(parser.ReadU32(&version));
  NM_RETURN_NOT_OK(parser.ReadU32(&sb.vehicle_count));
  NM_RETURN_NOT_OK(parser.ReadU64(&sb.index_offset));
  NM_RETURN_NOT_OK(parser.ReadU64(&sb.index_size));
  NM_RETURN_NOT_OK(parser.ReadU32(&sb.index_crc32));
  NM_RETURN_NOT_OK(parser.ReadF64(&sb.tv));
  NM_RETURN_NOT_OK(parser.ReadU64(&sb.file_used));
  if (version != kCorpusVersion) {
    return Status::DataLoss("unsupported corpus version " +
                            std::to_string(version));
  }
  if (sb.index_offset < kCorpusSuperblockBytes ||
      sb.index_size > sb.file_used ||
      sb.index_offset > sb.file_used - sb.index_size) {
    return Status::DataLoss("corpus index span escapes the data region");
  }
  return sb;
}

}  // namespace

Result<bool> IsCorpusFile(const std::string& path) {
  int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  char head[sizeof(kCorpusMagic)] = {};
  ssize_t n;
  do {
    n = ::pread(raw, head, sizeof(head), 0);
  } while (n < 0 && errno == EINTR);
  ::close(raw);
  if (n < 0) {
    return Status::IOError("cannot read '" + path +
                           "': " + std::strerror(errno));
  }
  return static_cast<size_t>(n) == sizeof(kCorpusMagic) &&
         std::memcmp(head, kCorpusMagic, sizeof(kCorpusMagic)) == 0;
}

struct CorpusWriter::BlockEntry {
  CorpusVehicleSummary summary;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

CorpusWriter::CorpusWriter(std::string path, std::string tmp_path, int fd,
                           double tv)
    : path_(std::move(path)), tmp_path_(std::move(tmp_path)), fd_(fd),
      tv_(tv) {}

CorpusWriter::~CorpusWriter() {
  // An abandoned writer (error path, no Finish) leaves no trace.
  if (fd_ >= 0) {
    ::close(fd_);
    std::remove(tmp_path_.c_str());
  }
}

Result<std::unique_ptr<CorpusWriter>> CorpusWriter::Create(
    std::string path, double maintenance_interval_s) {
  if (path.empty()) {
    return Status::InvalidArgument("corpus path must not be empty");
  }
  if (maintenance_interval_s <= 0.0) {
    return Status::InvalidArgument("maintenance_interval_s must be positive");
  }
  std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open '" + tmp_path +
                           "' for writing: " + std::strerror(errno));
  }
  // Superblock placeholder; the real one lands in Finish() once the index
  // span is known.
  const std::string placeholder(kCorpusSuperblockBytes, '\0');
  Status status = WriteAllFd(fd, placeholder.data(), placeholder.size(),
                             tmp_path);
  if (!status.ok()) {
    ::close(fd);
    std::remove(tmp_path.c_str());
    return status;
  }
  return std::unique_ptr<CorpusWriter>(
      new CorpusWriter(  // nextmaint-lint: allow(naked-new)
          std::move(path), std::move(tmp_path), fd, maintenance_interval_s));
}

Status CorpusWriter::AddVehicle(const std::string& vehicle_id,
                         const data::DailySeries& series) {
  if (finished_) {
    return Status::FailedPrecondition("corpus writer already finished");
  }
  if (vehicle_id.empty() || vehicle_id.size() > kMaxNameBytes) {
    return Status::InvalidArgument("vehicle id '" + vehicle_id +
                                   "' is empty or exceeds the format cap");
  }
  if (!entries_.empty() &&
      entries_.back().summary.vehicle_id >= vehicle_id) {
    return Status::InvalidArgument(
        "corpus vehicles must be added in ascending id order ('" +
        vehicle_id + "' after '" + entries_.back().summary.vehicle_id + "')");
  }
  std::string block;
  block.reserve(series.size() * sizeof(double));
  double total = 0.0;
  double max_usage = 0.0;
  for (size_t i = 0; i < series.size(); ++i) {
    AppendF64(&block, series[i]);
    total += series[i];
    max_usage = std::max(max_usage, series[i]);
  }
  NM_RETURN_NOT_OK(WriteAllFd(fd_, block.data(), block.size(), tmp_path_));

  BlockEntry entry;
  entry.summary.vehicle_id = vehicle_id;
  entry.summary.first_day = series.start_date();
  entry.summary.num_days = static_cast<uint32_t>(series.size());
  entry.summary.total_usage = total;
  entry.summary.mean_usage =
      series.empty() ? 0.0 : total / static_cast<double>(series.size());
  entry.summary.max_usage = max_usage;
  // Empty when the vehicle is still "new" or the series is unusable.
  entry.summary.first_half_usage =
      data::FirstHalfCycleUsage(series, tv_).ValueOr({});
  entry.offset = tail_;
  entry.size = block.size();
  entry.crc32 = Crc32(block);
  tail_ += entry.size;
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Result<uint64_t> CorpusWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("corpus writer already finished");
  }
  std::string index;
  for (const BlockEntry& entry : entries_) {
    const CorpusVehicleSummary& s = entry.summary;
    AppendU16(&index, static_cast<uint16_t>(s.vehicle_id.size()));
    index.append(s.vehicle_id);
    AppendI64(&index, s.first_day.day_number());
    AppendU64(&index, entry.offset);
    AppendU64(&index, entry.size);
    AppendU32(&index, entry.crc32);
    AppendU32(&index, s.num_days);
    AppendF64(&index, s.total_usage);
    AppendF64(&index, s.mean_usage);
    AppendF64(&index, s.max_usage);
    AppendU32(&index, static_cast<uint32_t>(s.first_half_usage.size()));
    for (double v : s.first_half_usage) AppendF64(&index, v);
  }
  const uint64_t file_used = tail_ + index.size();
  const std::string superblock = EncodeCorpusSuperblock(
      static_cast<uint32_t>(entries_.size()), tail_, index.size(),
      Crc32(index), tv_, file_used);

  Status status = [&]() -> Status {
    NM_RETURN_NOT_OK(WriteAllFd(fd_, index.data(), index.size(), tmp_path_));
    if (::pwrite(fd_, superblock.data(), superblock.size(), 0) !=
        static_cast<ssize_t>(superblock.size())) {
      return Status::IOError("cannot write corpus superblock to '" +
                             tmp_path_ + "': " + std::strerror(errno));
    }
    if (::fsync(fd_) != 0) {
      return Status::IOError("fsync of '" + tmp_path_ +
                             "' failed: " + std::strerror(errno));
    }
    return Status::OK();
  }();
  ::close(fd_);
  fd_ = -1;
  finished_ = true;
  if (!status.ok()) {
    std::remove(tmp_path_.c_str());
    return status;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::IOError("cannot rename '" + tmp_path_ + "' to '" + path_ +
                           "'");
  }
  return file_used;
}

Result<std::unique_ptr<CorpusReader>> CorpusReader::Open(
    const std::string& path) {
  NM_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                      MappedFile::Map(path));
  const std::span<const uint8_t> bytes = file->bytes();
  if (bytes.size() < kCorpusSuperblockBytes) {
    return Status::DataLoss("'" + path + "' is too short to hold a corpus " +
                            "superblock");
  }
  Result<CorpusSuperblock> sb_result =
      DecodeCorpusSuperblock(bytes.first(kCorpusSuperblockBytes));
  if (!sb_result.ok()) return sb_result.status().WithContext(path);
  const CorpusSuperblock sb = std::move(sb_result).ValueOrDie();
  if (sb.file_used > bytes.size()) {
    return Status::DataLoss("'" + path + "' truncated below its committed " +
                            "size");
  }
  const std::span<const uint8_t> index =
      bytes.subspan(sb.index_offset, sb.index_size);
  if (Crc32(index) != sb.index_crc32) {
    return Status::DataLoss("corpus index CRC mismatch in '" + path + "'");
  }

  auto reader = std::unique_ptr<CorpusReader>(
      new CorpusReader());  // nextmaint-lint: allow(naked-new)
  reader->file_ = file;
  reader->tv_ = sb.tv;
  reader->summaries_.reserve(sb.vehicle_count);
  reader->blocks_.reserve(sb.vehicle_count);
  ByteParser parser(index);
  for (uint32_t i = 0; i < sb.vehicle_count; ++i) {
    CorpusVehicleSummary summary;
    BlockRef block;
    uint16_t id_len = 0;
    NM_RETURN_NOT_OK(parser.ReadU16(&id_len));
    if (id_len == 0 || id_len > kMaxNameBytes) {
      return Status::DataLoss("corpus vehicle id length " +
                              std::to_string(id_len) +
                              " violates the format cap");
    }
    NM_RETURN_NOT_OK(parser.ReadBytes(id_len, &summary.vehicle_id));
    int64_t first_day = 0;
    NM_RETURN_NOT_OK(parser.ReadI64(&first_day));
    summary.first_day = Date::FromDayNumber(first_day);
    NM_RETURN_NOT_OK(parser.ReadU64(&block.offset));
    NM_RETURN_NOT_OK(parser.ReadU64(&block.size));
    NM_RETURN_NOT_OK(parser.ReadU32(&block.crc32));
    NM_RETURN_NOT_OK(parser.ReadU32(&summary.num_days));
    NM_RETURN_NOT_OK(parser.ReadF64(&summary.total_usage));
    NM_RETURN_NOT_OK(parser.ReadF64(&summary.mean_usage));
    NM_RETURN_NOT_OK(parser.ReadF64(&summary.max_usage));
    uint32_t key_len = 0;
    NM_RETURN_NOT_OK(parser.ReadU32(&key_len));
    if (key_len > summary.num_days) {
      return Status::DataLoss("similarity key of '" + summary.vehicle_id +
                              "' is longer than its series");
    }
    summary.first_half_usage.reserve(key_len);
    for (uint32_t k = 0; k < key_len; ++k) {
      double v = 0.0;
      NM_RETURN_NOT_OK(parser.ReadF64(&v));
      summary.first_half_usage.push_back(v);
    }
    if (block.size != static_cast<uint64_t>(summary.num_days) *
                          sizeof(double) ||
        block.offset < kCorpusSuperblockBytes ||
        block.size > sb.file_used ||
        block.offset > sb.file_used - block.size) {
      return Status::DataLoss("column block of '" + summary.vehicle_id +
                              "' escapes the corpus data region");
    }
    if (!reader->summaries_.empty() &&
        reader->summaries_.back().vehicle_id >= summary.vehicle_id) {
      return Status::DataLoss("corpus index out of order at '" +
                              summary.vehicle_id + "'");
    }
    reader->summaries_.push_back(std::move(summary));
    reader->blocks_.push_back(block);
  }
  if (!parser.AtEnd()) {
    return Status::DataLoss("trailing bytes after the corpus index");
  }
  return reader;
}

Result<const CorpusVehicleSummary*> CorpusReader::Summary(
    const std::string& vehicle_id) const {
  auto it = std::lower_bound(
      summaries_.begin(), summaries_.end(), vehicle_id,
      [](const CorpusVehicleSummary& s, const std::string& id) {
        return s.vehicle_id < id;
      });
  if (it == summaries_.end() || it->vehicle_id != vehicle_id) {
    return Status::NotFound("vehicle '" + vehicle_id +
                            "' is not in the corpus");
  }
  return &*it;
}

Result<data::DailySeries> CorpusReader::Series(
    const std::string& vehicle_id) const {
  NM_ASSIGN_OR_RETURN(const CorpusVehicleSummary* summary,
                      Summary(vehicle_id));
  const BlockRef& block =
      blocks_[static_cast<size_t>(summary - summaries_.data())];
  const std::span<const uint8_t> bytes =
      file_->bytes().subspan(block.offset, block.size);
  if (Crc32(bytes) != block.crc32) {
    return Status::DataLoss("column block CRC mismatch for '" + vehicle_id +
                            "' (torn or bit-flipped block)");
  }
  ByteParser parser(bytes);
  std::vector<double> values;
  values.reserve(summary->num_days);
  for (uint32_t i = 0; i < summary->num_days; ++i) {
    double v = 0.0;
    NM_RETURN_NOT_OK(parser.ReadF64(&v));
    values.push_back(v);
  }
  return data::DailySeries(summary->first_day, std::move(values));
}

}  // namespace storage
}  // namespace nextmaint
