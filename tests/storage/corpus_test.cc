// Compacted corpus tests: writer/reader round-trips, version and
// corruption handling (kDataLoss, never a crash), and a fuzz sweep over
// CRC-valid mutated superblocks and indexes.

#include "storage/corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace nextmaint {
namespace storage {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2016, 1, 1).ValueOrDie().AddDays(offset);
}

data::DailySeries MakeSeries(uint64_t seed, int days) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(days));
  for (int d = 0; d < days; ++d) {
    values.push_back(rng.Uniform(5'000.0, 20'000.0));
  }
  return data::DailySeries(Day(0), std::move(values));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t LoadLe(const std::string& bytes, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

void StoreLe(std::string* bytes, size_t at, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Superblock field offsets: magic [0, 8), version, vehicle count, index
// offset, index size, index CRC, file_used, padding, CRC over [0, 60).
constexpr size_t kVersionAt = 8;
constexpr size_t kCountAt = 12;
constexpr size_t kIndexOffsetAt = 16;
constexpr size_t kIndexSizeAt = 24;
constexpr size_t kIndexCrcAt = 32;
constexpr size_t kSuperblockCrcAt = 60;

/// Recomputes the index CRC (when the declared span lies inside the file)
/// and then the superblock CRC, so mutations reach the decoder's checks
/// past both CRCs.
void Reseal(std::string* bytes) {
  const uint64_t offset = LoadLe(*bytes, kIndexOffsetAt, 8);
  const uint64_t size = LoadLe(*bytes, kIndexSizeAt, 8);
  if (offset <= bytes->size() && size <= bytes->size() - offset) {
    StoreLe(bytes, kIndexCrcAt, 4, Crc32(bytes->substr(offset, size)));
  }
  StoreLe(bytes, kSuperblockCrcAt, 4,
          Crc32(bytes->substr(0, kSuperblockCrcAt)));
}

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "corpus_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".nmc";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Writes a corpus of `count` vehicles ("fleet-000".."fleet-N") with
  /// `days` days each and returns the input series by id.
  std::map<std::string, data::DailySeries> WriteCorpus(int count, int days) {
    std::map<std::string, data::DailySeries> fleet;
    auto writer = CorpusWriter::Create(path_).ValueOrDie();
    for (int v = 0; v < count; ++v) {
      char id[16];
      std::snprintf(id, sizeof(id), "fleet-%03d", v);
      data::DailySeries series =
          MakeSeries(static_cast<uint64_t>(v) + 1, days);
      EXPECT_TRUE(writer->AddVehicle(id, series).ok());
      fleet.emplace(id, std::move(series));
    }
    EXPECT_GT(writer->Finish().ValueOrDie(), kCorpusSuperblockBytes);
    return fleet;
  }

  std::string path_;
};

TEST_F(CorpusTest, RoundTripsEverySeriesExactly) {
  const auto fleet = WriteCorpus(5, 60);
  auto reader = CorpusReader::Open(path_).ValueOrDie();
  ASSERT_EQ(reader->summaries().size(), 5u);
  for (const auto& [id, series] : fleet) {
    const data::DailySeries loaded = reader->Series(id).ValueOrDie();
    EXPECT_EQ(loaded.start_date().day_number(),
              series.start_date().day_number());
    // Bit-exact round-trip: f64 columns are stored verbatim.
    ASSERT_EQ(loaded.size(), series.size());
    EXPECT_EQ(loaded.values(), series.values());
  }
  EXPECT_EQ(reader->Series("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reader->Summary("ghost").status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusTest, SummariesCarryIdFirstDayAndLength) {
  const auto fleet = WriteCorpus(4, 60);
  auto reader = CorpusReader::Open(path_).ValueOrDie();
  ASSERT_EQ(reader->summaries().size(), fleet.size());
  auto summary = reader->summaries().begin();
  for (const auto& [id, series] : fleet) {
    EXPECT_EQ(summary->vehicle_id, id);
    EXPECT_EQ(summary->first_day.day_number(),
              series.start_date().day_number());
    EXPECT_EQ(summary->num_days, series.size());
    ++summary;
  }
}

TEST_F(CorpusTest, VehiclesMustArriveInAscendingIdOrder) {
  auto writer = CorpusWriter::Create(path_).ValueOrDie();
  ASSERT_TRUE(writer->AddVehicle("b", MakeSeries(1, 40)).ok());
  EXPECT_FALSE(writer->AddVehicle("a", MakeSeries(2, 40)).ok());
  EXPECT_FALSE(writer->AddVehicle("b", MakeSeries(3, 40)).ok());
}

TEST_F(CorpusTest, IsCorpusFileRoutes) {
  WriteCorpus(1, 40);
  EXPECT_TRUE(IsCorpusFile(path_).ValueOrDie());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "date,utilization_s\n2016-01-01,100\n";
  }
  EXPECT_FALSE(IsCorpusFile(path_).ValueOrDie());
  EXPECT_FALSE(IsCorpusFile(path_ + ".does-not-exist").ok());
}

TEST_F(CorpusTest, TruncationAndBitFlipsAreDataLoss) {
  WriteCorpus(3, 50);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  // Truncating into the summary index kills Open.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(CorpusReader::Open(path_).status().code(), StatusCode::kDataLoss);

  // A bit flip inside one column block leaves Open (headers) fine but
  // fails that vehicle's materialization — and only that vehicle's.
  std::string flipped = bytes;
  flipped[kCorpusSuperblockBytes + 1] ^= 0x20;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  auto reader = CorpusReader::Open(path_).ValueOrDie();
  ASSERT_EQ(reader->summaries().size(), 3u);
  EXPECT_EQ(reader->Series("fleet-000").status().code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(reader->Series("fleet-001").ok());

  // Garbage superblock: not a corpus at all.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << std::string(4096, 'q');
  }
  EXPECT_FALSE(IsCorpusFile(path_).ValueOrDie());
  EXPECT_EQ(CorpusReader::Open(path_).status().code(), StatusCode::kDataLoss);
}

TEST_F(CorpusTest, OtherVersionsAreDataLossNamingCompact) {
  WriteCorpus(2, 30);
  std::string bytes = ReadBytes(path_);
  ASSERT_EQ(LoadLe(bytes, kVersionAt, 4), kCorpusVersion);
  for (const uint32_t version : {kCorpusVersion - 1, kCorpusVersion + 1}) {
    std::string other = bytes;
    StoreLe(&other, kVersionAt, 4, version);
    Reseal(&other);
    WriteBytes(path_, other);
    // The magic is unchanged, so the CLI still routes the file here.
    EXPECT_TRUE(IsCorpusFile(path_).ValueOrDie());
    const Status status = CorpusReader::Open(path_).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << version;
    EXPECT_NE(status.message().find("nextmaint compact"), std::string::npos)
        << status.ToString();
  }
}

class CorpusFuzzTest : public CorpusTest {};

TEST_F(CorpusFuzzTest, MutatedCorporaNeverCrashAndNeverOverAllocate) {
  WriteCorpus(3, 20);
  const std::string valid = ReadBytes(path_);
  const size_t index_offset =
      static_cast<size_t>(LoadLe(valid, kIndexOffsetAt, 8));
  ASSERT_LT(index_offset, valid.size());

  Rng rng(20261021);
  size_t opened = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    for (int f = 0; f < flips; ++f) {
      // Half the flips land in the superblock (magic and CRC included),
      // half in the index.
      const size_t pos =
          rng.Bernoulli(0.5)
              ? static_cast<size_t>(rng.UniformInt(uint64_t{kSuperblockCrcAt}))
              : index_offset + static_cast<size_t>(rng.UniformInt(
                                   uint64_t{valid.size() - index_offset}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    // Also fuzz the declared vehicle count across its whole range.
    if (i % 5 == 0) StoreLe(&mutated, kCountAt, 4, rng.NextUint64());
    Reseal(&mutated);
    WriteBytes(path_, mutated);

    auto reader = CorpusReader::Open(path_);
    if (!reader.ok()) {
      EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
          << reader.status().ToString();
      continue;
    }
    ++opened;
    for (const CorpusVehicleSummary& summary :
         reader.ValueOrDie()->summaries()) {
      const auto series = reader.ValueOrDie()->Series(summary.vehicle_id);
      if (!series.ok()) {
        EXPECT_EQ(series.status().code(), StatusCode::kDataLoss)
            << series.status().ToString();
      }
    }
  }
  // Some mutations (an id byte, a first day) leave a readable corpus.
  EXPECT_GT(opened, 0u);

  // A CRC-valid count that the index cannot hold is DataLoss before any
  // allocation sized by it.
  std::string huge = valid;
  StoreLe(&huge, kCountAt, 4, uint64_t{1} << 30);
  Reseal(&huge);
  WriteBytes(path_, huge);
  EXPECT_EQ(CorpusReader::Open(path_).status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace storage
}  // namespace nextmaint
