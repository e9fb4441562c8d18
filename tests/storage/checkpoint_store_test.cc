// Segmented checkpoint store tests: round-trips, byte determinism,
// single-segment rewrite isolation, corruption handling (every flavour of
// bad bytes must surface kDataLoss, never a crash), and the torn-rewrite
// invariant — a failed SaveVehicle/Commit must leave the committed
// superblock and every other vehicle's segment untouched and readable.

#include "storage/checkpoint_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/rng.h"
#include "storage/checkpoint_format.h"

namespace nextmaint {
namespace storage {
namespace {

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names contain '/': flatten them so the path stays
    // a single file under TempDir.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = ::testing::TempDir() + "checkpoint_store_test_" + name + ".ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

std::vector<VehicleRecord> ThreeRecords() {
  return {
      {"truck-a", "BL", "payload of truck-a\nwith two lines\n"},
      {"truck-b", "LR", std::string(1000, 'b')},
      {"truck-c", "RF", "c"},
  };
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CheckpointStoreTest, SaveAllLoadRoundTrip) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->SaveAll(ThreeRecords()).ValueOrDie(), 1u);

  const CheckpointManifest manifest = store->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  const std::vector<VehicleRecord> expected = ThreeRecords();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(manifest.vehicles[i].vehicle_id, expected[i].vehicle_id);
    EXPECT_EQ(manifest.vehicles[i].model_name, expected[i].model_name);
    EXPECT_EQ(manifest.vehicles[i].segment.Payload().ValueOrDie(),
              expected[i].payload);
  }
}

TEST_F(CheckpointStoreTest, SaveAllSortsAndRejectsDuplicates) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  std::vector<VehicleRecord> shuffled = {{"z", "BL", "zz"},
                                         {"a", "BL", "aa"},
                                         {"m", "BL", "mm"}};
  ASSERT_TRUE(store->SaveAll(shuffled).ok());
  const CheckpointManifest manifest = store->Load().ValueOrDie();
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[0].vehicle_id, "a");
  EXPECT_EQ(manifest.vehicles[2].vehicle_id, "z");

  std::vector<VehicleRecord> duplicated = {{"a", "BL", "1"}, {"a", "LR", "2"}};
  EXPECT_FALSE(store->SaveAll(duplicated).ok());
}

TEST_F(CheckpointStoreTest, SaveAllIsByteDeterministic) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  const std::string first = ReadFileBytes(path_);
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  EXPECT_EQ(ReadFileBytes(path_), first);
}

TEST_F(CheckpointStoreTest, SaveVehicleRewritesOnlyItsSegmentAndIndex) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  const std::string before = ReadFileBytes(path_);

  ASSERT_TRUE(
      store->SaveVehicle({"truck-b", "LR", "fresh payload for b"}).ok());
  EXPECT_EQ(store->Commit().ValueOrDie(), 2u);
  const std::string after = ReadFileBytes(path_);

  // Single-segment update is append + alternate-slot flip: the data region
  // up to the old file_used — every committed segment and the old index —
  // is bit-for-bit unchanged, and so is the old generation's slot A.
  ASSERT_GT(after.size(), before.size());
  EXPECT_EQ(after.substr(kDataRegionOffset,
                         before.size() - kDataRegionOffset),
            before.substr(kDataRegionOffset));
  EXPECT_EQ(after.substr(0, kSuperblockSlotBytes),
            before.substr(0, kSuperblockSlotBytes));
  // Only slot B (generation 2 lives at slot index (2-1)%2 = 1) changed.
  EXPECT_NE(after.substr(kSuperblockSlotBytes, kSuperblockSlotBytes),
            before.substr(kSuperblockSlotBytes, kSuperblockSlotBytes));

  const CheckpointManifest manifest = store->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 2u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[1].segment.Payload().ValueOrDie(),
            "fresh payload for b");
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().ValueOrDie(),
            ThreeRecords()[0].payload);
}

TEST_F(CheckpointStoreTest, SaveVehicleIsInvisibleUntilCommit) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  ASSERT_TRUE(store->SaveVehicle({"truck-a", "BL", "uncommitted"}).ok());

  auto reader = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = reader->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().ValueOrDie(),
            ThreeRecords()[0].payload);
}

TEST_F(CheckpointStoreTest, SaveVehicleOnMissingOrLegacyFileFails) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->SaveVehicle({"v", "BL", "p"}).code(),
            StatusCode::kFailedPrecondition);

  // A text checkpoint from before the segmented format is not a
  // checkpoint: it is rejected as DataLoss like any other garbage.
  WriteFileBytes(path_, "vehicle v1 BL\nsome model text\nfleet-end\n");
  auto text = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(text->SaveVehicle({"v", "BL", "p"}).code(), StatusCode::kDataLoss);
  EXPECT_EQ(text->Load().status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointStoreTest, CommitWithNothingStagedIsANoOp) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  const std::string before = ReadFileBytes(path_);
  EXPECT_EQ(store->Commit().ValueOrDie(), 1u);
  EXPECT_EQ(ReadFileBytes(path_), before);
}

// --------------------------------------------------------------------------
// Corruption: every flavour must be kDataLoss, never a crash or garbage.
// --------------------------------------------------------------------------

TEST_F(CheckpointStoreTest, GarbageSuperblockIsDataLoss) {
  WriteFileBytes(path_, std::string(4096, '\x5a'));
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->Load().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store->SaveVehicle({"v", "BL", "p"}).code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointStoreTest, TruncatedSegmentIsDataLossAtPayloadTime) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  // Chop inside the first segment: the index (at the tail) is gone too, so
  // the load itself reports data loss.
  const std::string bytes = ReadFileBytes(path_);
  WriteFileBytes(path_, bytes.substr(0, kDataRegionOffset + 8));
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->Load().status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointStoreTest, BitFlippedSegmentLoadsButPayloadIsDataLoss) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  // Flip one payload byte of truck-a (first segment, right after the
  // superblocks). The index and superblock stay valid, so Load succeeds —
  // lazily — and only materializing the damaged segment fails.
  std::string bytes = ReadFileBytes(path_);
  bytes[kDataRegionOffset + 3] ^= 0x40;
  WriteFileBytes(path_, bytes);

  auto store = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = store->Load().ValueOrDie();
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().status().code(),
            StatusCode::kDataLoss);
  // The sibling segments are untouched and still materialize.
  EXPECT_EQ(manifest.vehicles[1].segment.Payload().ValueOrDie(),
            ThreeRecords()[1].payload);
}

TEST_F(CheckpointStoreTest, SniffRoutesEveryFormat) {
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kMissing);

  WriteFileBytes(path_, "vehicle v1 BL\n...\nfleet-end\n");
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kUnrecognized);

  WriteFileBytes(path_, "total nonsense");
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kUnrecognized);

  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kSegmented);
}

// --------------------------------------------------------------------------
// Torn-rewrite invariant (ISSUE 10): a SaveVehicle/Commit that dies at any
// storage failpoint must leave the previous generation fully readable —
// superblock, index and every other vehicle's bytes intact.
// --------------------------------------------------------------------------

class TornRewriteTest : public CheckpointStoreTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(TornRewriteTest, FailedSingleVehicleRewriteLeavesOldGenerationIntact) {
  if (!failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  {
    auto seeder = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(seeder->SaveAll(ThreeRecords()).ok());
  }
  const std::string before = ReadFileBytes(path_);

  // A cold store, so the rewrite exercises every seam: open fires in the
  // committed-state refresh, segment_write in the append, commit in the
  // pre-fsync window.
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(failpoints::Arm(GetParam()).ok());
  Status failed = store->SaveVehicle({"truck-b", "LR", "torn rewrite"});
  if (failed.ok()) failed = store->Commit().status();
  failpoints::DisarmAll();
  EXPECT_FALSE(failed.ok()) << GetParam();

  // Both superblock slots are bit-identical to the committed generation,
  // and a fresh reader still sees generation 1 with the original payloads
  // (orphaned appended bytes past file_used are harmless by design).
  const std::string after = ReadFileBytes(path_);
  ASSERT_GE(after.size(), before.size());
  EXPECT_EQ(after.substr(0, kDataRegionOffset),
            before.substr(0, kDataRegionOffset));

  auto reader = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = reader->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  const std::vector<VehicleRecord> expected = ThreeRecords();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(manifest.vehicles[i].segment.Payload().ValueOrDie(),
              expected[i].payload);
  }
}

INSTANTIATE_TEST_SUITE_P(StorageSites, TornRewriteTest,
                         ::testing::Values("storage.checkpoint.segment_write",
                                           "storage.checkpoint.commit",
                                           "storage.checkpoint.open"));

// --------------------------------------------------------------------------
// CRC-32 kernel: the slice-by-8 tables must agree with the plain bit-at-a-
// time algorithm on every length across the 8-byte step boundary and at
// every alignment of the input.
// --------------------------------------------------------------------------

uint32_t BitwiseCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 1100;
  constexpr size_t kOffsets = 8;
  Rng rng(20240611);
  std::vector<uint8_t> buffer(kMaxLength + kOffsets);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextUint64());
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const std::span<const uint8_t> slice(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

// --------------------------------------------------------------------------
// Decoder fuzzing: random mutations of valid encodings must either decode
// or fail with a clean Status — DecodeSuperblockSlot/DecodeSegmentIndex are
// pure span->struct functions, so this hammers them without a filesystem.
// --------------------------------------------------------------------------

std::span<const uint8_t> AsBytes(const std::string& s) {
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(CheckpointFuzzTest, MutatedSuperblocksNeverCrash) {
  SuperblockSlot slot;
  slot.vehicle_count = 3;
  slot.generation = 7;
  slot.index_offset = 500;
  slot.index_size = 120;
  slot.index_crc32 = 0xdeadbeef;
  slot.file_used = 620;
  const std::string valid = EncodeSuperblockSlot(slot);
  ASSERT_TRUE(DecodeSuperblockSlot(AsBytes(valid)).ok());

  Rng rng(20260809);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(uint64_t{mutated.size()}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    const auto decoded = DecodeSuperblockSlot(AsBytes(mutated));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
  // Wrong sizes are rejected outright.
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(valid.substr(1))).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(std::string())).status().code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFuzzTest, MutatedIndexesNeverCrashAndNeverOverAllocate) {
  std::vector<SegmentIndexEntry> entries;
  for (int i = 0; i < 4; ++i) {
    SegmentIndexEntry entry;
    entry.vehicle_id = "vehicle-" + std::to_string(i);
    entry.model_name = "BL";
    entry.segment_offset = kDataRegionOffset + static_cast<uint64_t>(i) * 100;
    entry.payload_size = 100;
    entry.payload_crc32 = 0x12345678u + static_cast<uint32_t>(i);
    entries.push_back(std::move(entry));
  }
  const uint64_t file_limit = kDataRegionOffset + 400;
  const std::string valid = EncodeSegmentIndex(entries);
  ASSERT_TRUE(DecodeSegmentIndex(AsBytes(valid), 4, file_limit).ok());

  Rng rng(20260810);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(uint64_t{mutated.size()}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    // Also fuzz the declared count and limit occasionally.
    const uint32_t count =
        i % 5 == 0 ? static_cast<uint32_t>(rng.UniformInt(uint64_t{10})) : 4;
    const auto decoded = DecodeSegmentIndex(AsBytes(mutated), count,
                                            file_limit);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
  // Truncations at every byte boundary stay clean.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    const auto decoded =
        DecodeSegmentIndex(AsBytes(valid.substr(0, cut)), 4, file_limit);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  // A count promising more entries than the bytes hold must not allocate.
  EXPECT_EQ(DecodeSegmentIndex(AsBytes(valid), 1'000'000, file_limit)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace storage
}  // namespace nextmaint
