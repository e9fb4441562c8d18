// Round-trip tests for model persistence: every model in the zoo (plus the
// core BL predictor) must survive Save -> Load with bit-identical
// predictions, the saved bytes are pinned, and the loader must reject
// corrupt input without crashing or over-allocating (fuzzed).

#include "ml/serialization.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/baseline.h"
#include "ml/registry.h"

// The decoder fuzz tests bound the largest single allocation a load makes.
// The global allocation functions of this test binary are replaced so the
// test thread can record request sizes while a probe is open; every form
// is replaced, so under ASan allocation and deallocation still pair up.
namespace {
thread_local bool probing_allocations = false;
thread_local std::size_t largest_allocation = 0;

void* TrackedMalloc(std::size_t size) noexcept {
  if (probing_allocations && size > largest_allocation) {
    largest_allocation = size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* TrackedNew(std::size_t size) {
  if (void* p = TrackedMalloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return TrackedNew(size); }
void* operator new[](std::size_t size) { return TrackedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nextmaint {
namespace ml {
namespace {

Dataset MakeData(uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.Uniform(0, 10);
    const double x1 = rng.Uniform(-3, 3);
    const std::vector<double> row = {x0, x1};
    d.AddRow(std::span<const double>(row.data(), 2),
             2.0 * x0 - x1 * x1 + rng.Normal(0, 0.2));
  }
  return d;
}

class SerializationRoundTripTest : public testing::TestWithParam<std::string> {
};

TEST_P(SerializationRoundTripTest, PredictionsSurviveRoundTrip) {
  const std::string name = GetParam();
  const Dataset data = MakeData(42);
  auto model = MakeRegressor(name).MoveValueOrDie();
  ASSERT_TRUE(model->Fit(data).ok());

  std::stringstream buffer;
  ASSERT_TRUE(model->Save(buffer).ok());

  auto reloaded = LoadRegressor(buffer).MoveValueOrDie();
  ASSERT_TRUE(reloaded->is_fitted());
  EXPECT_EQ(reloaded->name(), name);

  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> probe = {rng.Uniform(0, 10),
                                       rng.Uniform(-3, 3)};
    const auto span = std::span<const double>(probe.data(), 2);
    EXPECT_DOUBLE_EQ(model->Predict(span).ValueOrDie(),
                     reloaded->Predict(span).ValueOrDie());
  }
}

TEST_P(SerializationRoundTripTest, UnfittedModelRefusesToSave) {
  auto model = MakeRegressor(GetParam()).MoveValueOrDie();
  std::stringstream buffer;
  EXPECT_EQ(model->Save(buffer).code(), StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SerializationRoundTripTest,
                         testing::Values("LR", "LSVR", "Tree", "RF", "XGB"));

TEST(SerializationTest, HeaderValidation) {
  {
    ModelReader in("wrong-magic v1 LR\n");
    EXPECT_EQ(ReadModelHeader(in).status().code(), StatusCode::kDataError);
  }
  {
    ModelReader in("nextmaint-model v999 LR\n");
    EXPECT_EQ(ReadModelHeader(in).status().code(), StatusCode::kDataError);
  }
  {
    ModelReader in("");
    EXPECT_FALSE(ReadModelHeader(in).ok());
  }
  {
    ModelReader in("nextmaint-model v1 LR more");
    EXPECT_EQ(ReadModelHeader(in).ValueOrDie(), "LR");
  }
}

TEST(SerializationTest, UnknownModelNameFails) {
  std::stringstream in("nextmaint-model v1 Transformer\nend\n");
  EXPECT_EQ(LoadRegressor(in).status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, TruncatedBodyFails) {
  const Dataset data = MakeData(1);
  auto model = MakeRegressor("RF", {{"num_estimators", 3}}).MoveValueOrDie();
  ASSERT_TRUE(model->Fit(data).ok());
  std::stringstream buffer;
  ASSERT_TRUE(model->Save(buffer).ok());
  const std::string full = buffer.str();
  // Chop the tail off: the loader must fail, not crash.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(LoadRegressor(truncated).ok());
}

/// Every model format that decodes a node list (a Tree body, an XGB tree,
/// a Tree embedded in an RF), each wrapping `nodes` — a "nodes <n>" line
/// and its node lines — in a one-feature, one-tree model.
std::vector<std::pair<std::string, std::string>> NodeListFormats(
    const std::string& nodes) {
  return {
      {"Tree", "nextmaint-model v1 Tree\nfeatures 1\n" + nodes + "end\n"},
      {"XGB", "nextmaint-model v1 XGB\nbase 0\nfeatures 1\ntrees 1\n" +
                  nodes + "end\n"},
      {"RF", "nextmaint-model v1 RF\ntrees 1\n"
             "nextmaint-model v1 Tree\nfeatures 1\n" +
                 nodes + "end\nend\n"},
  };
}

/// Loads of `corrupt_nodes` fail with DataError in every format, while the
/// same wrapper around a sound one-leaf tree loads.
void ExpectNodeListRejected(const std::string& corrupt_nodes) {
  for (const auto& [format, text] :
       NodeListFormats("nodes 1\n-1 -1 -1 0 1.0\n")) {
    std::istringstream in(text);
    EXPECT_TRUE(LoadRegressor(in).ok()) << format;
  }
  for (const auto& [format, text] : NodeListFormats(corrupt_nodes)) {
    std::istringstream in(text);
    EXPECT_EQ(LoadRegressor(in).status().code(), StatusCode::kDataError)
        << format;
  }
}

TEST(SerializationTest, CorruptTreeIndicesRejected) {
  // Hand-crafted tree whose child index points out of range.
  ExpectNodeListRejected("nodes 1\n5 6 0 0.5 1.0\n");
}

/// The ensemble formats' optional hyper-parameter line: a one-feature,
/// one-leaf model with `values` after its "resume" token, plus a sound
/// value list and out-of-range lists, each breaking one check.
struct ResumeLineFormat {
  std::string name;
  std::string before;
  std::string after;
  std::string sound;
  std::vector<std::string> out_of_range;

  std::string Model(const std::string& values) const {
    return before + "resume " + values + "\n" + after;
  }
};

std::vector<ResumeLineFormat> ResumeLineFormats() {
  // RF: max_depth min_samples_split min_samples_leaf max_features
  // bootstrap_fraction seed max_bins.
  ResumeLineFormat rf{"RF",
                      "nextmaint-model v1 RF\n",
                      "trees 1\nnextmaint-model v1 Tree\nfeatures 1\n"
                      "nodes 1\n-1 -1 -1 0 1.0\nend\nend\n",
                      "-1 2 1 0 1 42 256",
                      {"-1 0 1 0 1 42 256", "-1 2 0 0 1 42 256",
                       "-1 2 1 0 0 42 256", "-1 2 1 0 1.5 42 256",
                       "-1 2 1 0 1 42 1", "-1 2 1 0 1 42 65536"}};
  // XGB: learning_rate max_depth min_samples_leaf max_bins l2 min_gain, then
  // two retired fields that only "0 10" fills.
  ResumeLineFormat xgb{"XGB",
                       "nextmaint-model v1 XGB\nbase 0\nfeatures 1\n",
                       "trees 1\nnodes 1\n-1 -1 -1 0 1.0\nend\n",
                       "0.1 6 20 256 0 1e-12 0 10",
                       {"0 6 20 256 0 1e-12 0 10", "0.1 6 0 256 0 1e-12 0 10",
                        "0.1 6 20 1 0 1e-12 0 10",
                        "0.1 6 20 65536 0 1e-12 0 10",
                        "0.1 6 20 256 0 1e-12 -0.1 10",
                        "0.1 6 20 256 0 1e-12 1 10",
                        "0.1 6 20 256 0 1e-12 0 0",
                        "0.1 6 20 256 0 1e-12 0.5 10",
                        "0.1 6 20 256 0 1e-12 0 5"}};
  return {rf, xgb};
}

/// Loads `text` and expects DataError naming `what`.
void ExpectResumeRejected(const std::string& text, const std::string& what) {
  std::istringstream in(text);
  const Status status = LoadRegressor(in).status();
  EXPECT_EQ(status.code(), StatusCode::kDataError) << text;
  EXPECT_NE(status.message().find(what), std::string::npos) << status;
}

TEST(SerializationTest, TruncatedResumeLineRejected) {
  for (const ResumeLineFormat& format : ResumeLineFormats()) {
    SCOPED_TRACE(format.name);
    std::istringstream sound(format.Model(format.sound));
    ASSERT_TRUE(LoadRegressor(sound).ok());
    // Too few values: the reader runs into the "trees" token.
    const std::string values = format.sound;
    ExpectResumeRejected(format.Model(values.substr(0, values.rfind(' '))),
                         "truncated 'resume' line");
    ExpectResumeRejected(format.Model(""), "truncated 'resume' line");
  }
}

TEST(SerializationTest, ResumeValuesOutOfRangeRejected) {
  for (const ResumeLineFormat& format : ResumeLineFormats()) {
    SCOPED_TRACE(format.name);
    for (const std::string& values : format.out_of_range) {
      ExpectResumeRejected(format.Model(values),
                           "'resume' values out of range");
    }
  }
}

TEST(SerializationTest, BaselineRoundTripViaLoadAnyModel) {
  core::BaselinePredictor model(12'345.0, 1.0 / 2'000'000.0);
  std::stringstream buffer;
  ASSERT_TRUE(model.Save(buffer).ok());
  auto reloaded = core::LoadAnyModel(buffer).MoveValueOrDie();
  EXPECT_EQ(reloaded->name(), "BL");
  const std::vector<double> probe = {0.5};  // L/T_v = 0.5
  const auto span = std::span<const double>(probe.data(), 1);
  EXPECT_DOUBLE_EQ(model.Predict(span).ValueOrDie(),
                   reloaded->Predict(span).ValueOrDie());
}

TEST(SerializationTest, LoadAnyModelHandlesMlModels) {
  const Dataset data = MakeData(3);
  auto model = MakeRegressor("LR").MoveValueOrDie();
  ASSERT_TRUE(model->Fit(data).ok());
  std::stringstream buffer;
  ASSERT_TRUE(model->Save(buffer).ok());
  auto reloaded = core::LoadAnyModel(buffer).MoveValueOrDie();
  EXPECT_EQ(reloaded->name(), "LR");
}

TEST(SerializationTest, BaselineRejectsNonPositiveParams) {
  std::stringstream in(
      "nextmaint-model v1 BL\navg -5\nlscale 1\nend\n");
  EXPECT_EQ(core::LoadAnyModel(in).status().code(), StatusCode::kDataError);
}

// ---------------------------------------------------------------------------
// Byte-identity pins. The expected values were generated by the
// iostream-based codec (`ostream << double` at precision 17, i.e. %.17g);
// any later codec must reproduce them byte for byte.

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Saved(const Regressor& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok()) << model.name();
  return std::move(out).str();
}

TEST(SerializationGoldenTest, SaveBytesPinnedPerModelKind) {
  const Dataset data = MakeData(42);
  std::map<std::string, uint64_t> actual;
  actual["BL"] = Fnv1a(Saved(core::BaselinePredictor(12'345.0, 1.0 / 3.0)));
  for (const std::string& name : RegisteredModelNames()) {
    auto model = MakeRegressor(name).MoveValueOrDie();
    ASSERT_TRUE(model->Fit(data).ok()) << name;
    actual[name] = Fnv1a(Saved(*model));
  }
  const std::map<std::string, uint64_t> expected = {
      {"BL", 0xc24e2feef8e40063ULL},   {"LR", 0x7316bdaa77269571ULL},
      {"LSVR", 0xeb3ad130fd2d6016ULL}, {"Tree", 0x221aa670b7d3243aULL},
      {"RF", 0x884c159c92eed4d2ULL},   {"XGB", 0x5025c1143f4bb20aULL},
  };
  EXPECT_EQ(actual, expected);
}

// A hand-built tree whose thresholds and values sit on the %.17g edge
// cases: signed zero, a subnormal, a value with no short decimal form,
// both sides of the fixed/scientific switch at 17 digits and at 1e-4,
// stripped trailing zeros, +-DBL_MAX, -DBL_MIN and negative exponents. Loading and re-saving it reproduces the
// text exactly, so parsing is bit-exact and formatting is %.17g.
constexpr const char* kEdgeTree =
    "nextmaint-model v1 Tree\n"
    "features 2\n"
    "nodes 7\n"
    "1 2 0 -0 0.10000000000000001\n"
    "3 4 1 4.9406564584124654e-324 10000000000000000\n"
    "5 6 0 1.2345678901234568e+17 -1.7976931348623157e+308\n"
    "-1 -1 -1 0.0001 1.0000000000000001e-05\n"
    "-1 -1 -1 -2.2250738585072014e-308 1.7976931348623157e+308\n"
    "-1 -1 -1 123.456 -9.8765432100000005e-100\n"
    "-1 -1 -1 0 3.0000000000000004\n"
    "end\n";

TEST(SerializationGoldenTest, EdgeValueTreeRoundTripsByteIdentical) {
  std::istringstream in(kEdgeTree);
  auto tree = LoadRegressor(in).MoveValueOrDie();
  const std::string saved = Saved(*tree);
  EXPECT_EQ(saved, kEdgeTree);
}

TEST(SerializationTest, WriterPrintsDoublesAsPrintfG17) {
  Rng rng(17);
  std::string written;
  std::string expected;
  ModelWriter writer(written);
  char buffer[80];
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) value = rng.Uniform(-1e6, 1e6);
    writer.Line(value, static_cast<int32_t>(bits), bits);
    std::snprintf(buffer, sizeof(buffer), "%.17g %d %llu\n", value,
                  static_cast<int32_t>(bits),
                  static_cast<unsigned long long>(bits));
    expected += buffer;
  }
  EXPECT_EQ(written, expected);
}

TEST(SerializationTest, ReaderParsesWhatTheWriterPrints) {
  const double values[] = {-0.0, 5e-324, DBL_MIN, 0.1, 1e16,
                           123456789012345680.0, DBL_MAX, -1e-5};
  std::string text;
  ModelWriter writer(text);
  for (const double value : values) writer.Line(value);
  ModelReader reader(text);
  for (const double value : values) {
    double parsed = 1.0;
    ASSERT_TRUE(reader.Read(parsed)) << value;
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof(value)), 0) << value;
  }
  EXPECT_TRUE(reader.Token().empty());
}

TEST(SerializationTest, ReaderRejectsNonFiniteAndSignedNumbers) {
  // from_chars alone would accept the non-finite spellings; `istream >>`
  // never did, and Save never writes them or a leading '+'.
  for (const char* token : {"nan", "-nan", "NaN", "inf", "-inf", "infinity",
                            "+1", "+0.5", "1e400", "0x10", "1.5x", ""}) {
    ModelReader reader(token);
    double value = 0.0;
    EXPECT_FALSE(reader.Read(value)) << "'" << token << "'";
    std::istringstream model(std::string("nextmaint-model v1 BL\navg ") +
                             token + "\nlscale 1\nend\n");
    EXPECT_EQ(core::LoadAnyModel(model).status().code(),
              StatusCode::kDataError)
        << "'" << token << "'";
  }
  for (const char* token : {"+1", "1.0", "1e3", "99999999999"}) {
    ModelReader reader(token);
    int32_t value = 0;
    EXPECT_FALSE(reader.Read(value)) << "'" << token << "'";
  }
}

TEST(SerializationTest, CyclicTreeRejected) {
  // Child 0 points back at the root: Predict would never reach a leaf.
  ExpectNodeListRejected("nodes 2\n1 0 0 0.5 1.0\n-1 -1 -1 0 2.0\n");
}

// ---------------------------------------------------------------------------
// Decoder fuzzing, mirroring the checkpoint decoders' fuzz suite: mutated
// payloads of every model kind must load or fail with DataError/NotFound,
// never crash, and never allocate more than a small multiple of their size.

/// Largest single allocation a load of `text` may make: node arrays take
/// about 4x the bytes of their text and forest tree arrays a few times
/// more, plus a fixed allowance for names and messages.
size_t AllocationBound(const std::string& text) {
  return 16 * text.size() + 4096;
}

struct DecodeOutcome {
  Result<std::unique_ptr<Regressor>> model;
  size_t largest_allocation;
};

DecodeOutcome ProbedLoad(const std::string& text) {
  ModelReader reader(text);
  largest_allocation = 0;
  probing_allocations = true;
  Result<std::unique_ptr<Regressor>> model = core::LoadAnyModel(reader);
  probing_allocations = false;
  return {std::move(model), largest_allocation};
}

/// A real, small payload of each kind (small so that 2000 mutations stay
/// fast under the sanitizers).
std::string FuzzSeedPayload(const std::string& kind) {
  std::string text;
  ModelWriter writer(text);
  if (kind == "BL") {
    EXPECT_TRUE(core::BaselinePredictor(12'345.0, 1.0 / 3.0).Save(writer).ok());
    return text;
  }
  const ParamMap params = {{"max_depth", 3},
                           {"num_estimators", 3},
                           {"num_iterations", 3}};
  auto model = MakeRegressor(kind, params).MoveValueOrDie();
  EXPECT_TRUE(model->Fit(MakeData(5)).ok()) << kind;
  EXPECT_TRUE(model->Save(writer).ok()) << kind;
  return text;
}

/// (begin, length) of every whitespace-separated token of `text`.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t pos = 0;
  while (true) {
    const size_t begin = text.find_first_not_of(" \t\n\r\v\f", pos);
    if (begin == std::string::npos) break;
    pos = text.find_first_of(" \t\n\r\v\f", begin);
    if (pos == std::string::npos) pos = text.size();
    spans.emplace_back(begin, pos - begin);
  }
  return spans;
}

/// One random mutation: bit flips, a truncation, two tokens swapped, or a
/// count (the token after nodes/trees/weights/features) made huge.
std::string Mutate(const std::string& valid, Rng& rng) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(uint64_t{n}));
  };
  std::string text = valid;
  const std::vector<std::pair<size_t, size_t>> spans = TokenSpans(text);
  switch (pick(4)) {
    case 0: {
      const size_t flips = 1 + pick(4);
      for (size_t f = 0; f < flips; ++f) {
        text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
      }
      return text;
    }
    case 1:
      text.resize(pick(text.size()));
      return text;
    case 2: {
      size_t a = pick(spans.size());
      size_t b = pick(spans.size());
      if (a > b) std::swap(a, b);
      if (a == b) return text;
      const auto [a_begin, a_len] = spans[a];
      const auto [b_begin, b_len] = spans[b];
      return text.substr(0, a_begin) + text.substr(b_begin, b_len) +
             text.substr(a_begin + a_len, b_begin - a_begin - a_len) +
             text.substr(a_begin, a_len) + text.substr(b_begin + b_len);
    }
    default: {
      std::vector<size_t> counts;
      for (size_t t = 0; t + 1 < spans.size(); ++t) {
        const std::string_view word(text.data() + spans[t].first,
                                    spans[t].second);
        if (word == "nodes" || word == "trees" || word == "weights" ||
            word == "features") {
          counts.push_back(t + 1);
        }
      }
      const size_t t = counts.empty() ? pick(spans.size())
                                      : counts[pick(counts.size())];
      const char* huge[] = {"49999999", "999999", "4294967295",
                            "18446744073709551615", "99999999999999999999"};
      return text.substr(0, spans[t].first) + huge[pick(5)] +
             text.substr(spans[t].first + spans[t].second);
    }
  }
}

class ModelDecoderFuzzTest : public testing::TestWithParam<std::string> {};

TEST_P(ModelDecoderFuzzTest, MutationsNeverCrashOrOverAllocate) {
  const std::string valid = FuzzSeedPayload(GetParam());
  ASSERT_TRUE(ProbedLoad(valid).model.ok());
  Rng rng(20261017);
  const std::vector<double> probe = {5.0, 1.0};
  for (int i = 0; i < 2000; ++i) {
    const std::string mutated = Mutate(valid, rng);
    const DecodeOutcome outcome = ProbedLoad(mutated);
    EXPECT_LE(outcome.largest_allocation, AllocationBound(mutated))
        << "mutation " << i;
    if (outcome.model.ok()) {
      // A model that loads is safe to query (wrong feature counts are
      // refused, not read out of bounds).
      NEXTMAINT_IGNORE_STATUS(outcome.model.ValueOrDie()->Predict(probe));
    } else {
      const StatusCode code = outcome.model.status().code();
      EXPECT_TRUE(code == StatusCode::kDataError ||
                  code == StatusCode::kNotFound)
          << "mutation " << i << ": " << outcome.model.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelDecoderFuzzTest,
                         testing::Values("BL", "LR", "LSVR", "Tree", "RF",
                                         "XGB"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ModelDecoderBoundsTest, CountsBeyondThePayloadRejectedBeforeAllocating) {
  // Each count fits the old fixed caps (50M nodes, 1M trees or weights),
  // which let a few corrupt bytes allocate up to ~2 GB.
  for (const char* text :
       {"nextmaint-model v1 Tree\nfeatures 1\nnodes 49999999\n"
        "-1 -1 -1 0 1\nend\n",
        "nextmaint-model v1 XGB\nbase 0\nfeatures 1\ntrees 1\n"
        "nodes 49999999\n-1 -1 -1 0 1\nend\n",
        "nextmaint-model v1 XGB\nbase 0\nfeatures 1\ntrees 999999\n"
        "nodes 1\n-1 -1 -1 0 1\nend\n",
        "nextmaint-model v1 RF\ntrees 999999\nnextmaint-model v1 Tree\n"
        "features 1\nnodes 1\n-1 -1 -1 0 1\nend\nend\n",
        "nextmaint-model v1 LR\nweights 999999 1\nintercept 0\nend\n"}) {
    const DecodeOutcome outcome = ProbedLoad(text);
    EXPECT_EQ(outcome.model.status().code(), StatusCode::kDataError) << text;
    EXPECT_LE(outcome.largest_allocation, AllocationBound(text)) << text;
  }
}

TEST(SerializationTest, MultipleModelsInOneStream) {
  // The format is self-delimiting: two models written back to back load
  // sequentially (how the scheduler persists a whole fleet).
  const Dataset data = MakeData(9);
  auto a = MakeRegressor("LR").MoveValueOrDie();
  auto b = MakeRegressor("Tree").MoveValueOrDie();
  ASSERT_TRUE(a->Fit(data).ok());
  ASSERT_TRUE(b->Fit(data).ok());
  std::stringstream buffer;
  ASSERT_TRUE(a->Save(buffer).ok());
  ASSERT_TRUE(b->Save(buffer).ok());

  auto first = LoadRegressor(buffer).MoveValueOrDie();
  auto second = LoadRegressor(buffer).MoveValueOrDie();
  EXPECT_EQ(first->name(), "LR");
  EXPECT_EQ(second->name(), "Tree");
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
