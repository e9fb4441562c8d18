#include "common/failpoints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace nextmaint {
namespace failpoints {
namespace {

/// Every test starts from a disarmed registry and leaves it disarmed, so
/// the fixture composes with any test order in the shared binary.
class FailpointsTest : public testing::Test {
 protected:
  void SetUp() override { DisarmAll(); }
  void TearDown() override { DisarmAll(); }
};

TEST_F(FailpointsTest, DisarmedSitesAreFreeAndOk) {
  EXPECT_FALSE(Enabled());
  EXPECT_TRUE(Check("csv.read_row").ok());
  EXPECT_EQ(HitCount("csv.read_row"), 0u);
}

TEST_F(FailpointsTest, CatalogueIsSortedAndSelfConsistent) {
  const std::vector<std::string>& sites = RegisteredSites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const std::string& site : sites) {
    EXPECT_TRUE(IsRegisteredSite(site)) << site;
  }
  EXPECT_FALSE(IsRegisteredSite("no.such.site"));
}

TEST_F(FailpointsTest, ArmRejectsUnknownSitesAndMalformedSpecs) {
  EXPECT_EQ(Arm("no.such.site").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("ml.fit:abc").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("ml.fit:-1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("ml.fit:1:bogus").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("ml.fit:1:io:extra").code(), StatusCode::kInvalidArgument);
  // A bad spec in a list arms nothing.
  EXPECT_FALSE(Arm("ml.fit,no.such.site").ok());
  EXPECT_FALSE(Enabled());
}

TEST_F(FailpointsTest, ArmedSiteFiresEveryHitByDefault) {
  ASSERT_TRUE(Arm("ml.fit").ok());
  EXPECT_TRUE(Enabled());
  const Status first = Check("ml.fit");
  EXPECT_EQ(first.code(), StatusCode::kUnknown);
  EXPECT_NE(first.message().find("ml.fit"), std::string::npos);
  EXPECT_FALSE(Check("ml.fit").ok());
  EXPECT_EQ(HitCount("ml.fit"), 2u);
  EXPECT_EQ(FiredCount("ml.fit"), 2u);
  // Other sites are unaffected.
  EXPECT_TRUE(Check("csv.read_row").ok());
}

TEST_F(FailpointsTest, KindsMapToStatusCodes) {
  const std::vector<std::pair<std::string, StatusCode>> kinds = {
      {"error", StatusCode::kUnknown},
      {"io", StatusCode::kIOError},
      {"data", StatusCode::kDataError},
      {"numeric", StatusCode::kNumericError},
      {"notfound", StatusCode::kNotFound},
  };
  for (const auto& [kind, code] : kinds) {
    DisarmAll();
    ASSERT_TRUE(Arm("csv.open_file:0:" + kind).ok());
    EXPECT_EQ(Check("csv.open_file").code(), code) << kind;
  }
}

TEST_F(FailpointsTest, NthSelectsTheNthUncontextedHit) {
  ASSERT_TRUE(Arm("csv.read_row:3").ok());
  EXPECT_TRUE(Check("csv.read_row").ok());
  EXPECT_TRUE(Check("csv.read_row").ok());
  EXPECT_FALSE(Check("csv.read_row").ok());  // third hit
  EXPECT_TRUE(Check("csv.read_row").ok());   // nth is one-shot per counter
  EXPECT_EQ(FiredCount("csv.read_row"), 1u);
}

TEST_F(FailpointsTest, NthSelectorsAccumulateAcrossSpecs) {
  ASSERT_TRUE(Arm("csv.read_row:1,csv.read_row:3").ok());
  EXPECT_FALSE(Check("csv.read_row").ok());
  EXPECT_TRUE(Check("csv.read_row").ok());
  EXPECT_FALSE(Check("csv.read_row").ok());
}

TEST_F(FailpointsTest, OrdinalContextOverridesTheHitCounter) {
  ASSERT_TRUE(Arm("scheduler.train_vehicle:2").ok());
  {
    ScopedOrdinal first(1);
    // Any number of hits in ordinal 1: never fires.
    EXPECT_TRUE(Check("scheduler.train_vehicle").ok());
    EXPECT_TRUE(Check("scheduler.train_vehicle").ok());
  }
  {
    ScopedOrdinal second(2);
    // Every hit in ordinal 2 fires, however threads interleave hits.
    EXPECT_FALSE(Check("scheduler.train_vehicle").ok());
    EXPECT_FALSE(Check("scheduler.train_vehicle").ok());
  }
  // Context hits must not advance the uncontexted counter: outside any
  // ordinal the counter starts at 1, which is not armed.
  EXPECT_TRUE(Check("scheduler.train_vehicle").ok());
}

TEST_F(FailpointsTest, ScopedOrdinalNestsAndRestores) {
  ASSERT_TRUE(Arm("ml.fit:2").ok());
  ScopedOrdinal outer(2);
  EXPECT_FALSE(Check("ml.fit").ok());
  {
    ScopedOrdinal inner(5);
    EXPECT_TRUE(Check("ml.fit").ok());
    {
      ScopedOrdinal cleared(0);  // explicit no-context
      EXPECT_TRUE(Check("ml.fit").ok());
    }
  }
  EXPECT_FALSE(Check("ml.fit").ok());  // outer ordinal restored
}

TEST_F(FailpointsTest, DisarmStopsInjectionAndZeroesNothingElse) {
  ASSERT_TRUE(Arm("ml.fit,csv.read_row").ok());
  EXPECT_FALSE(Check("ml.fit").ok());
  Disarm("ml.fit");
  EXPECT_TRUE(Check("ml.fit").ok());
  EXPECT_TRUE(Enabled());  // csv.read_row still armed
  Disarm("csv.read_row");
  EXPECT_FALSE(Enabled());
  Disarm("never.armed");  // no-op, no crash
}

TEST_F(FailpointsTest, EnvSpecIsParsedOnFirstUse) {
  ResetForTesting();
  ASSERT_EQ(setenv("NEXTMAINT_FAILPOINTS", "preprocess.aggregate:0:data", 1),
            0);
  EXPECT_TRUE(Enabled());
  EXPECT_EQ(Check("preprocess.aggregate").code(), StatusCode::kDataError);
  ASSERT_EQ(unsetenv("NEXTMAINT_FAILPOINTS"), 0);
  // The env is latched: clearing the variable does not disarm.
  EXPECT_TRUE(Enabled());
  ResetForTesting();
  EXPECT_FALSE(Enabled());
}

TEST_F(FailpointsTest, ArmMergesWithEnvSpec) {
  ResetForTesting();
  ASSERT_EQ(setenv("NEXTMAINT_FAILPOINTS", "ml.fit", 1), 0);
  ASSERT_TRUE(Arm("csv.open_file").ok());
  EXPECT_FALSE(Check("ml.fit").ok());
  EXPECT_FALSE(Check("csv.open_file").ok());
  ASSERT_EQ(unsetenv("NEXTMAINT_FAILPOINTS"), 0);
  ResetForTesting();
}

TEST(FailpointsMacroTest, MacroReturnsInjectedStatusFromEnclosingFunction) {
  DisarmAll();
  const auto guarded_status = []() -> Status {
    NEXTMAINT_FAILPOINT("ml.fit");
    return Status::OK();
  };
  const auto guarded_result = []() -> Result<int> {
    NEXTMAINT_FAILPOINT("ml.fit");
    return 42;
  };
  EXPECT_TRUE(guarded_status().ok());
  EXPECT_EQ(guarded_result().ValueOrDie(), 42);
  ASSERT_TRUE(Arm("ml.fit:0:io").ok());
  EXPECT_EQ(guarded_status().code(), StatusCode::kIOError);
  EXPECT_EQ(guarded_result().status().code(), StatusCode::kIOError);
  DisarmAll();
}

}  // namespace
}  // namespace failpoints
}  // namespace nextmaint
