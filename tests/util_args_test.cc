#include "util/args.h"

#include <gtest/gtest.h>

namespace veritas {
namespace {

Result<ArgMap> ParseVec(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgMap::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgMapTest, EmptyCommandLine) {
  const auto args = ParseVec({});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->command().empty());
}

TEST(ArgMapTest, CommandOnly) {
  const auto args = ParseVec({"stats"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->command(), "stats");
}

TEST(ArgMapTest, KeyValueOptions) {
  const auto args = ParseVec({"fuse", "--data", "obs.csv", "--model", "accu"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->command(), "fuse");
  EXPECT_EQ(args->GetString("data"), "obs.csv");
  EXPECT_EQ(args->GetString("model"), "accu");
  EXPECT_EQ(args->GetString("missing", "fallback"), "fallback");
}

TEST(ArgMapTest, BooleanFlags) {
  const auto args = ParseVec({"fuse", "--verbose", "--data", "x.csv"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("verbose"));
  EXPECT_FALSE(args->GetBool("quiet"));
}

TEST(ArgMapTest, TrailingFlag) {
  const auto args = ParseVec({"fuse", "--data", "x.csv", "--dry-run"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("dry-run"));
}

TEST(ArgMapTest, IntOption) {
  const auto args = ParseVec({"session", "--budget", "25"});
  ASSERT_TRUE(args.ok());
  const auto budget = args->GetInt("budget", 10);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, 25);
  const auto fallback = args->GetInt("other", 7);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 7);
}

TEST(ArgMapTest, BadIntIsError) {
  const auto args = ParseVec({"session", "--budget", "many"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetInt("budget", 10).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ArgMapTest, DoubleOption) {
  const auto args = ParseVec({"generate", "--density", "0.36"});
  ASSERT_TRUE(args.ok());
  const auto density = args->GetDouble("density", 0.5);
  ASSERT_TRUE(density.ok());
  EXPECT_DOUBLE_EQ(*density, 0.36);
}

TEST(ArgMapTest, BadDoubleIsError) {
  const auto args = ParseVec({"generate", "--density", "dense"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetDouble("density", 0.5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ArgMapTest, SecondPositionalRejected) {
  const auto args = ParseVec({"fuse", "extra"});
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArgMapTest, EmptyOptionNameRejected) {
  const auto args = ParseVec({"fuse", "--"});
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArgMapTest, KeysEnumeration) {
  const auto args = ParseVec({"x", "--b", "1", "--a", "2"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->Keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(ArgMapTest, LastOccurrenceWins) {
  const auto args = ParseVec({"x", "--k", "1", "--k", "2"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetString("k"), "2");
}

TEST(ArgMapTest, RejectUnreadNamesEveryUnreadKey) {
  const auto args = ParseVec(
      {"session", "--budget", "5", "--retired", "4", "--bogus-flag", "3"});
  ASSERT_TRUE(args.ok());
  ASSERT_TRUE(args->GetInt("budget", 20).ok());
  const Status status = args->RejectUnread();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--bogus-flag"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("--retired"), std::string::npos) << status;
  EXPECT_NE(status.message().find("session"), std::string::npos) << status;
  EXPECT_EQ(status.message().find("--budget"), std::string::npos) << status;
}

TEST(ArgMapTest, EveryLookupCountsAsRead) {
  // A malformed value is the command's error to report, not an unknown
  // option, so a failed parse counts as a read too.
  const auto args = ParseVec({"x", "--s", "a", "--i", "1", "--d", "bad",
                              "--b", "--h", "v"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetString("s"), "a");
  ASSERT_TRUE(args->GetInt("i", 0).ok());
  EXPECT_FALSE(args->GetDouble("d", 0.0).ok());
  EXPECT_TRUE(args->GetBool("b"));
  EXPECT_FALSE(args->RejectUnread().ok());  // --h not read yet.
  EXPECT_TRUE(args->Has("h"));
  EXPECT_TRUE(args->RejectUnread().ok());
}

}  // namespace
}  // namespace veritas
