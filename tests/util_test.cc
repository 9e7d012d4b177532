#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/flags.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace lego {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  EXPECT_EQ(Status::SyntaxError("x").code(), StatusCode::kSyntaxError);
  EXPECT_EQ(Status::SemanticError("x").code(), StatusCode::kSemanticError);
  EXPECT_EQ(Status::ConstraintViolation("x").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::PermissionDenied("x").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(Status::TransactionError("x").code(),
            StatusCode::kTransactionError);
  EXPECT_EQ(Status::Crash("x").code(), StatusCode::kCrash);
  EXPECT_EQ(Status::Internal("boom").ToString(), "Internal: boom");
  EXPECT_TRUE(Status::Crash("x").IsCrash());
  EXPECT_FALSE(Status::NotFound("x").IsCrash());
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> bad(Status::NotFound("gone"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MacrosPropagate) {
  auto inner = [](bool fail) -> StatusOr<int> {
    if (fail) return Status::InvalidArgument("nope");
    return 7;
  };
  auto outer = [&](bool fail) -> StatusOr<int> {
    LEGO_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(9);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25);
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, IdentifiersAreValid) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::string id = rng.NextIdentifier(8);
    ASSERT_FALSE(id.empty());
    EXPECT_LE(id.size(), 8u);
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(id[0])));
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(HashTest, Fnv1aIsStableAndDistinct) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
  static_assert(Fnv1a64("x") != Fnv1a64("y"), "constexpr evaluation");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, QuoteSqlStringEscapesQuotes) {
  EXPECT_EQ(QuoteSqlString("abc"), "'abc'");
  EXPECT_EQ(QuoteSqlString("it's"), "'it''s'");
  EXPECT_EQ(QuoteSqlString(""), "''");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

// --- flags ------------------------------------------------------------------

/// A table with one destination of each kind, parsed from a literal argv.
struct FlagFixture {
  bool on = false;
  int count = 0;
  uint64_t seed = 0;
  double prob = 0;
  std::string dir;
  std::vector<std::string> list;
  std::string mode;
  std::vector<std::string> positionals;

  flags::CommandLine Cli() {
    return {"tool [flags]",
            {{"on", &on, "", "a switch"},
             {"count", &count, "N", "an int"},
             {"seed", &seed, "S", "a uint64"},
             {"prob", &prob, "P", "a double"},
             {"dir", &dir, "DIR", "a string"},
             {"list", &list, "X", "repeatable"},
             {"mode",
              [this](std::string_view v) {
                if (v != "a" && v != "b") {
                  return Status::InvalidArgument("unknown mode");
                }
                mode = std::string(v);
                return Status::OK();
              },
              "a|b", "an enum"}}};
  }

  Status Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return Cli().Parse(static_cast<int>(args.size()), args.data(),
                       &positionals);
  }
};

TEST(FlagsTest, SpaceAndEqualsFormsAreEquivalent) {
  FlagFixture spaced, joined;
  ASSERT_TRUE(spaced.Parse({"--count", "7", "--seed", "9", "--prob", "0.5",
                            "--dir", "d", "--mode", "b", "--on"})
                  .ok());
  ASSERT_TRUE(joined.Parse({"--count=7", "--seed=9", "--prob=0.5", "--dir=d",
                            "--mode=b", "--on"})
                  .ok());
  for (const FlagFixture* f : {&spaced, &joined}) {
    EXPECT_TRUE(f->on);
    EXPECT_EQ(f->count, 7);
    EXPECT_EQ(f->seed, 9u);
    EXPECT_EQ(f->prob, 0.5);
    EXPECT_EQ(f->dir, "d");
    EXPECT_EQ(f->mode, "b");
  }
  // A value may itself contain '=' or start with '-'.
  FlagFixture odd;
  ASSERT_TRUE(odd.Parse({"--dir=a=b", "--count", "-3"}).ok());
  EXPECT_EQ(odd.dir, "a=b");
  EXPECT_EQ(odd.count, -3);
}

TEST(FlagsTest, StructuralErrorsAreRejected) {
  for (std::vector<const char*> args :
       std::vector<std::vector<const char*>>{{"--count"},      // no value
                                             {"--bogus"},      // unknown
                                             {"--bogus=1"},    // unknown
                                             {"-x"},           // unknown
                                             {"--"},           // unknown
                                             {"--on=1"},       // switch
                                             {"--mode", "c"}}  // setter
  ) {
    FlagFixture f;
    Status st = f.Parse(args);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << args[0];
  }
}

TEST(FlagsTest, MalformedNumbersAreRejected) {
  for (const char* bad : {"abc", "7x", "", " 7", "2147483648"}) {
    FlagFixture f;
    EXPECT_FALSE(f.Parse({"--count", bad}).ok()) << bad;
    EXPECT_EQ(f.count, 0) << bad;
  }
  for (const char* bad :
       {"abc", "7x", "", "-1", "18446744073709551616"}) {
    FlagFixture f;
    EXPECT_FALSE(f.Parse({"--seed", bad}).ok()) << bad;
    EXPECT_EQ(f.seed, 0u) << bad;
  }
  for (const char* bad : {"abc", "2x", "", "nan", "inf", "1e999"}) {
    FlagFixture f;
    EXPECT_FALSE(f.Parse({"--prob", bad}).ok()) << bad;
  }
  uint64_t max = 0;
  EXPECT_TRUE(flags::ParseUint64("18446744073709551615", &max).ok());
  EXPECT_EQ(max, UINT64_MAX);
  int min = 0;
  EXPECT_TRUE(flags::ParseInt("-2147483648", &min).ok());
  EXPECT_EQ(min, INT32_MIN);
}

TEST(FlagsTest, ListsAppendAndPositionalsKeepOrder) {
  FlagFixture f;
  ASSERT_TRUE(
      f.Parse({"p0", "--list", "x", "p1", "--list=y", "", "--list", "x", "p2"})
          .ok());
  EXPECT_EQ(f.list, (std::vector<std::string>{"x", "y", "x"}));
  EXPECT_EQ(f.positionals, (std::vector<std::string>{"p0", "p1", "", "p2"}));
}

TEST(FlagsTest, UsageListsEveryFlag) {
  FlagFixture f;
  const std::string usage = f.Cli().Usage();
  EXPECT_EQ(usage.rfind("usage: tool [flags]\n", 0), 0u);
  for (const char* line : {"--on ", "--count N ", "--mode a|b ", "--list X "}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace lego
