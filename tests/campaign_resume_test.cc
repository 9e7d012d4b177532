#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/harness.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

std::unique_ptr<core::LegoFuzzer> MakeLego(uint64_t seed) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return std::make_unique<core::LegoFuzzer>(minidb::DialectProfile::PgLite(),
                                            options);
}

/// Fresh scratch directory per test.
std::string StateDir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / ("lego_resume_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

CampaignResult RunOne(const CampaignOptions& options, uint64_t seed) {
  auto fuzzer = MakeLego(seed);
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  return RunCampaign(fuzzer.get(), &harness, options);
}

/// Interruption is emulated deterministically by budget: checkpoint a run
/// stopped at `partial` executions, then resume it to `full`. The
/// fingerprint deliberately excludes max_executions, so this is a
/// supported resume — and it exercises exactly the load path a killed
/// process would take.
TEST(CampaignResumeTest, SerialResumeIsBitIdenticalToUninterrupted) {
  const std::string dir = StateDir("serial");
  CampaignOptions base;
  base.snapshot_every = 100;

  CampaignOptions uninterrupted = base;
  uninterrupted.max_executions = 900;
  CampaignResult full = RunOne(uninterrupted, 7);
  ASSERT_TRUE(full.state_status.ok()) << full.state_status.ToString();

  CampaignOptions first_half = base;
  first_half.max_executions = 450;
  first_half.state_dir = dir;
  CampaignResult partial = RunOne(first_half, 7);
  ASSERT_TRUE(partial.state_status.ok()) << partial.state_status.ToString();
  EXPECT_EQ(partial.executions, 450);

  CampaignOptions second_half = base;
  second_half.max_executions = 900;
  second_half.state_dir = dir;
  second_half.resume = true;
  CampaignResult resumed = RunOne(second_half, 7);
  ASSERT_TRUE(resumed.state_status.ok()) << resumed.state_status.ToString();

  EXPECT_EQ(resumed.executions, full.executions);
  EXPECT_EQ(resumed.edges, full.edges);
  EXPECT_EQ(resumed.coverage_curve, full.coverage_curve);
  EXPECT_EQ(resumed.crash_hashes, full.crash_hashes);
  EXPECT_EQ(resumed.bug_ids, full.bug_ids);
  EXPECT_EQ(resumed.affinities, full.affinities);
  EXPECT_EQ(ResultDigest(resumed), ResultDigest(full));
  std::filesystem::remove_all(dir);
}

TEST(CampaignResumeTest, SerialMidRunCheckpointsResumeIdentically) {
  // Checkpoint cadence on: the resumed run must also write/refresh state
  // without perturbing the fuzzing schedule.
  const std::string dir = StateDir("serial_ckpt");
  CampaignOptions base;
  base.snapshot_every = 100;
  base.checkpoint_every = 100;

  CampaignOptions uninterrupted = base;
  uninterrupted.max_executions = 600;
  CampaignResult full = RunOne(uninterrupted, 3);

  CampaignOptions first = base;
  first.max_executions = 200;
  first.state_dir = dir;
  ASSERT_TRUE(RunOne(first, 3).state_status.ok());

  CampaignOptions rest = base;
  rest.max_executions = 600;
  rest.state_dir = dir;
  rest.resume = true;
  CampaignResult resumed = RunOne(rest, 3);
  ASSERT_TRUE(resumed.state_status.ok()) << resumed.state_status.ToString();
  EXPECT_EQ(ResultDigest(resumed), ResultDigest(full));
  std::filesystem::remove_all(dir);
}

TEST(CampaignResumeTest, ResumeOfCompleteCampaignReturnsStoredResult) {
  const std::string dir = StateDir("complete");
  CampaignOptions options;
  options.max_executions = 300;
  options.snapshot_every = 100;
  options.state_dir = dir;
  CampaignResult first = RunOne(options, 9);
  ASSERT_TRUE(first.state_status.ok());

  options.resume = true;
  CampaignResult again = RunOne(options, 9);
  ASSERT_TRUE(again.state_status.ok()) << again.state_status.ToString();
  EXPECT_EQ(again.executions, 300);
  EXPECT_EQ(ResultDigest(again), ResultDigest(first));
  std::filesystem::remove_all(dir);
}

TEST(CampaignResumeTest, MismatchedConfigurationIsRejected) {
  const std::string dir = StateDir("mismatch");
  CampaignOptions options;
  options.max_executions = 200;
  options.snapshot_every = 100;
  options.state_dir = dir;
  ASSERT_TRUE(RunOne(options, 1).state_status.ok());

  // Different snapshot cadence — same fuzzer/profile, still refused.
  CampaignOptions other = options;
  other.snapshot_every = 50;
  other.resume = true;
  CampaignResult rejected = RunOne(other, 1);
  EXPECT_FALSE(rejected.state_status.ok());
  EXPECT_EQ(rejected.executions, 0);

  // Different fuzzer under the same state dir, also refused.
  core::LegoOptions ablation;
  ablation.sequence_algorithms_enabled = false;
  ablation.rng_seed = 1;
  core::LegoFuzzer lego_minus(minidb::DialectProfile::PgLite(), ablation);
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  CampaignOptions resume_options = options;
  resume_options.resume = true;
  CampaignResult wrong = RunCampaign(&lego_minus, &harness, resume_options);
  EXPECT_FALSE(wrong.state_status.ok());
  EXPECT_EQ(wrong.executions, 0);
  std::filesystem::remove_all(dir);
}

TEST(CampaignResumeTest, MissingStateDirFailsResumeCleanly) {
  CampaignOptions options;
  options.max_executions = 100;
  options.state_dir = StateDir("missing");  // removed, never created
  options.resume = true;
  CampaignResult result = RunOne(options, 1);
  EXPECT_FALSE(result.state_status.ok());
  EXPECT_EQ(result.executions, 0);
}

}  // namespace
}  // namespace lego::fuzz
