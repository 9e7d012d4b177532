// Checkpoint recovery: a torn, bit-rotted or old-layout campaign.state must
// be refused cleanly on resume (never half-loaded, never silently restarted),
// and chaos-injected mid-run checkpoint write failures must be tolerated —
// the campaign continues to the bit-identical result an uninterrupted one
// produces, and its final state stays resumable.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "chaos/failpoint.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/harness.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"
#include "persist/io.h"

namespace lego::fuzz {
namespace {

namespace fsys = std::filesystem;

std::unique_ptr<core::LegoFuzzer> MakeLego(uint64_t seed) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return std::make_unique<core::LegoFuzzer>(minidb::DialectProfile::PgLite(),
                                            options);
}

/// Fresh scratch directory per test.
std::string StateDir(const std::string& name) {
  auto dir = fsys::temp_directory_path() / ("lego_recovery_" + name);
  fsys::remove_all(dir);
  return dir.string();
}

CampaignResult RunOne(const CampaignOptions& options, uint64_t seed) {
  auto fuzzer = MakeLego(seed);
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  return RunCampaign(fuzzer.get(), &harness, options);
}

CampaignOptions Base() {
  CampaignOptions base;
  base.snapshot_every = 128;
  base.checkpoint_every = 64;
  return base;
}

void TruncateFile(const std::string& path, size_t keep) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), keep);
  bytes.resize(keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipLastByte(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Checkpoints a campaign at 256 executions, damages its state via
/// `damage`, then requires a resume to 512 to refuse: state_status set and
/// nothing executed.
void ExpectDamagedStateRefused(
    const std::string& dir_name,
    const std::function<void(const std::string&)>& damage) {
  const std::string dir = StateDir(dir_name);
  CampaignOptions partial = Base();
  partial.max_executions = 256;
  partial.state_dir = dir;
  CampaignResult first = RunOne(partial, 11);
  ASSERT_TRUE(first.state_status.ok()) << first.state_status.ToString();

  damage(SerialStatePath(dir));

  CampaignOptions rest = Base();
  rest.max_executions = 512;
  rest.state_dir = dir;
  rest.resume = true;
  CampaignResult resumed = RunOne(rest, 11);
  EXPECT_FALSE(resumed.state_status.ok());
  EXPECT_EQ(resumed.executions, 0);  // refused, not silently restarted
  fsys::remove_all(dir);
}

TEST(CheckpointRecoveryTest, TruncatedStateIsRefused) {
  ExpectDamagedStateRefused("torn", [](const std::string& path) {
    TruncateFile(path, 40);  // torn mid-write
  });
}

TEST(CheckpointRecoveryTest, ChecksumFlipIsRefused) {
  ExpectDamagedStateRefused("bad_checksum", [](const std::string& path) {
    FlipLastByte(path);  // bit rot: checksum mismatch
  });
}

TEST(CheckpointRecoveryTest, OldFingerprintLayoutIsRefused) {
  // State files from older layouts must be refused with a version error,
  // not misread as the current layout: version 1 (which carried the
  // thread-pool worker count and sync cadence) and version 2 (captured
  // logic bugs wrote their session count as I64).
  ExpectDamagedStateRefused("old_layout_v1", [](const std::string& path) {
    persist::StateWriter w;
    w.BeginChunk(persist::ChunkTag("CFGF"));
    w.WriteString("lego");
    w.WriteString("pglite");
    w.WriteI64(0);     // max_statements
    w.WriteI64(128);   // snapshot_every
    w.WriteBool(false);
    w.WriteI64(4);     // worker count (version 1 only)
    w.WriteI64(256);   // sync cadence (version 1 only)
    w.WriteI64(64);    // checkpoint_every
    w.EndChunk();
    ASSERT_TRUE(w.WriteFileAtomic(path).ok());
  });
  ExpectDamagedStateRefused("old_layout_v2", [](const std::string& path) {
    persist::StateWriter w;
    w.BeginChunk(persist::ChunkTag("CFGF"));
    w.WriteU32(2);     // layout version
    w.WriteString("lego");
    w.WriteString("pglite");
    w.WriteI64(0);     // max_statements
    w.WriteI64(128);   // snapshot_every
    w.WriteBool(false);
    w.WriteI64(64);    // checkpoint_every
    w.EndChunk();
    ASSERT_TRUE(w.WriteFileAtomic(path).ok());
  });
}

TEST(CheckpointRecoveryTest, SerialMidRunCheckpointFailureIsTolerated) {
  chaos::DisarmAll();
  CampaignOptions plain;
  plain.max_executions = 400;
  plain.snapshot_every = 100;
  CampaignResult full = RunOne(plain, 3);

  const std::string dir = StateDir("serial_chaos");
  CampaignOptions governed = plain;
  governed.state_dir = dir;
  governed.checkpoint_every = 100;
  // First atomic-write rename is injected to fail: the first mid-run
  // checkpoint is lost, the campaign must warn-and-continue.
  ASSERT_TRUE(chaos::ArmSpec("persist.rename=nth:1", 5).ok());
  CampaignResult result = RunOne(governed, 3);
  chaos::DisarmAll();

  ASSERT_TRUE(result.state_status.ok()) << result.state_status.ToString();
  EXPECT_EQ(result.checkpoints_failed, 1);
  EXPECT_EQ(ResultDigest(result), ResultDigest(full));

  // The surviving state is resumable: raising the budget continues from
  // the final save exactly as if no checkpoint had ever failed.
  CampaignOptions more = plain;
  more.max_executions = 600;
  more.state_dir = dir;
  more.checkpoint_every = 100;
  more.resume = true;
  CampaignResult resumed = RunOne(more, 3);
  ASSERT_TRUE(resumed.state_status.ok()) << resumed.state_status.ToString();

  CampaignOptions plain_long = plain;
  plain_long.max_executions = 600;
  CampaignResult full_long = RunOne(plain_long, 3);
  EXPECT_EQ(ResultDigest(resumed), ResultDigest(full_long));
  fsys::remove_all(dir);
}

}  // namespace
}  // namespace lego::fuzz
