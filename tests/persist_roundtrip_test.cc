#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "minidb/profile.h"
#include "persist/io.h"

namespace lego::persist {
namespace {

/// A representative enveloped payload to corrupt in various ways.
std::string SampleEnvelope() {
  StateWriter w;
  w.BeginChunk(ChunkTag("SMPL"));
  w.WriteU64(42);
  w.WriteString("hello");
  w.BeginChunk(ChunkTag("NEST"));
  w.WriteI64(-7);
  w.EndChunk();
  w.EndChunk();
  return w.EnvelopedBytes();
}

TEST(PersistEnvelopeTest, ValidEnvelopeOpens) {
  auto r = StateReader::FromEnvelope(SampleEnvelope());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->EnterChunk(ChunkTag("SMPL")).ok());
  EXPECT_EQ(r->ReadU64(), 42u);
  EXPECT_EQ(r->ReadString(), "hello");
}

TEST(PersistEnvelopeTest, RejectsBadMagic) {
  std::string bytes = SampleEnvelope();
  bytes[0] ^= 0x5a;
  EXPECT_FALSE(StateReader::FromEnvelope(bytes).ok());
}

TEST(PersistEnvelopeTest, RejectsWrongVersion) {
  std::string bytes = SampleEnvelope();
  bytes[4] = static_cast<char>(kFormatVersion + 1);  // version field
  auto r = StateReader::FromEnvelope(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(PersistEnvelopeTest, RejectsTruncation) {
  std::string bytes = SampleEnvelope();
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    EXPECT_FALSE(StateReader::FromEnvelope(bytes.substr(0, cut)).ok())
        << "truncated to " << cut;
  }
}

TEST(PersistEnvelopeTest, RejectsFlippedPayloadByte) {
  // Every single-byte corruption past the header must fail the checksum.
  const std::string good = SampleEnvelope();
  for (size_t i = 16; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] ^= 0x01;
    EXPECT_FALSE(StateReader::FromEnvelope(bytes).ok()) << "byte " << i;
  }
}

TEST(PersistEnvelopeTest, MissingFileIsCleanStatus) {
  auto r = StateReader::FromFile("/nonexistent/lego-state-file");
  EXPECT_FALSE(r.ok());
}

TEST(PersistEnvelopeTest, UnreadChunkRemainderIsSkippedOnExit) {
  // A newer writer appends trailing fields; an older reader must be able
  // to ExitChunk past them and keep reading its own data correctly.
  StateWriter w;
  w.BeginChunk(ChunkTag("NEWC"));
  w.WriteU64(1);
  w.WriteString("future field");
  w.WriteDouble(3.25);
  w.EndChunk();
  w.BeginChunk(ChunkTag("OLDC"));
  w.WriteU64(2);
  w.EndChunk();

  StateReader r = StateReader::FromPayload(w.buffer());
  ASSERT_TRUE(r.EnterChunk(ChunkTag("NEWC")).ok());
  EXPECT_EQ(r.ReadU64(), 1u);  // leaves the string + double unread
  ASSERT_TRUE(r.ExitChunk().ok());
  ASSERT_TRUE(r.EnterChunk(ChunkTag("OLDC")).ok());
  EXPECT_EQ(r.ReadU64(), 2u);
  ASSERT_TRUE(r.ExitChunk().ok());
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace lego::persist

namespace lego::fuzz {
namespace {

/// Reaches a "random" mid-campaign state: whatever corpus, library, and
/// scheduling bookkeeping `executions` runs produce from this seed.
void FuzzFor(Fuzzer* fuzzer, ExecutionHarness* harness, int executions) {
  fuzzer->Prepare(harness);
  for (int i = 0; i < executions; ++i) {
    TestCase tc = fuzzer->Next();
    ExecResult exec = harness->Run(tc);
    fuzzer->OnResult(tc, exec);
  }
}

std::string SaveBytes(const Fuzzer& fuzzer, const ExecutionHarness& harness) {
  persist::StateWriter w;
  EXPECT_TRUE(fuzzer.SaveState(&w).ok());
  EXPECT_TRUE(harness.SaveState(&w).ok());
  return w.buffer();
}

class FuzzerStateRoundtripTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FuzzerStateRoundtripTest, SecondSnapshotIsByteIdentical) {
  const std::string name = GetParam();
  const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite();
  for (uint64_t seed : {1u, 23u, 1789u}) {
    auto original =
        fleet::MakeFleetFuzzer(name, minidb::DialectProfile::PgLite(), seed);
    ExecutionHarness harness(profile);
    FuzzFor(original.get(), &harness, 200);
    const std::string first = SaveBytes(*original, harness);

    auto restored =
        fleet::MakeFleetFuzzer(name, minidb::DialectProfile::PgLite(), seed);
    ExecutionHarness harness2(profile);
    restored->Prepare(&harness2);
    persist::StateReader r = persist::StateReader::FromPayload(first);
    ASSERT_TRUE(restored->LoadState(&r).ok()) << name << " seed " << seed;
    ASSERT_TRUE(harness2.LoadState(&r).ok());
    EXPECT_EQ(first, SaveBytes(*restored, harness2))
        << name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFuzzers, FuzzerStateRoundtripTest,
                         ::testing::Values("lego", "lego-", "squirrel",
                                           "sqlancer", "sqlsmith"));

TEST(FuzzerStateRoundtripTest, RestoredFuzzerContinuesIdentically) {
  // Beyond byte-identity of the snapshot: the restored fuzzer must produce
  // the same future as the original.
  const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite();
  auto a = fleet::MakeFleetFuzzer("lego", profile, 5);
  ExecutionHarness ha(profile);
  FuzzFor(a.get(), &ha, 300);
  persist::StateWriter w;
  ASSERT_TRUE(a->SaveState(&w).ok());
  ASSERT_TRUE(ha.SaveState(&w).ok());

  auto b = fleet::MakeFleetFuzzer("lego", profile, 5);
  ExecutionHarness hb(profile);
  b->Prepare(&hb);
  persist::StateReader r = persist::StateReader::FromPayload(w.buffer());
  ASSERT_TRUE(b->LoadState(&r).ok());
  ASSERT_TRUE(hb.LoadState(&r).ok());

  for (int i = 0; i < 100; ++i) {
    TestCase ta = a->Next();
    TestCase tb = b->Next();
    ASSERT_EQ(ta.ToSql(), tb.ToSql()) << "diverged at continuation " << i;
    ExecResult ra = ha.Run(ta);
    ExecResult rb = hb.Run(tb);
    ASSERT_EQ(ra.new_coverage, rb.new_coverage);
    ASSERT_EQ(ra.total_edges, rb.total_edges);
    a->OnResult(ta, ra);
    b->OnResult(tb, rb);
  }
}

TEST(CampaignResultRoundtripTest, SecondSnapshotIsByteIdentical) {
  auto fuzzer =
      fleet::MakeFleetFuzzer("lego", minidb::DialectProfile::PgLite(), 11);
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  CampaignOptions options;
  options.max_executions = 800;
  options.snapshot_every = 100;
  CampaignResult result = RunCampaign(fuzzer.get(), &harness, options);
  ASSERT_TRUE(result.state_status.ok());

  persist::StateWriter w1;
  ASSERT_TRUE(SaveCampaignResult(result, &w1).ok());
  persist::StateReader r = persist::StateReader::FromPayload(w1.buffer());
  CampaignResult loaded;
  ASSERT_TRUE(LoadCampaignResult(&r, &loaded).ok());
  persist::StateWriter w2;
  ASSERT_TRUE(SaveCampaignResult(loaded, &w2).ok());
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(ResultDigest(result), ResultDigest(loaded));
}

}  // namespace
}  // namespace lego::fuzz
