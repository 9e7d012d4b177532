#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/state.h"
#include "lego/lego_fuzzer.h"
#include "minidb/eval.h"
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

TEST(FuzzerStateRoundtripTest, DeferredQueueResumesIdentically) {
  // Saved while synthesized sequences are still queued uninstantiated and
  // sequence-oriented mutants unbuilt, a LEGO fuzzer loaded into a fresh
  // instance must produce the next 200 cases of the uninterrupted one:
  // SaveState writes each deferred entry as the test case it materializes
  // to.
  const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite();
  core::LegoOptions options;
  options.rng_seed = 9;
  core::LegoFuzzer a(profile, options);
  ExecutionHarness ha(profile);
  FuzzFor(&a, &ha, 150);
  ASSERT_GT(a.deferred_in_queue().instantiations, 0u);
  ASSERT_GT(a.deferred_in_queue().mutations, 0u);
  persist::StateWriter w;
  ASSERT_TRUE(a.SaveState(&w).ok());
  ASSERT_TRUE(ha.SaveState(&w).ok());

  core::LegoFuzzer b(profile, options);
  ExecutionHarness hb(profile);
  b.Prepare(&hb);
  persist::StateReader r = persist::StateReader::FromPayload(w.buffer());
  ASSERT_TRUE(b.LoadState(&r).ok());
  ASSERT_TRUE(hb.LoadState(&r).ok());
  EXPECT_EQ(b.deferred_in_queue().instantiations, 0u);
  EXPECT_EQ(b.deferred_in_queue().mutations, 0u);
  EXPECT_EQ(b.queue_size(), a.queue_size());

  for (int i = 0; i < 200; ++i) {
    TestCase ta = a.Next();
    TestCase tb = b.Next();
    ASSERT_EQ(ta.ToSql(), tb.ToSql()) << "diverged at continuation " << i;
    ExecResult ra = ha.Run(ta);
    ExecResult rb = hb.Run(tb);
    a.OnResult(ta, ra);
    b.OnResult(tb, rb);
  }
}

TEST(FuzzerStateRoundtripTest, LoadFailingAfterTheCorpusDropsItsPointers) {
  // A state that ends right after the corpus chunk replaces the corpus and
  // then fails. The queue and the in-flight seed pointed into the old
  // corpus, so the failed load must leave neither behind.
  const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite();
  core::LegoOptions options;
  options.rng_seed = 9;
  core::LegoFuzzer a(profile, options);
  ExecutionHarness ha(profile);
  FuzzFor(&a, &ha, 150);
  persist::StateWriter w;
  ASSERT_TRUE(a.SaveState(&w).ok());

  // Walk the LEGF chunk: its 12-byte header, the 17-byte configuration
  // fingerprint, then the RNG, library, affinity, synthesizer and corpus
  // chunks. Cut there and shorten LEGF's length to match.
  std::string bytes = w.buffer();
  size_t end = 12 + 17;
  uint32_t tag = 0;
  for (int chunk = 0; chunk < 5; ++chunk) {
    ASSERT_LE(end + 12, bytes.size());
    tag = persist::LoadU32(bytes.data() + end);
    end += 12 + persist::LoadU64(bytes.data() + end + 4);
  }
  ASSERT_EQ(tag, persist::ChunkTag("CORP"));
  ASSERT_LT(end, bytes.size());
  bytes.resize(end);
  std::string length;
  persist::AppendU64(&length, end - 12);
  bytes.replace(4, 8, length);

  core::LegoFuzzer b(profile, options);
  ExecutionHarness hb(profile);
  FuzzFor(&b, &hb, 40);
  ASSERT_GT(b.queue_size(), 0u);
  ASSERT_NE(b.current_seed(), nullptr);
  persist::StateReader r = persist::StateReader::FromPayload(bytes);
  EXPECT_FALSE(b.LoadState(&r).ok());
  EXPECT_EQ(b.queue_size(), 0u);
  EXPECT_EQ(b.current_seed(), nullptr);
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

std::vector<std::string> SqlOf(const std::vector<TestCase>& cases) {
  std::vector<std::string> out;
  for (const TestCase& tc : cases) out.push_back(tc.ToSql());
  return out;
}

std::string StorageBytes(const BackendStorageStats& stats) {
  persist::StateWriter w;
  SaveStorageStats(stats, &w);
  return w.buffer();
}

// The shard result a worker ships home decodes to the campaign it ran:
// findings, coverage curve, exported corpus, storage counters and edges.
TEST(ShardOutcomeRoundtripTest, DecodedOutcomeMatchesShard) {
  const std::string dir = ::testing::TempDir() + "shard_roundtrip_db";
  std::filesystem::remove_all(dir);
  fleet::FleetConfig config;
  config.profile = "marialite";
  config.fuzzer = "lego";
  config.base_seed = 5;
  config.shard_budget = 600;
  config.oracle_spec = "tlp";
  config.backend.storage = StorageKind::kPaged;
  config.backend.db_dir = dir;
  // The planted NOT-NULL defect gives the TLP oracle logic findings to ship.
  minidb::Evaluator::SetNotNullEvalBugForTesting(true);
  auto outcome = fleet::ExecuteShard(config, 1, {}, nullptr, {});
  minidb::Evaluator::SetNotNullEvalBugForTesting(false);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const CampaignResult& sent = outcome->result;
  ASSERT_FALSE(sent.captured_cases.empty());
  ASSERT_FALSE(sent.captured_logic_cases.empty());
  ASSERT_FALSE(sent.corpus_export.empty());
  ASSERT_GT(sent.storage.wal_records, 0u);

  auto decoded =
      fleet::DecodeShardOutcome(fleet::EncodeShardOutcome(*outcome));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CampaignResult& got = decoded->result;
  EXPECT_EQ(decoded->shard_id, 1);
  EXPECT_TRUE(decoded->complete);
  EXPECT_EQ(ResultDigest(got), ResultDigest(sent));
  EXPECT_EQ(SqlOf(got.captured_cases), SqlOf(sent.captured_cases));
  EXPECT_EQ(SqlOf(got.captured_logic_cases), SqlOf(sent.captured_logic_cases));
  EXPECT_EQ(SqlOf(got.corpus_export), SqlOf(sent.corpus_export));
  EXPECT_EQ(StorageBytes(got.storage), StorageBytes(sent.storage));
  EXPECT_EQ(decoded->coverage.CoveredEdges(),
            outcome->coverage.CoveredEdges());
  EXPECT_EQ(got.edges, outcome->coverage.CoveredEdges());
}

}  // namespace
}  // namespace lego::fuzz
