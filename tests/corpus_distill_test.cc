#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/squirrel_like.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus_file.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

std::unique_ptr<core::LegoFuzzer> MakeLego(
    uint64_t seed,
    const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite()) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return std::make_unique<core::LegoFuzzer>(profile, options);
}

/// Whatever a short campaign of `fuzzer` accumulates.
std::vector<TestCase> CampaignCorpus(Fuzzer* fuzzer,
                                     const minidb::DialectProfile& profile,
                                     int executions) {
  ExecutionHarness harness(profile);
  CampaignOptions options;
  options.max_executions = executions;
  options.export_corpus = true;
  CampaignResult result = RunCampaign(fuzzer, &harness, options);
  return std::move(result.corpus_export);
}

/// A realistic donor corpus: what a short pglite LEGO campaign accumulates.
std::vector<TestCase> DonorCorpus(uint64_t seed, int executions) {
  auto fuzzer = MakeLego(seed);
  return CampaignCorpus(fuzzer.get(), minidb::DialectProfile::PgLite(),
                        executions);
}

/// The three-pass distillation as it stood before footprints: every case
/// replayed for its solo edge count, every case replayed again largest
/// first, then the kept cases replayed to verify. Kept verbatim as the
/// reference the one-replay DistillCorpus must agree with case for case.
std::vector<TestCase> ThreePassDistill(const std::vector<TestCase>& cases,
                                       ExecutionHarness* harness,
                                       DistillStats* stats) {
  DistillStats local;
  local.original_cases = cases.size();

  // Pass 1: each case's solo footprint, measured against an empty map.
  std::vector<size_t> solo_edges(cases.size(), 0);
  for (size_t i = 0; i < cases.size(); ++i) {
    harness->ResetCoverage();
    harness->Run(cases[i]);
    ++local.replays;
    solo_edges[i] = harness->CoveredEdges();
  }

  // Largest-footprint-first is the classic cmin greedy: big cases swallow
  // the common edges early, so small cases only survive on genuinely rare
  // coverage. Stable tie-break on input order keeps the result
  // deterministic.
  std::vector<size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return solo_edges[a] > solo_edges[b];
  });

  // Pass 2: greedy set cover — replay in that order, keep a case iff it
  // still reaches an edge nothing kept before it did. Every case runs, so
  // the map afterwards holds the full corpus union.
  std::vector<bool> keep(cases.size(), false);
  harness->ResetCoverage();
  for (size_t i : order) {
    ExecResult exec = harness->Run(cases[i]);
    ++local.replays;
    keep[i] = exec.new_coverage;
  }
  local.original_edges = harness->CoveredEdges();

  // Pass 3: the kept subset alone, verifying nothing was lost (and
  // producing the number a caller can compare against a donor campaign).
  std::vector<TestCase> kept;
  harness->ResetCoverage();
  for (size_t i = 0; i < cases.size(); ++i) {
    if (!keep[i]) continue;
    harness->Run(cases[i]);
    ++local.replays;
    kept.push_back(cases[i].Clone());
  }
  local.kept_edges = harness->CoveredEdges();
  local.kept_cases = kept.size();
  harness->ResetCoverage();

  if (stats != nullptr) *stats = local;
  return kept;
}

std::vector<std::string> SqlOf(const std::vector<TestCase>& cases) {
  std::vector<std::string> out;
  for (const TestCase& tc : cases) out.push_back(tc.ToSql());
  return out;
}

TEST(CorpusFileTest, SaveLoadRoundTripsEveryCase) {
  std::vector<TestCase> donor = DonorCorpus(3, 1500);
  ASSERT_FALSE(donor.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "lego_corpus_rt.bin").string();
  ASSERT_TRUE(SaveCorpusFile(donor, path).ok());
  auto loaded = LoadCorpusFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), donor.size());
  for (size_t i = 0; i < donor.size(); ++i) {
    EXPECT_EQ((*loaded)[i].ToSql(), donor[i].ToSql()) << "case " << i;
  }
  std::filesystem::remove(path);
}

TEST(CorpusFileTest, CorruptedFileIsRejected) {
  std::vector<TestCase> donor = DonorCorpus(3, 400);
  const std::string path =
      (std::filesystem::temp_directory_path() / "lego_corpus_bad.bin")
          .string();
  ASSERT_TRUE(SaveCorpusFile(donor, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte ^= 0x20;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(LoadCorpusFile(path).ok());
  std::filesystem::remove(path);
}

TEST(CorpusDistillTest, KeepsAllEdgesWithStrictlyFewerCases) {
  std::vector<TestCase> donor = DonorCorpus(7, 3000);
  ASSERT_GT(donor.size(), 10u);

  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  DistillStats stats;
  std::vector<TestCase> kept = DistillCorpus(donor, &harness, &stats);

  EXPECT_EQ(stats.original_cases, donor.size());
  EXPECT_EQ(stats.kept_cases, kept.size());
  // The acceptance bar: strictly smaller, identical edge union.
  EXPECT_LT(kept.size(), donor.size());
  EXPECT_GT(stats.original_edges, 0u);
  EXPECT_EQ(stats.kept_edges, stats.original_edges);
  // One replay per case for its footprint, one per kept case to verify.
  EXPECT_EQ(stats.replays, donor.size() + kept.size());

  // Independent check on a fresh harness: the kept subset alone reaches
  // the full union.
  ExecutionHarness fresh(minidb::DialectProfile::PgLite());
  for (const TestCase& tc : kept) fresh.Run(tc);
  EXPECT_EQ(fresh.CoveredEdges(), stats.original_edges);
}

TEST(CorpusDistillTest, DistillationIsDeterministic) {
  std::vector<TestCase> donor = DonorCorpus(11, 1200);
  ExecutionHarness h1(minidb::DialectProfile::PgLite());
  ExecutionHarness h2(minidb::DialectProfile::PgLite());
  DistillStats s1, s2;
  std::vector<TestCase> k1 = DistillCorpus(donor, &h1, &s1);
  std::vector<TestCase> k2 = DistillCorpus(donor, &h2, &s2);
  ASSERT_EQ(k1.size(), k2.size());
  for (size_t i = 0; i < k1.size(); ++i) {
    EXPECT_EQ(k1[i].ToSql(), k2[i].ToSql());
  }
  EXPECT_EQ(s1.kept_edges, s2.kept_edges);
}

TEST(CorpusDistillTest, MatchesThreePassReference) {
  struct Donor {
    const char* profile;
    const char* fuzzer;
    uint64_t seed;
  };
  for (const Donor& d : {Donor{"pglite", "lego", 1}, Donor{"mylite", "lego", 2},
                         Donor{"marialite", "lego", 3},
                         Donor{"pglite", "squirrel", 4}}) {
    SCOPED_TRACE(std::string(d.profile) + " " + d.fuzzer);
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName(d.profile);
    ASSERT_NE(profile, nullptr);
    std::unique_ptr<Fuzzer> fuzzer;
    if (std::string(d.fuzzer) == "lego") {
      fuzzer = MakeLego(d.seed, *profile);
    } else {
      fuzzer =
          std::make_unique<baselines::SquirrelLikeFuzzer>(*profile, d.seed);
    }
    std::vector<TestCase> donor = CampaignCorpus(fuzzer.get(), *profile, 2000);
    ASSERT_GT(donor.size(), 10u);

    ExecutionHarness ref_harness(*profile);
    DistillStats ref_stats;
    std::vector<TestCase> ref = ThreePassDistill(donor, &ref_harness,
                                                 &ref_stats);
    ExecutionHarness harness(*profile);
    DistillStats stats;
    std::vector<TestCase> kept = DistillCorpus(donor, &harness, &stats);

    EXPECT_EQ(SqlOf(kept), SqlOf(ref));
    EXPECT_EQ(stats.original_edges, ref_stats.original_edges);
    EXPECT_EQ(stats.kept_edges, ref_stats.kept_edges);
    EXPECT_EQ(stats.kept_cases, ref_stats.kept_cases);
  }
}

TEST(CorpusDistillTest, FootprintDoesNotDependOnEarlierCases) {
  // A distill that replays each case once and reuses the result rests on
  // this: the coverage a case leaves is the same on a harness that ran
  // hundreds of other cases first as on a fresh one.
  std::vector<TestCase> donor = DonorCorpus(5, 3000);
  ASSERT_GT(donor.size(), 200u);
  ExecutionHarness long_lived(minidb::DialectProfile::PgLite());
  for (const TestCase& tc : donor) long_lived.Run(tc);
  for (size_t i = donor.size(); i-- > 0;) {
    ExecutionHarness fresh(minidb::DialectProfile::PgLite());
    const CaseFootprint late = FootprintCase(donor[i], &long_lived);
    const CaseFootprint first = FootprintCase(donor[i], &fresh);
    EXPECT_EQ(late.words, first.words) << "case " << i;
    EXPECT_EQ(late.bits, first.bits) << "case " << i;
    // The footprint's edge count is the case's solo edge count.
    EXPECT_EQ(late.edges, fresh.CoveredEdges()) << "case " << i;
  }
}

TEST(CorpusDistillTest, ImportedCorpusAcceleratesFreshCampaign) {
  // Cross-campaign reuse: a fresh campaign seeded with a donor's distilled
  // corpus must reach more coverage than the same budget from scratch.
  std::vector<TestCase> donor = DonorCorpus(7, 3000);
  ExecutionHarness distill_harness(minidb::DialectProfile::PgLite());
  DistillStats stats;
  std::vector<TestCase> kept =
      DistillCorpus(donor, &distill_harness, &stats);

  CampaignOptions options;
  options.max_executions = 600;

  auto cold = MakeLego(21);
  ExecutionHarness cold_harness(minidb::DialectProfile::PgLite());
  CampaignResult from_scratch = RunCampaign(cold.get(), &cold_harness,
                                            options);

  options.import_seeds = &kept;
  auto warm = MakeLego(21);
  ExecutionHarness warm_harness(minidb::DialectProfile::PgLite());
  CampaignResult with_import = RunCampaign(warm.get(), &warm_harness,
                                           options);

  EXPECT_GT(with_import.edges, from_scratch.edges);
  EXPECT_GE(with_import.fuzzer_stats.corpus_seeds, kept.size());
}

}  // namespace
}  // namespace lego::fuzz
