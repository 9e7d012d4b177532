// Backend parity: a forked child driven over the pipe protocol must be
// observationally identical to the embedded in-process engine — same
// executed / rejected / crash stream for the same test cases. This is the
// contract that makes campaign and triage results backend-agnostic.
//
// Coverage parity holds for parse-normal test cases (anything that came
// from SQL text). Raw generated ASTs can differ from their own printed
// form in literal representation — e.g. Literal(-12) prints as "-12" and
// re-parses as unary-minus over Literal(12) — so the forked child, which
// executes the wire-format SQL text, can touch a small superset of eval
// edges. The first suite pins the strict statement-outcome parity on raw
// cases; the second pins *full* parity (coverage included) on normalized
// cases, proving the pipe protocol itself loses nothing. The last two also
// run on paged storage (equal WAL and commit counters) and compare what
// oracles read: the rows of every SELECT re-run inside an oracle bracket,
// and the first column of every table a case creates.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "fuzz/backend.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"
#include "sql/ast.h"

namespace lego::fuzz {
namespace {

constexpr int kCases = 200;

struct ParityOptions {
  /// Re-parse each generated case from its own SQL before running it, so
  /// both backends execute structurally identical statements.
  bool normalize = false;
  /// Also require identical coverage feedback (normalized cases only).
  bool compare_coverage = false;
  /// Run both backends on paged storage, each in its own directory, and
  /// require equal WAL and commit counters after the last case.
  bool paged = false;
  /// After each case, re-run its SELECTs with rows requested inside an
  /// OracleSession and compare the rows, and compare FirstColumnOf for
  /// every table the case creates.
  bool compare_oracle_reads = false;
};

/// The oracle's view of one backend after a case: each SELECT's outcome
/// and rows under the oracle bracket, then the first column of each table
/// the case creates.
std::vector<std::string> OracleReads(DbBackend* backend, const TestCase& tc) {
  std::vector<std::string> reads;
  OracleSession session(backend);
  for (const sql::StmtPtr& stmt : tc.statements()) {
    if (stmt->type() == sql::StatementType::kSelect) {
      StmtOutcome out = backend->Execute(*stmt, /*want_rows=*/true);
      reads.push_back("status " +
                      std::to_string(static_cast<int>(out.status)));
      for (std::string& row : out.rows) reads.push_back(std::move(row));
    } else if (stmt->type() == sql::StatementType::kCreateTable) {
      const auto& create = static_cast<const sql::CreateTableStmt&>(*stmt);
      reads.push_back("first column of " + create.name + ": " +
                      backend->FirstColumnOf(create.name).value_or("-"));
    }
  }
  return reads;
}

/// Drives kCases fuzzer-generated test cases through an in-process harness
/// and a forked harness in lockstep, comparing every ExecResult field that
/// campaigns and triage consume. The fuzzer's feedback loop is fed from the
/// in-process results, so both harnesses see the identical case stream.
void ExpectParity(const std::string& profile_name, uint64_t seed,
                  const ParityOptions& popt) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  ASSERT_NE(profile, nullptr);

  core::LegoOptions options;
  options.rng_seed = seed;
  core::LegoFuzzer fuzzer(*profile, options);

  BackendOptions inproc_options;
  BackendOptions forked_options;
  forked_options.kind = BackendKind::kForked;
  const std::string dir_prefix = ::testing::TempDir() + "parity_" +
                                 profile_name + "_" + std::to_string(seed);
  if (popt.paged) {
    inproc_options.storage = forked_options.storage = StorageKind::kPaged;
    inproc_options.db_dir = dir_prefix + "_inproc";
    forked_options.db_dir = dir_prefix + "_forked";
    std::filesystem::remove_all(inproc_options.db_dir);
    std::filesystem::remove_all(forked_options.db_dir);
  }
  ExecutionHarness inproc(*profile, inproc_options);
  ExecutionHarness forked(*profile, forked_options);

  fuzzer.Prepare(&inproc);
  for (int i = 0; i < kCases; ++i) {
    TestCase generated = fuzzer.Next();
    TestCase tc = generated.Clone();
    if (popt.normalize) {
      auto reparsed = TestCase::FromSql(generated.ToSql());
      // Print→parse is a guaranteed fixed point for printed output, but a
      // raw generated AST may not re-parse (dialect-invalid constructs are
      // part of the fuzzing diet) — skip those for the normalized suite.
      if (!reparsed.ok()) continue;
      tc = std::move(*reparsed);
    }

    ExecResult a = inproc.Run(tc);
    ExecResult b = forked.Run(tc);

    const std::string sql = tc.ToSql();
    EXPECT_EQ(a.executed, b.executed) << "case " << i << ":\n" << sql;
    EXPECT_EQ(a.errors, b.errors) << "case " << i << ":\n" << sql;
    EXPECT_EQ(a.crashed, b.crashed) << "case " << i << ":\n" << sql;
    if (a.crashed && b.crashed) {
      EXPECT_EQ(a.crash.bug_id, b.crash.bug_id) << "case " << i;
      EXPECT_EQ(a.crash.stack_hash, b.crash.stack_hash) << "case " << i;
      EXPECT_EQ(a.crash.component, b.crash.component) << "case " << i;
    }
    EXPECT_FALSE(b.hang) << "case " << i;
    if (popt.compare_coverage) {
      EXPECT_EQ(a.new_coverage, b.new_coverage)
          << "case " << i << ":\n" << sql;
      EXPECT_EQ(a.total_edges, b.total_edges) << "case " << i << ":\n" << sql;
    }

    if (a.executed != b.executed || a.errors != b.errors ||
        a.crashed != b.crashed) {
      return;  // first divergence pinpointed; later cases only add noise
    }
    if (popt.compare_oracle_reads) {
      EXPECT_EQ(OracleReads(&inproc.backend(), tc),
                OracleReads(&forked.backend(), tc))
          << "case " << i << ":\n" << sql;
    }
    fuzzer.OnResult(tc, a);
  }

  if (popt.paged) {
    const BackendStorageStats a = inproc.backend().storage_stats();
    const BackendStorageStats b = forked.backend().storage_stats();
    EXPECT_GT(a.wal_records, 0u);
    EXPECT_EQ(a.wal_records, b.wal_records);
    EXPECT_EQ(a.wal_bytes, b.wal_bytes);
    EXPECT_EQ(a.fsyncs, b.fsyncs);
    EXPECT_EQ(a.commits, b.commits);
  }
}

TEST(BackendParityTest, Pglite) { ExpectParity("pglite", 11, {}); }
TEST(BackendParityTest, Mylite) { ExpectParity("mylite", 12, {}); }
TEST(BackendParityTest, Marialite) { ExpectParity("marialite", 13, {}); }
TEST(BackendParityTest, Comdlite) { ExpectParity("comdlite", 14, {}); }

TEST(BackendParityTest, PgliteNormalizedCoverage) {
  ExpectParity("pglite", 21, {/*normalize=*/true, /*compare_coverage=*/true});
}
TEST(BackendParityTest, MarialiteNormalizedCoverage) {
  ExpectParity("marialite", 23,
               {/*normalize=*/true, /*compare_coverage=*/true});
}

TEST(BackendParityTest, PgliteNormalizedPaged) {
  ExpectParity("pglite", 31, {/*normalize=*/true, /*compare_coverage=*/true,
                              /*paged=*/true});
}
TEST(BackendParityTest, PgliteNormalizedOracleReads) {
  ExpectParity("pglite", 41, {/*normalize=*/true, /*compare_coverage=*/true,
                              /*paged=*/false, /*compare_oracle_reads=*/true});
}

}  // namespace
}  // namespace lego::fuzz
