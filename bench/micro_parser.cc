// Microbenchmarks for the SQL front-end: lexing, parsing, and printing.
// These back the paper's C3 concern — fuzzing throughput is bounded by how
// fast test cases can be (re)parsed and rendered.
//
// BM_ParseScript parses with the grammar-rule probes detached, as every
// campaign parse but the rule-signal reparse does; BM_ParseScriptArmed
// parses the same script with them armed. The pair prices the probes.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "coverage/rule_coverage.h"
#include "sql/grammar_coverage.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace {

using lego::bench::Repeated;

const char* kScript =
    "CREATE TABLE t1 (v1 INT PRIMARY KEY, v2 TEXT NOT NULL, v3 REAL);\n"
    "CREATE INDEX ix1 ON t1 (v2);\n"
    "INSERT INTO t1 VALUES (1, 'a', 0.5), (2, 'b', 1.5), (3, 'c', 2.5);\n"
    "UPDATE t1 SET v3 = v3 * 2 WHERE v1 BETWEEN 1 AND 2;\n"
    "SELECT v2, COUNT(*), SUM(v3) FROM t1 WHERE v1 IN (1, 2, 3) "
    "GROUP BY v2 HAVING COUNT(*) > 0 ORDER BY v2 DESC LIMIT 10;\n"
    "WITH w AS (SELECT v1 FROM t1) SELECT * FROM w;\n";

const char* kComplexSelect =
    "SELECT DISTINCT a.x, LEAD(b.y) OVER (PARTITION BY a.x ORDER BY b.y) "
    "FROM a LEFT JOIN b ON a.k = b.k WHERE a.x > (SELECT MIN(z) FROM c) "
    "AND EXISTS (SELECT 1 FROM d WHERE d.w = a.x) "
    "UNION ALL SELECT 1, 2 ORDER BY 1 LIMIT 100 OFFSET 5";

void BM_Lex(benchmark::State& state) {
  for (auto _ : state) {
    lego::sql::Lexer lexer(kScript);
    auto tokens = lexer.Tokenize();
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(strlen(kScript)));
}
BENCHMARK(BM_Lex)->Apply(Repeated);

void BM_ParseScript(benchmark::State& state) {
  for (auto _ : state) {
    auto stmts = lego::sql::Parser::ParseScript(kScript);
    benchmark::DoNotOptimize(stmts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(strlen(kScript)));
}
BENCHMARK(BM_ParseScript)->Apply(Repeated);

void BM_ParseScriptArmed(benchmark::State& state) {
  lego::cov::RuleMap map;
  lego::sql::GrammarCoverageScope scope(map.data());
  for (auto _ : state) {
    auto stmts = lego::sql::Parser::ParseScript(kScript);
    benchmark::DoNotOptimize(stmts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(strlen(kScript)));
  state.counters["rules_hit"] = static_cast<double>(map.CountNonZero());
}
BENCHMARK(BM_ParseScriptArmed)->Apply(Repeated);

void BM_ParseComplexSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = lego::sql::Parser::ParseStatement(kComplexSelect);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseComplexSelect)->Apply(Repeated);

void BM_PrintStatement(benchmark::State& state) {
  auto stmt = lego::sql::Parser::ParseStatement(kComplexSelect);
  for (auto _ : state) {
    std::string text = lego::sql::ToSql(**stmt);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_PrintStatement)->Apply(Repeated);

void BM_CloneStatement(benchmark::State& state) {
  auto stmt = lego::sql::Parser::ParseStatement(kComplexSelect);
  for (auto _ : state) {
    auto copy = (*stmt)->Clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_CloneStatement)->Apply(Repeated);

}  // namespace

BENCHMARK_MAIN();
