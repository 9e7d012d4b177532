#include "fuzz/state.h"

#include <utility>

#include "persist/ast_serde.h"

namespace lego::fuzz {

namespace {
constexpr uint32_t kRngTag = persist::ChunkTag("RNGS");
}  // namespace

void SaveRng(const Rng& rng, persist::StateWriter* w) {
  w->BeginChunk(kRngTag);
  for (uint64_t word : rng.state()) w->WriteU64(word);
  w->EndChunk();
}

Status LoadRng(persist::StateReader* r, Rng* rng) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kRngTag));
  std::array<uint64_t, 4> state;
  for (uint64_t& word : state) word = r->ReadU64();
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  if (!r->ok()) return r->status();
  rng->set_state(state);
  return Status::OK();
}

void SaveTestCase(const TestCase& tc, persist::StateWriter* w) {
  w->WriteU64(tc.size());
  for (const sql::StmtPtr& stmt : tc.statements()) {
    persist::SerializeStatement(*stmt, w);
  }
}

StatusOr<TestCase> LoadTestCase(persist::StateReader* r) {
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 1)) return r->status();
  std::vector<sql::StmtPtr> stmts;
  stmts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LEGO_ASSIGN_OR_RETURN(sql::StmtPtr stmt, persist::DeserializeStatement(r));
    stmts.push_back(std::move(stmt));
  }
  return TestCase(std::move(stmts));
}

void SaveTestCaseQueue(const std::deque<TestCase>& q,
                       persist::StateWriter* w) {
  w->WriteU64(q.size());
  for (const TestCase& tc : q) SaveTestCase(tc, w);
}

Status LoadTestCaseQueue(persist::StateReader* r, std::deque<TestCase>* q) {
  q->clear();
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n; ++i) {
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    q->push_back(std::move(tc));
  }
  return Status::OK();
}

void SaveTestCases(const std::vector<TestCase>& cases,
                   persist::StateWriter* w) {
  w->WriteU64(cases.size());
  for (const TestCase& tc : cases) SaveTestCase(tc, w);
}

Status LoadTestCases(persist::StateReader* r, std::vector<TestCase>* cases) {
  cases->clear();
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  cases->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    cases->push_back(std::move(tc));
  }
  return Status::OK();
}

void SaveCrashInfo(const minidb::CrashInfo& crash, persist::StateWriter* w) {
  w->WriteString(crash.bug_id);
  w->WriteString(crash.component);
  w->WriteString(crash.kind);
  w->WriteU64(crash.stack_hash);
  w->WriteString(crash.message);
}

minidb::CrashInfo LoadCrashInfo(persist::StateReader* r) {
  minidb::CrashInfo crash;
  crash.bug_id = r->ReadString();
  crash.component = r->ReadString();
  crash.kind = r->ReadString();
  crash.stack_hash = r->ReadU64();
  crash.message = r->ReadString();
  return crash;
}

void SaveLogicBug(const LogicBugInfo& bug, persist::StateWriter* w) {
  w->WriteString(bug.check);
  w->WriteString(bug.query);
  w->WriteString(bug.detail);
  w->WriteU64(bug.fingerprint);
  w->WriteU64(bug.interleave_seed);
  w->WriteU32(static_cast<uint32_t>(bug.sessions));
}

LogicBugInfo LoadLogicBug(persist::StateReader* r) {
  LogicBugInfo bug;
  bug.check = r->ReadString();
  bug.query = r->ReadString();
  bug.detail = r->ReadString();
  bug.fingerprint = r->ReadU64();
  bug.interleave_seed = r->ReadU64();
  bug.sessions = static_cast<int>(r->ReadU32());
  return bug;
}

void SaveStorageStats(const BackendStorageStats& s, persist::StateWriter* w) {
  for (uint64_t v : {s.pool_hits, s.pool_misses, s.pool_evictions,
                     s.pool_writebacks, s.wal_records, s.wal_bytes, s.fsyncs,
                     s.steal_flushes, s.commits, s.checkpoints}) {
    w->WriteU64(v);
  }
}

BackendStorageStats LoadStorageStats(persist::StateReader* r) {
  BackendStorageStats s;
  for (uint64_t* v : {&s.pool_hits, &s.pool_misses, &s.pool_evictions,
                      &s.pool_writebacks, &s.wal_records, &s.wal_bytes,
                      &s.fsyncs, &s.steal_flushes, &s.commits,
                      &s.checkpoints}) {
    *v = r->ReadU64();
  }
  return s;
}

}  // namespace lego::fuzz
