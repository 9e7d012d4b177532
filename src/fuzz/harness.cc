#include "fuzz/harness.h"

#include "fuzz/backend_concurrent.h"
#include "fuzz/multi_case.h"
#include "persist/io.h"
#include "util/hash.h"

namespace lego::fuzz {

namespace {
constexpr uint32_t kHarnessTag = persist::ChunkTag("HARN");
}  // namespace

ExecutionHarness::ExecutionHarness(const minidb::DialectProfile& profile,
                                   const BackendOptions& backend)
    : backend_options_(backend),
      backend_(MakeBackend(profile, backend)) {}

ExecResult ExecutionHarness::Run(const TestCase& tc) {
  if (backend_options_.kind == BackendKind::kConcurrent &&
      backend_options_.sessions > 1) {
    return RunConcurrent(tc);
  }
  ExecResult result;
  ++executions_;

  // Fresh session per test case (each input carries its own DDL).
  backend_->Reset();

  for (const sql::StmtPtr& stmt : tc.statements()) {
    StmtOutcome out = backend_->Execute(*stmt, /*want_rows=*/false);
    if (out.status == StmtOutcome::Status::kOk) {
      ++result.executed;
      if (logic_oracle_ != nullptr && !result.logic_bug &&
          stmt->type() == sql::StatementType::kSelect) {
        // The bracket pauses coverage probes, disarms the fault hook, and
        // rolls the session trace back — exception-safe, so a throwing
        // oracle can't leave the backend disarmed.
        OracleSession guard(backend_.get());
        result.logic_bug =
            logic_oracle_->Check(backend_.get(), *stmt, &result.logic);
      }
      continue;
    }
    if (out.server_died()) {
      result.crashed = true;
      result.crash = out.crash;
      result.hang = (out.status == StmtOutcome::Status::kHang);
      break;  // the server process died
    }
    ++result.errors;
  }

  MergeRunFeedback(tc, &result);
  return result;
}

void ExecutionHarness::MergeRunFeedback(const TestCase& tc,
                                        ExecResult* result) {
  const cov::CoverageMap& run_map = backend_->FinishRun();
  result->new_coverage = global_coverage_.MergeDetectNew(run_map);
  result->total_edges = global_coverage_.CoveredEdges();
  if (rule_coverage_enabled_) {
    // Fuzzers emit ASTs, so parsing is not otherwise on the execution path;
    // re-parsing the rendered SQL is what fires the grammar-rule probes (and
    // doubles as a Print -> Parse round-trip check of each new statement).
    result->hit_rules = rule_collector_.Collect(tc.statements());
    result->new_rules = global_rules_.MergeDetectNew(*result->hit_rules);
    result->total_rules = global_rules_.CoveredRules();
  }
}

ExecResult ExecutionHarness::RunConcurrent(const TestCase& tc) {
  ExecResult result;
  ++executions_;

  // One seed pins the whole concurrent execution: it drives both the
  // session split and the interleaving scheduler. Deriving it from the
  // persisted execution counter keeps replay stable across
  // checkpoint/resume; triage overrides it to re-run a specific
  // interleaving.
  uint64_t seed = forced_interleave_seed_.value_or(HashMix(
      backend_options_.concurrency_seed, static_cast<uint64_t>(executions_)));
  result.interleave_seed = seed;

  auto* backend = static_cast<ConcurrentBackend*>(backend_.get());
  backend->Reset();
  MultiSessionCase mcase = SplitForSessions(tc, backend_options_.sessions,
                                            seed);
  ConcurrentBackend::CaseResult cr = backend->RunCase(mcase, seed);
  result.executed = cr.setup_executed + cr.stats.executed;
  result.errors = cr.setup_errors + cr.stats.errors;
  result.deadlocks = cr.stats.deadlocks;
  result.trace_digest = cr.stats.trace_digest;
  result.history_digest = cr.stats.history_digest;
  result.interleave_switches = cr.stats.switches;
  if (cr.stats.crashed) {
    result.crashed = true;
    if (cr.stats.crash.has_value()) result.crash = *cr.stats.crash;
  } else if (logic_oracle_ != nullptr &&
             logic_oracle_->CheckHistory(backend->history(), &result.logic)) {
    result.logic_bug = true;
    result.logic.query = mcase.ToSql();
    result.logic.interleave_seed = seed;
    result.logic.sessions = static_cast<int>(mcase.sessions.size());
  }

  MergeRunFeedback(tc, &result);
  return result;
}

Status ExecutionHarness::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kHarnessTag);
  w->WriteI64(executions_);
  LEGO_RETURN_IF_ERROR(global_coverage_.SaveState(w));
  w->WriteBool(rule_coverage_enabled_);
  LEGO_RETURN_IF_ERROR(global_rules_.SaveState(w));
  w->EndChunk();
  return Status::OK();
}

Status ExecutionHarness::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kHarnessTag));
  int executions = static_cast<int>(r->ReadI64());
  LEGO_RETURN_IF_ERROR(global_coverage_.LoadState(r));
  rule_coverage_enabled_ = r->ReadBool();
  LEGO_RETURN_IF_ERROR(global_rules_.LoadState(r));
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  executions_ = executions;
  return Status::OK();
}

}  // namespace lego::fuzz
