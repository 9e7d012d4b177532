#include "fuzz/campaign.h"

#include <cstdio>
#include <filesystem>

#include "faults/bug_catalog.h"
#include "fuzz/checkpoint.h"
#include "fuzz/state.h"

namespace lego::fuzz {
namespace {

/// End-of-campaign saves are retried this many times before giving up:
/// losing a whole campaign's final state to one transient write failure
/// (or one chaos-mode probability draw) is the wrong trade, and each
/// attempt is independent. Mid-run checkpoints are NOT retried — the next
/// cadence point writes a strictly newer one anyway.
constexpr int kFinalSaveAttempts = 8;

/// Executions between two on_progress calls.
constexpr int kProgressEvery = 64;

bool Persisting(const CampaignOptions& options) {
  return !options.state_dir.empty();
}

/// Serial persistence: one file holding fingerprint + result-so-far +
/// fuzzer + harness, replaced atomically at every checkpoint.
Status SaveSerialState(const CampaignOptions& options,
                       const CampaignResult& result, Fuzzer* fuzzer,
                       ExecutionHarness* harness) {
  std::error_code ec;
  std::filesystem::create_directories(options.state_dir, ec);
  persist::StateWriter w;
  WriteCampaignFingerprint(fuzzer->name(), harness->profile().name, options,
                           &w);
  LEGO_RETURN_IF_ERROR(SaveCampaignResult(result, &w));
  LEGO_RETURN_IF_ERROR(fuzzer->SaveState(&w));
  LEGO_RETURN_IF_ERROR(harness->SaveState(&w));
  return w.WriteFileAtomic(SerialStatePath(options.state_dir));
}

Status LoadSerialState(const CampaignOptions& options, CampaignResult* result,
                       Fuzzer* fuzzer, ExecutionHarness* harness) {
  LEGO_ASSIGN_OR_RETURN(
      persist::StateReader r,
      persist::StateReader::FromFile(SerialStatePath(options.state_dir)));
  LEGO_RETURN_IF_ERROR(VerifyCampaignFingerprint(
      fuzzer->name(), harness->profile().name, options, &r));
  LEGO_RETURN_IF_ERROR(LoadCampaignResult(&r, result));
  LEGO_RETURN_IF_ERROR(fuzzer->LoadState(&r));
  LEGO_RETURN_IF_ERROR(harness->LoadState(&r));
  return r.status();
}

}  // namespace

// The golden tests pin this loop's results. A resumed campaign re-enters
// the loop at i == restored executions with every piece of fuzzer/harness
// state restored, so the remaining iterations replay exactly what an
// uninterrupted run would have done.
CampaignResult RunCampaign(Fuzzer* fuzzer, ExecutionHarness* harness,
                           const CampaignOptions& options) {
  CampaignResult result;
  result.fuzzer = fuzzer->name();
  result.profile = harness->profile().name;

  const size_t total_bugs = harness->bug_engine().bugs().size();
  fuzzer->Prepare(harness);

  const bool resumed = Persisting(options) && options.resume;
  if (resumed) {
    Status loaded = LoadSerialState(options, &result, fuzzer, harness);
    if (!loaded.ok()) {
      CampaignResult failed;
      failed.fuzzer = fuzzer->name();
      failed.profile = harness->profile().name;
      failed.state_status = std::move(loaded);
      return failed;
    }
    // The end-of-campaign flush appends an off-cadence curve point; if the
    // budget was raised and the campaign continues, drop it so the final
    // curve matches an uninterrupted run's exactly.
    if (result.executions < options.max_executions &&
        !result.coverage_curve.empty() &&
        result.coverage_curve.back().first == result.executions &&
        (options.snapshot_every <= 0 ||
         result.executions % options.snapshot_every != 0)) {
      result.coverage_curve.pop_back();
    }
  } else if (options.import_seeds != nullptr) {
    for (const TestCase& tc : *options.import_seeds) fuzzer->ImportSeed(tc);
  }

  // The uninterrupted run may have broken out of the loop early; a resume
  // of its state must not fuzz past that point, so re-derive the stop
  // decision from the restored tallies before executing anything.
  bool stopped =
      resumed &&
      ((options.stop_when_all_bugs_found &&
        result.bug_ids.size() >= total_bugs) ||
       (options.max_statements > 0 &&
        result.statements_executed + result.statement_errors >=
            options.max_statements));

  for (int i = result.executions; !stopped && i < options.max_executions;
       ++i) {
    if (options.stop_flag != nullptr &&
        options.stop_flag->load(std::memory_order_relaxed)) {
      result.stopped_early = true;
      break;
    }
    if (harness->backend().broken()) {
      std::fprintf(stderr,
                   "campaign: backend broken (spawn circuit open); stopping "
                   "after %d executions\n",
                   result.executions);
      break;
    }
    TestCase tc = fuzzer->Next();

    // Affinity accounting (Table II): adjacent distinct type pairs contained
    // in generated test cases.
    auto types = tc.TypeSequence();
    for (size_t t = 1; t < types.size(); ++t) {
      if (types[t - 1] == types[t]) continue;
      result.affinities.emplace(static_cast<int>(types[t - 1]),
                                static_cast<int>(types[t]));
    }

    ExecResult exec = harness->Run(tc);
    ++result.executions;
    result.statement_errors += exec.errors;
    result.statements_executed += exec.executed;
    if (exec.crashed) {
      ++result.crashes_total;
      if (result.crash_hashes.insert(exec.crash.stack_hash).second) {
        result.bug_ids.insert(exec.crash.bug_id);
        ++result.bugs_by_component[exec.crash.component];
        result.captured_cases.push_back(tc.Clone());
        result.captured_crashes.push_back(exec.crash);
      }
    }
    if (exec.logic_bug) {
      ++result.logic_bugs_total;
      if (result.logic_fingerprints.insert(exec.logic.fingerprint).second) {
        result.captured_logic_cases.push_back(tc.Clone());
        result.captured_logic_bugs.push_back(exec.logic);
      }
    }
    fuzzer->OnResult(tc, exec);

    if (options.on_progress && result.executions % kProgressEvery == 0) {
      options.on_progress(result.executions);
    }
    if (options.snapshot_every > 0 &&
        result.executions % options.snapshot_every == 0) {
      result.coverage_curve.emplace_back(result.executions,
                                         harness->CoveredEdges());
    }
    if (Persisting(options) && options.checkpoint_every > 0 &&
        result.executions % options.checkpoint_every == 0) {
      // Self-healing: a failed mid-run checkpoint costs only resume
      // granularity, never the campaign — warn, count, and let the next
      // cadence point write a newer state anyway.
      Status saved = SaveSerialState(options, result, fuzzer, harness);
      if (!saved.ok()) {
        ++result.checkpoints_failed;
        std::fprintf(stderr,
                     "campaign: checkpoint at %d executions failed (%s); "
                     "continuing\n",
                     result.executions, saved.ToString().c_str());
      }
    }
    if (options.stop_when_all_bugs_found &&
        result.bug_ids.size() >= total_bugs) {
      break;
    }
    if (options.max_statements > 0 &&
        result.statements_executed + result.statement_errors >=
            options.max_statements) {
      break;
    }
  }

  result.edges = harness->CoveredEdges();
  result.rules = harness->CoveredRules();
  result.storage = harness->backend().storage_stats();
  if (result.coverage_curve.empty() ||
      result.coverage_curve.back().first != result.executions) {
    result.coverage_curve.emplace_back(result.executions, result.edges);
  }
  result.fuzzer_stats = fuzzer->stats();
  if (options.export_corpus) result.corpus_export = fuzzer->ExportCorpus();
  if (Persisting(options)) {
    Status saved = Status::OK();
    for (int attempt = 0; attempt < kFinalSaveAttempts; ++attempt) {
      saved = SaveSerialState(options, result, fuzzer, harness);
      if (saved.ok()) break;
    }
    if (!saved.ok() && result.state_status.ok()) {
      result.state_status = std::move(saved);
    }
  }
  return result;
}

}  // namespace lego::fuzz
