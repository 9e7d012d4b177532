// Configurable fuzzing campaign from the command line — the workload the
// paper's evaluation runs, as a standalone tool.
//
//   ./examples/fuzz_campaign_cli [profile] [fuzzer] [executions] [seed]
//                                [flags]
//
// The flag table in main() is the reference for every flag; a malformed or
// unknown flag prints it as the usage text. The positionals and flags fill
// a fleet::FleetConfig, and fleet::BuildCampaign builds the campaign from
// it, as it builds every fleet shard. The campaign runs in this process,
// one test case at a time. To spread a campaign over N worker processes,
// run `fleet_cli run --workers N`: it takes the same rows from
// fleet::CampaignFlags (backend, storage, --oracle, --rule-coverage) plus
// --chaos-fp, --triage and --reduce.

#include <csignal>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/corpus_file.h"
#include "fuzz/harness.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/eval.h"
#include "triage/triage.h"
#include "util/flags.h"

namespace {

/// SIGTERM/SIGINT request a graceful drain: the campaign finishes the
/// in-flight test case, writes its final checkpoint/corpus/triage output
/// through the normal end-of-run path, and the tool exits 0 — instead of
/// dying between checkpoints and losing the work since the last one.
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

void InstallStopHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lego;  // NOLINT(build/namespaces)

  InstallStopHandlers();

  fleet::FleetConfig config;
  bool reduce = false;
  bool planted_eval_bug = false;
  std::string repro_dir;
  std::string state_dir;
  int checkpoint_every = 0;
  bool resume = false;
  std::string import_corpus;
  std::string export_corpus;
  bool planted_crash = false;
  bool planted_hang = false;
  bool planted_oom = false;
  bool chaos = false;
  double chaos_prob = 0.02;
  uint64_t chaos_seed = 0;
  bool chaos_seed_set = false;
  std::vector<std::string> chaos_fps;

  std::vector<flags::Flag> table = fleet::CampaignFlags(&config);
  table.insert(
      table.end(),
      {
          {"pool-frames", &config.backend.pool_frames, "N",
           "paged only: buffer-pool frame budget (default 64)"},
          {"max-child-mem-mb", &config.backend.max_child_mem_mb, "N",
           "forked only: RLIMIT_AS cap per child, overrun = REAL-OOM "
           "(default 0 = off)"},
          {"max-child-cpu-s", &config.backend.max_child_cpu_s, "N",
           "forked only: RLIMIT_CPU cap per child, overrun = REAL-CPU "
           "(default 0 = off)"},
          {"max-child-fsize-mb", &config.backend.max_child_fsize_mb, "N",
           "forked only: RLIMIT_FSIZE cap per child, overrun = REAL-FSIZE "
           "(default 0 = off)"},
          {"reduce", &reduce, "",
           "ddmin-minimize each unique bug after the campaign"},
          {"repro-dir",
           [&](std::string_view value) {
             repro_dir = std::string(value);
             reduce = true;
             return Status::OK();
           },
           "DIR",
           "write one .sql repro per unique bug plus manifest.tsv (implies "
           "--reduce)"},
          {"state-dir", &state_dir, "DIR",
           "persist campaign state as DIR/campaign.state"},
          {"checkpoint-every", &checkpoint_every, "N",
           "checkpoint every N executions (default 0 = final state only)"},
          {"resume", &resume, "",
           "continue from --state-dir; needs the flags of the saved run"},
          {"import-corpus", &import_corpus, "FILE",
           "seed the fuzzer with a corpus file (fresh runs only)"},
          {"export-corpus", &export_corpus, "FILE",
           "write the final corpus to FILE"},
          {"chaos", &chaos, "", "arm every failpoint at --chaos-prob"},
          {"chaos-prob", &chaos_prob, "P",
           "per-hit fire probability under --chaos (default 0.02)"},
          {"chaos-seed",
           [&](std::string_view value) {
             chaos_seed_set = true;
             return flags::ParseUint64(value, &chaos_seed);
           },
           "S", "failpoint schedule seed (default: the campaign seed)"},
          {"chaos-fp", &chaos_fps, "NAME=SPEC",
           "arm one failpoint, SPEC = off|always|prob:P|nth:N|kill:N|hang:N "
           "(repeatable)"},
          {"planted-crash", &planted_crash, "",
           "test-only: a real abort() inside minidb"},
          {"planted-hang", &planted_hang, "",
           "test-only: an infinite loop inside minidb"},
          {"planted-oom", &planted_oom, "",
           "test-only: an unbounded allocation inside minidb"},
          {"planted-eval-bug", &planted_eval_bug, "",
           "test-only: NOT of NULL evaluates TRUE (a logic bug)"},
          {"planted-lost-update", &config.backend.planted_lost_update, "",
           "test-only: concurrent writes skip X locks"},
          {"planted-dirty-read", &config.backend.planted_dirty_read, "",
           "test-only: concurrent reads skip S locks"},
          {"planted-skip-fsync", &config.backend.planted_skip_fsync, "",
           "test-only: the paged engine skips the commit fsync"},
      });
  const flags::CommandLine cli = {
      "fuzz_campaign_cli [profile] [fuzzer] [executions] [seed] [flags]\n"
      "  profile    : pglite | mylite | marialite | comdlite (default "
      "pglite)\n"
      "  fuzzer     : lego | lego- | squirrel | sqlancer | sqlsmith "
      "(default lego)\n"
      "  executions : campaign budget (default 10000)\n"
      "  seed       : RNG seed (default 1)",
      std::move(table)};
  const std::vector<std::string> pos = cli.ParseOrExit(argc, argv);

  if (pos.size() > 0) config.profile = pos[0];
  if (pos.size() > 1) config.fuzzer = pos[1];
  int executions = 10000;
  uint64_t seed = 1;
  auto check = [&cli](const std::string& what, const Status& st) {
    if (!st.ok()) cli.Fail(Status::InvalidArgument(what + ": " + st.message()));
  };
  if (pos.size() > 2) check("executions", flags::ParseInt(pos[2], &executions));
  if (pos.size() > 3) check("seed", flags::ParseUint64(pos[3], &seed));
  if (pos.size() > 4) {
    cli.Fail(Status::InvalidArgument("unexpected positional '" + pos[4] + "'"));
  }
  if (resume && state_dir.empty()) {
    std::fprintf(stderr, "--resume requires --state-dir\n");
    return 1;
  }

  // Planted defects and chaos must be armed before the campaign is built:
  // a forked backend forks its child then, and the child inherits both, so
  // the very first spawn runs the same deterministic fault schedule.
  if (planted_crash) minidb::testing::SetPlantedAbortForTesting(true);
  if (planted_hang) minidb::testing::SetPlantedHangForTesting(true);
  if (planted_oom) minidb::testing::SetPlantedOomForTesting(true);
  if (planted_eval_bug) minidb::Evaluator::SetNotNullEvalBugForTesting(true);
  if (chaos) {
    chaos::ArmAll(chaos_seed_set ? chaos_seed : seed, chaos_prob);
    std::printf("chaos: all failpoints armed (prob %.3f, seed %llu)\n",
                chaos_prob,
                static_cast<unsigned long long>(chaos_seed_set ? chaos_seed
                                                               : seed));
  }
  for (const std::string& spec : chaos_fps) {
    Status armed = chaos::ArmSpec(spec, chaos_seed_set ? chaos_seed : seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --chaos-fp '%s': %s\n", spec.c_str(),
                   armed.ToString().c_str());
      return 1;
    }
    // The durability oracle stamps its repro messages with the fault
    // schedule that produced them, so a DUR-* finding is replayable from
    // its artifact.
    if (!config.backend.chaos_note.empty()) config.backend.chaos_note += ' ';
    config.backend.chaos_note += spec;
  }

  auto campaign = fleet::BuildCampaign(config, seed);
  if (!campaign.ok()) {
    std::fprintf(stderr, "%s\n", campaign.status().message().c_str());
    return 1;
  }
  const minidb::DialectProfile& profile = *campaign->profile;
  fuzz::ExecutionHarness& harness = *campaign->harness;
  const fuzz::BackendOptions& backend = harness.backend_options();
  const bool oracles_armed = campaign->suite != nullptr;

  fuzz::CampaignOptions options;
  options.max_executions = executions;
  options.stop_flag = &g_stop_requested;
  options.snapshot_every = std::max(1, executions / 10);
  options.state_dir = state_dir;
  options.checkpoint_every = checkpoint_every;
  options.resume = resume;
  options.export_corpus = !export_corpus.empty();
  std::vector<fuzz::TestCase> imported_seeds;
  size_t import_skipped = 0;  // damaged entries a tolerant import skipped
  if (!import_corpus.empty() && !resume) {
    // Tolerant import: salvage the loadable prefix of a damaged corpus
    // (skip the rest with a counted warning) instead of refusing it.
    fuzz::CorpusLoadStats cls;
    auto loaded = fuzz::LoadCorpusFileTolerant(import_corpus, &cls);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot import corpus %s: %s\n",
                   import_corpus.c_str(),
                   loaded.status().message().c_str());
      return 1;
    }
    imported_seeds = std::move(*loaded);
    options.import_seeds = &imported_seeds;
    import_skipped = cls.skipped;
    if (cls.skipped > 0 || cls.degraded) {
      std::fprintf(stderr,
                   "warning: corpus %s damaged; salvaged %zu seed(s), "
                   "skipped %zu\n",
                   import_corpus.c_str(), cls.loaded, cls.skipped);
    }
    std::printf("imported %zu corpus seeds from %s\n", imported_seeds.size(),
                import_corpus.c_str());
  }

  std::printf("fuzzing %s with %s for %d executions (seed %llu)\n",
              profile.name.c_str(), campaign->fuzzer->name().c_str(),
              executions, static_cast<unsigned long long>(seed));
  // Only announce non-default backends, keeping the default in-process
  // output byte-identical to the historical tool.
  if (backend.storage == fuzz::StorageKind::kPaged) {
    std::printf("storage: paged (%zu frames, dir %s%s%s)\n",
                backend.pool_frames, backend.db_dir.c_str(),
                backend.durability_check ? ", durability oracle" : "",
                backend.planted_skip_fsync ? ", planted skip-fsync" : "");
  }
  if (backend.kind != fuzz::BackendKind::kInProcess ||
      backend.max_stmt_ms > 0) {
    std::printf("backend: %.*s",
                static_cast<int>(fuzz::BackendKindName(backend.kind).size()),
                fuzz::BackendKindName(backend.kind).data());
    if (backend.max_stmt_ms > 0) {
      std::printf(" (watchdog %d ms)", backend.max_stmt_ms);
    }
    if (backend.kind == fuzz::BackendKind::kConcurrent) {
      std::printf(" (%d sessions)", backend.sessions);
      if (backend.planted_lost_update) std::printf(" (planted lost-update)");
      if (backend.planted_dirty_read) std::printf(" (planted dirty-read)");
    }
    if (backend.max_child_mem_mb > 0) {
      std::printf(" (mem cap %d MB)", backend.max_child_mem_mb);
    }
    if (backend.max_child_cpu_s > 0) {
      std::printf(" (cpu cap %d s)", backend.max_child_cpu_s);
    }
    if (backend.max_child_fsize_mb > 0) {
      std::printf(" (fsize cap %d MB)", backend.max_child_fsize_mb);
    }
    std::printf("\n");
  }
  fuzz::CampaignResult result =
      fuzz::RunCampaign(campaign->fuzzer.get(), &harness, options);

  if (result.stopped_early) {
    std::printf("\ncampaign: stop signal received; drained after %d "
                "executions (state flushed)\n",
                result.executions);
  }
  std::printf("\ncoverage curve (executions -> branches):\n");
  for (const auto& [execs, edges] : result.coverage_curve) {
    std::printf("  %7d  %6zu\n", execs, edges);
  }
  std::printf("\nresults:\n");
  std::printf("  branches covered   : %zu\n", result.edges);
  if (config.rule_coverage) {
    std::printf("  grammar rules      : %zu / %zu\n", result.rules,
                cov::RuleMap::size());
  }
  std::printf("  type-affinities    : %zu\n", result.affinities.size());
  std::printf("  statements executed: %d (+%d rejected)\n",
              result.statements_executed, result.statement_errors);
  std::printf("  crashes            : %d total, %zu unique\n",
              result.crashes_total, result.crash_hashes.size());
  std::printf("  bugs               : %zu / %zu injected\n",
              result.bug_ids.size(),
              harness.bug_engine().bugs().size());
  for (const std::string& bug : result.bug_ids) {
    std::printf("    %s\n", bug.c_str());
  }
  if (oracles_armed) {
    std::printf("  logic-bug flags    : %d total, %zu unique queries\n",
                result.logic_bugs_total, result.logic_fingerprints.size());
  }
  std::printf("  corpus seeds       : %zu\n",
              result.fuzzer_stats.corpus_seeds);
  std::printf("  affinity pairs     : %zu\n",
              result.fuzzer_stats.affinity_pairs);
  std::printf("  sequences          : %zu synthesized, %zu dropped at cap\n",
              result.fuzzer_stats.sequences_total,
              result.fuzzer_stats.sequences_dropped);
  if (import_skipped > 0) {
    std::printf("  import skipped     : %zu damaged corpus entr%s\n",
                import_skipped, import_skipped == 1 ? "y" : "ies");
  }
  if (backend.storage == fuzz::StorageKind::kPaged) {
    const fuzz::BackendStorageStats& ss = result.storage;
    std::printf("  buffer pool        : %.1f%% hit rate (%llu hits, "
                "%llu misses), %llu eviction(s), %llu writeback(s)\n",
                100.0 * ss.pool_hit_rate(),
                static_cast<unsigned long long>(ss.pool_hits),
                static_cast<unsigned long long>(ss.pool_misses),
                static_cast<unsigned long long>(ss.pool_evictions),
                static_cast<unsigned long long>(ss.pool_writebacks));
    std::printf("  write-ahead log    : %llu record(s), %llu byte(s), "
                "%llu fsync(s), %llu steal flush(es)\n",
                static_cast<unsigned long long>(ss.wal_records),
                static_cast<unsigned long long>(ss.wal_bytes),
                static_cast<unsigned long long>(ss.fsyncs),
                static_cast<unsigned long long>(ss.steal_flushes));
    std::printf("  durability         : %llu commit(s), %llu checkpoint(s), "
                "%llu failed reset(s)\n",
                static_cast<unsigned long long>(ss.commits),
                static_cast<unsigned long long>(ss.checkpoints),
                static_cast<unsigned long long>(ss.reset_failures));
  }
  if (result.checkpoints_failed > 0) {
    std::printf("  self-healing       : %d checkpoint write(s) failed\n",
                result.checkpoints_failed);
  }
  if (chaos || !chaos_fps.empty()) {
    std::printf("  chaos schedule     :\n");
    for (const chaos::FailpointInfo& fp : chaos::Snapshot()) {
      if (fp.mode == chaos::FailpointMode::kOff && fp.hits == 0) continue;
      std::printf("    %-20s %-8s %llu hit(s), %llu fire(s)\n",
                  std::string(fp.name).c_str(),
                  std::string(chaos::ModeName(fp.mode)).c_str(),
                  static_cast<unsigned long long>(fp.hits),
                  static_cast<unsigned long long>(fp.fires));
    }
  }

  if (reduce || oracles_armed) {
    triage::TriageOptions triage_options;
    triage_options.reduce = reduce;
    triage_options.repro_dir = repro_dir;
    triage_options.backend = backend;
    triage_options.campaign_seed = seed;
    triage::TriageReport report = triage::TriageCampaign(
        result, profile, harness.setup_script(), triage_options);
    std::printf("\ntriage (%d crash + %d logic capture%s, %d replays):\n",
                report.crash_captures, report.logic_captures,
                report.crash_captures + report.logic_captures == 1 ? "" : "s",
                report.replays);
    std::printf("  unique bugs        : %zu (%d duplicate%s collapsed, "
                "%d not reproduced)\n",
                report.bugs.size(), report.duplicates,
                report.duplicates == 1 ? "" : "s", report.not_reproduced);
    if (report.skipped_known > 0) {
      std::printf("  known bugs skipped : %d (already in %s)\n",
                  report.skipped_known, triage::kTriageManifestFile);
    }
    for (const triage::TriagedBug& bug : report.bugs) {
      std::printf("    %-40s %2d stmts (from %d)%s%s\n",
                  bug.signature.Key().c_str(), bug.reduced_statements,
                  bug.original_statements,
                  bug.artifact_path.empty() ? "" : "  -> ",
                  bug.artifact_path.c_str());
    }
  }
  if (!state_dir.empty()) {
    // The digest folds in everything the bit-identity acceptance bar
    // compares; CI diffs this line between interrupted and uninterrupted
    // runs.
    std::printf("  result digest      : %016llx\n",
                static_cast<unsigned long long>(fuzz::ResultDigest(result)));
    std::printf("  state              : %s (%s)\n", state_dir.c_str(),
                resume ? "resumed" : "fresh");
  }
  if (!export_corpus.empty()) {
    Status saved = fuzz::SaveCorpusFile(result.corpus_export, export_corpus);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot export corpus to %s: %s\n",
                   export_corpus.c_str(), saved.ToString().c_str());
      return 1;
    }
    std::printf("  corpus exported    : %zu seeds -> %s\n",
                result.corpus_export.size(), export_corpus.c_str());
  }
  // --db-dir is a scratch directory by contract (see the usage comment):
  // every run starts from ResetFresh, so nothing in it outlives the tool.
  if (!backend.db_dir.empty()) {
    (void)minidb::Env::Posix()->RemoveDirRecursive(backend.db_dir);
  }
  if (!result.state_status.ok()) {
    std::fprintf(stderr, "state error: %s\n",
                 result.state_status.ToString().c_str());
    return 1;
  }
  return 0;
}
