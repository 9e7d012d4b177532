// Configurable fuzzing campaign from the command line — the workload the
// paper's evaluation runs, as a standalone tool.
//
//   ./examples/fuzz_campaign_cli [profile] [fuzzer] [executions] [seed]
//                                [--reduce] [--repro-dir DIR]
//                                [--oracle LIST] [--rule-coverage]
//                                [--backend=inproc|forked|concurrent]
//                                [--max-stmt-ms N] [--sessions N]
//
//   profile : pglite | mylite | marialite | comdlite       (default pglite)
//   fuzzer  : lego | lego- | squirrel | sqlancer | sqlsmith (default lego)
//   executions : campaign budget                            (default 10000)
//   seed    : RNG seed                                      (default 1)
//   --oracle LIST : arm logic-bug oracles, comma-separated from
//                 tlp | norec | clause | iso | dur, checked in the given
//                 order with first-finding-wins. "dur" is the durability
//                 oracle: it needs --backend=forked --storage=paged and
//                 adjudicates every child death against a shadow replay
//                 (DUR-LOST-COMMIT / DUR-PHANTOM / DUR-RECOVERY-FAIL)
//   --tlp       : shorthand for --oracle=tlp (combines: appends to LIST)
//   --rule-coverage : grammar-rule coverage as a secondary feedback signal
//                 (parser production hit-set; rare-rule corpus weighting)
//   --backend B : execution backend — inproc (embedded minidb), forked,
//                 or concurrent (N true session threads per case under a
//                 seeded deterministic interleaving scheduler)
//                 (crash-isolated child process)          (default inproc)
//   --max-stmt-ms N : forked only — kill a statement after N ms wall clock
//   --sessions N : concurrent only — session threads per test case
//                 (default 2); the per-case interleaving seed is derived
//                 from the campaign seed and execution index
//   --planted-lost-update / --planted-dirty-read : test-only; plant an
//                 isolation defect in the concurrent lock discipline that
//                 the iso oracle should catch (demo of --oracle=iso)
//                 and record it as a hang                   (default off)
//   --reduce    : ddmin-minimize each unique crash after the campaign
//   --repro-dir DIR : write one deterministic .sql repro per unique bug
//                     plus a manifest.tsv (replay key, signature, trigger,
//                     campaign seed, state version); bugs already listed
//                     in the manifest are not re-reduced  (implies --reduce)
//   --state-dir DIR : persist campaign state under DIR (one atomic
//                 campaign.state)
//   --checkpoint-every N : write a checkpoint every N executions (0 = only
//                 the final state)                            (default 0)
//   --resume    : continue from the checkpoint in --state-dir; the resumed
//                 run must use identical flags
//   --import-corpus FILE : seed the fuzzer with a corpus file exported by
//                 corpus_cli before the first execution (fresh runs only)
//   --export-corpus FILE : write the final corpus to FILE for reuse via
//                 --import-corpus or corpus_cli distill
//   --planted-crash / --planted-hang / --planted-oom : test-only; arm a
//                 real abort() / infinite loop / unbounded allocation
//                 inside minidb (demo of crash isolation + rlimit caps)
//   --planted-eval-bug : test-only; plant the NOT-NULL evaluator defect
//                 (NOT of NULL evaluates TRUE) — a wrong-result bug only
//                 the logic oracles can see (demo of --oracle)
//   --chaos     : arm every registered failpoint with --chaos-prob
//   --chaos-prob P : per-hit fire probability under --chaos (default 0.02)
//   --chaos-seed S : failpoint schedule seed (default: the campaign seed);
//                 the schedule is deterministic per (seed, hit index)
//   --chaos-fp NAME=SPEC : arm one failpoint precisely (repeatable);
//                 SPEC = off | always | prob:P | nth:N | kill:N | hang:N
//   --storage S : execution storage — mem (historical in-memory database)
//                 or paged (buffer pool + WAL under --db-dir; recovery on
//                 reopen; mem stays bit-identical)          (default mem)
//   --db-dir DIR : paged only — on-disk database directory. Treated as a
//                 scratch dir: wiped on engine reset and removed when the
//                 tool exits
//   --pool-frames N : paged only — buffer-pool frame budget  (default 64)
//   --planted-skip-fsync : test-only; the paged engine skips the commit
//                 fsync, so a kill:N storage schedule loses acknowledged
//                 commits (demo of --oracle=dur)
//   --max-child-mem-mb N : forked only — RLIMIT_AS cap per child; an
//                 allocation over it dies as a REAL-OOM crash  (default off)
//   --max-child-cpu-s N : forked only — RLIMIT_CPU cap per child; a spin
//                 over it dies as a REAL-CPU crash              (default off)
//   --max-child-fsize-mb N : forked only — RLIMIT_FSIZE cap per child
//                 (REAL-FSIZE)                                  (default off)
//
// The campaign runs in this process, one test case at a time. To spread a
// campaign over N worker processes, run `fleet_cli run --workers N`, which
// takes the same backend, storage and oracle flags plus --chaos-fp,
// --triage and --reduce.

#include <csignal>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/corpus_file.h"
#include "fuzz/harness.h"
#include "lego/lego_fuzzer.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/eval.h"
#include "triage/oracle_suite.h"
#include "triage/triage.h"

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

  // Split args into flags (anywhere) and positionals.
  bool reduce = false;
  bool tlp = false;
  std::string oracle_spec;
  bool rule_coverage = false;
  bool planted_eval_bug = false;
  std::string repro_dir;
  std::string state_dir;
  int checkpoint_every = 0;
  bool resume = false;
  std::string import_corpus;
  std::string export_corpus;
  fuzz::BackendOptions backend;
  bool planted_crash = false;
  bool planted_hang = false;
  bool planted_oom = false;
  bool chaos = false;
  double chaos_prob = 0.02;
  uint64_t chaos_seed = 0;
  bool chaos_seed_set = false;
  std::vector<std::string> chaos_fps;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend" || arg.rfind("--backend=", 0) == 0) {
      std::string value;
      if (arg == "--backend") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--backend needs a value\n");
          return 1;
        }
        value = argv[++i];
      } else {
        value = arg.substr(10);
      }
      std::optional<fuzz::BackendKind> kind = fuzz::ParseBackendKind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "unknown backend '%s' (inproc | forked | concurrent)\n",
                     value.c_str());
        return 1;
      }
      backend.kind = *kind;
    } else if (arg == "--max-stmt-ms") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-stmt-ms needs a value\n");
        return 1;
      }
      backend.max_stmt_ms = std::atoi(argv[++i]);
    } else if (arg.rfind("--max-stmt-ms=", 0) == 0) {
      backend.max_stmt_ms = std::atoi(arg.c_str() + 14);
    } else if (arg == "--sessions") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--sessions needs a value\n");
        return 1;
      }
      backend.sessions = std::atoi(argv[++i]);
    } else if (arg.rfind("--sessions=", 0) == 0) {
      backend.sessions = std::atoi(arg.c_str() + 11);
    } else if (arg == "--planted-lost-update") {
      backend.planted_lost_update = true;
    } else if (arg == "--planted-dirty-read") {
      backend.planted_dirty_read = true;
    } else if (arg == "--planted-crash") {
      planted_crash = true;
    } else if (arg == "--planted-hang") {
      planted_hang = true;
    } else if (arg == "--planted-oom") {
      planted_oom = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--chaos-prob") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--chaos-prob needs a value\n");
        return 1;
      }
      chaos_prob = std::atof(argv[++i]);
    } else if (arg.rfind("--chaos-prob=", 0) == 0) {
      chaos_prob = std::atof(arg.c_str() + 13);
    } else if (arg == "--chaos-seed") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--chaos-seed needs a value\n");
        return 1;
      }
      chaos_seed = std::strtoull(argv[++i], nullptr, 10);
      chaos_seed_set = true;
    } else if (arg.rfind("--chaos-seed=", 0) == 0) {
      chaos_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
      chaos_seed_set = true;
    } else if (arg == "--chaos-fp") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--chaos-fp needs NAME=SPEC\n");
        return 1;
      }
      chaos_fps.emplace_back(argv[++i]);
    } else if (arg.rfind("--chaos-fp=", 0) == 0) {
      chaos_fps.emplace_back(arg.substr(11));
    } else if (arg == "--storage" || arg.rfind("--storage=", 0) == 0) {
      std::string value;
      if (arg == "--storage") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--storage needs a value\n");
          return 1;
        }
        value = argv[++i];
      } else {
        value = arg.substr(10);
      }
      std::optional<fuzz::StorageKind> kind = fuzz::ParseStorageKind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr, "unknown storage '%s' (mem | paged)\n",
                     value.c_str());
        return 1;
      }
      backend.storage = *kind;
    } else if (arg == "--db-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--db-dir needs a value\n");
        return 1;
      }
      backend.db_dir = argv[++i];
    } else if (arg.rfind("--db-dir=", 0) == 0) {
      backend.db_dir = arg.substr(9);
    } else if (arg == "--pool-frames") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--pool-frames needs a value\n");
        return 1;
      }
      backend.pool_frames = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg.rfind("--pool-frames=", 0) == 0) {
      backend.pool_frames = static_cast<size_t>(std::atoi(arg.c_str() + 14));
    } else if (arg == "--planted-skip-fsync") {
      backend.planted_skip_fsync = true;
    } else if (arg == "--max-child-mem-mb") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-child-mem-mb needs a value\n");
        return 1;
      }
      backend.max_child_mem_mb = std::atoi(argv[++i]);
    } else if (arg.rfind("--max-child-mem-mb=", 0) == 0) {
      backend.max_child_mem_mb = std::atoi(arg.c_str() + 19);
    } else if (arg == "--max-child-cpu-s") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-child-cpu-s needs a value\n");
        return 1;
      }
      backend.max_child_cpu_s = std::atoi(argv[++i]);
    } else if (arg.rfind("--max-child-cpu-s=", 0) == 0) {
      backend.max_child_cpu_s = std::atoi(arg.c_str() + 18);
    } else if (arg == "--max-child-fsize-mb") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-child-fsize-mb needs a value\n");
        return 1;
      }
      backend.max_child_fsize_mb = std::atoi(argv[++i]);
    } else if (arg.rfind("--max-child-fsize-mb=", 0) == 0) {
      backend.max_child_fsize_mb = std::atoi(arg.c_str() + 21);
    } else if (arg == "--reduce") {
      reduce = true;
    } else if (arg == "--tlp") {
      tlp = true;
    } else if (arg == "--oracle") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--oracle needs a value\n");
        return 1;
      }
      if (!oracle_spec.empty()) oracle_spec += ',';
      oracle_spec += argv[++i];
    } else if (arg.rfind("--oracle=", 0) == 0) {
      if (!oracle_spec.empty()) oracle_spec += ',';
      oracle_spec += arg.substr(9);
    } else if (arg == "--rule-coverage") {
      rule_coverage = true;
    } else if (arg == "--planted-eval-bug") {
      planted_eval_bug = true;
    } else if (arg == "--repro-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--repro-dir needs a value\n");
        return 1;
      }
      repro_dir = argv[++i];
      reduce = true;
    } else if (arg.rfind("--repro-dir=", 0) == 0) {
      repro_dir = arg.substr(12);
      reduce = true;
    } else if (arg == "--state-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--state-dir needs a value\n");
        return 1;
      }
      state_dir = argv[++i];
    } else if (arg.rfind("--state-dir=", 0) == 0) {
      state_dir = arg.substr(12);
    } else if (arg == "--checkpoint-every") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint-every needs a value\n");
        return 1;
      }
      checkpoint_every = std::atoi(argv[++i]);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      checkpoint_every = std::atoi(arg.c_str() + 19);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--import-corpus") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--import-corpus needs a value\n");
        return 1;
      }
      import_corpus = argv[++i];
    } else if (arg.rfind("--import-corpus=", 0) == 0) {
      import_corpus = arg.substr(16);
    } else if (arg == "--export-corpus") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--export-corpus needs a value\n");
        return 1;
      }
      export_corpus = argv[++i];
    } else if (arg.rfind("--export-corpus=", 0) == 0) {
      export_corpus = arg.substr(16);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 1;
    } else {
      pos.push_back(std::move(arg));
    }
  }

  std::string profile_name = pos.size() > 0 ? pos[0] : "pglite";
  std::string fuzzer_name = pos.size() > 1 ? pos[1] : "lego";
  int executions = pos.size() > 2 ? std::atoi(pos[2].c_str()) : 10000;
  uint64_t seed =
      pos.size() > 3 ? std::strtoull(pos[3].c_str(), nullptr, 10) : 1;
  // Interleavings are part of the campaign's deterministic identity: the
  // concurrent backend derives each case's scheduler seed from this.
  backend.concurrency_seed = seed;

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown profile '%s'\n", profile_name.c_str());
    return 1;
  }

  std::unique_ptr<fuzz::Fuzzer> fuzzer =
      fleet::MakeFleetFuzzer(fuzzer_name, *profile, seed);
  if (fuzzer == nullptr) {
    std::fprintf(stderr, "unknown fuzzer '%s'\n", fuzzer_name.c_str());
    return 1;
  }
  const auto* lego_ptr = dynamic_cast<const core::LegoFuzzer*>(fuzzer.get());

  // Planted defects must be armed before any backend spawns: forked
  // children inherit the flags at fork time.
  if (planted_crash) minidb::testing::SetPlantedAbortForTesting(true);
  if (planted_hang) minidb::testing::SetPlantedHangForTesting(true);
  if (planted_oom) minidb::testing::SetPlantedOomForTesting(true);
  if (planted_eval_bug) minidb::Evaluator::SetNotNullEvalBugForTesting(true);

  // Chaos likewise: arm before the harness so the very first spawn and
  // every forked child run the same deterministic fault schedule.
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
  }

  if (tlp) {
    if (!oracle_spec.empty()) oracle_spec += ',';
    oracle_spec += "tlp";
  }
  std::unique_ptr<triage::OracleSuite> oracle_suite;
  if (!oracle_spec.empty()) {
    std::string oracle_error;
    oracle_suite = triage::OracleSuite::FromSpec(oracle_spec, &oracle_error);
    if (oracle_suite == nullptr) {
      std::fprintf(stderr, "bad --oracle '%s': %s\n", oracle_spec.c_str(),
                   oracle_error.c_str());
      return 1;
    }
  }
  if (backend.storage == fuzz::StorageKind::kPaged &&
      backend.db_dir.empty()) {
    std::fprintf(stderr, "--storage=paged requires --db-dir\n");
    return 1;
  }
  if (oracle_suite != nullptr && oracle_suite->durability_requested()) {
    if (backend.storage != fuzz::StorageKind::kPaged ||
        backend.kind != fuzz::BackendKind::kForked) {
      std::fprintf(stderr,
                   "--oracle=dur requires --backend=forked --storage=paged\n");
      return 1;
    }
    backend.durability_check = true;
  }
  // The durability oracle stamps its repro messages with the fault schedule
  // that produced them, so a DUR-* finding is replayable from its artifact.
  for (const std::string& spec : chaos_fps) {
    if (!backend.chaos_note.empty()) backend.chaos_note += ' ';
    backend.chaos_note += spec;
  }
  fuzz::ExecutionHarness harness(*profile, backend);
  if (oracle_suite != nullptr && !oracle_suite->MemberNames().empty()) {
    harness.set_logic_oracle(oracle_suite.get());
  }
  const bool oracles_armed = oracle_suite != nullptr;
  harness.set_rule_coverage(rule_coverage);
  if (resume && state_dir.empty()) {
    std::fprintf(stderr, "--resume requires --state-dir\n");
    return 1;
  }
  fuzz::CampaignOptions options;
  options.max_executions = executions;
  options.stop_flag = &g_stop_requested;
  options.snapshot_every = std::max(1, executions / 10);
  options.state_dir = state_dir;
  options.checkpoint_every = checkpoint_every;
  options.resume = resume;
  options.export_corpus = !export_corpus.empty();
  std::vector<fuzz::TestCase> imported_seeds;
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
    options.import_skipped = cls.skipped;
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
              profile->name.c_str(), fuzzer->name().c_str(), executions,
              static_cast<unsigned long long>(seed));
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
      fuzz::RunCampaign(fuzzer.get(), &harness, options);

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
  if (rule_coverage) {
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
  if (result.fuzzer_stats.import_skipped > 0) {
    std::printf("  import skipped     : %zu damaged corpus entr%s\n",
                result.fuzzer_stats.import_skipped,
                result.fuzzer_stats.import_skipped == 1 ? "y" : "ies");
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
    std::printf("  durability         : %llu commit(s), %llu checkpoint(s)\n",
                static_cast<unsigned long long>(ss.commits),
                static_cast<unsigned long long>(ss.checkpoints));
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
        result, *profile, harness.setup_script(), triage_options);
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
  if (lego_ptr != nullptr) {
    std::printf("  affinity map       : %zu pairs\n",
                lego_ptr->affinities().Count());
    std::printf("  synthesized seqs   : %zu\n",
                lego_ptr->synthesizer().TotalSequences());
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
