// Fleet-level continuous fuzzing from the command line: a crash-tolerant
// campaign coordinator sharding one campaign across N worker processes,
// with leased shards, corpus sync, a durable journal, and a status file.
//
//   ./examples/fleet_cli run [profile] [fuzzer] [flags]
//   ./examples/fleet_cli status --fleet-dir DIR
//
//   profile : pglite | mylite | marialite | comdlite       (default pglite)
//   fuzzer  : lego | lego- | squirrel | sqlancer | sqlsmith (default lego)
//
// run flags:
//   --fleet-dir DIR : journal (fleet.state), status.json, repro/ (required)
//   --workers N     : worker processes                       (default 2)
//   --shards N      : leased work units                      (default 8)
//   --shard-budget N: executions per shard                   (default 2000)
//   --seed S        : campaign base seed (shard s fuzzes under a seed
//                     derived from it)                        (default 1)
//   --resume        : continue from the fleet.state journal in --fleet-dir;
//                     completed shards are not re-run
//   --distill-every N : corpus sync in generations of N shards: shard s
//                     imports the pool distilled from the exports of every
//                     shard before generation s / N, merged in shard order,
//                     and waits for it (0 = off)              (default 0)
//   --oracle LIST   : logic oracles armed inside every worker, same spec
//                     grammar as fuzz_campaign_cli --oracle
//   --rule-coverage : grammar-rule feedback inside workers
//   --planted-eval-bug : test-only; plant the NOT-NULL evaluator defect in
//                     every worker so chaos sweeps have a known bug to find
//   --backend B / --storage S / --db-dir DIR / --sessions N / --max-stmt-ms N
//                   : worker execution backend (worker w uses DIR/fw<w>)
//   --lease-deadline-ms N : heartbeat deadline before a lease expires and
//                     the shard is re-queued                  (default 15000)
//   --strike-limit N : strikes before a worker slot is quarantined
//                     (worker death, expired lease, or poisoned result all
//                     count one strike)                       (default 3)
//   --respawn-backoff-ms N : base respawn delay, doubled per strike
//                                                            (default 50)
//   --progress-every N : worker heartbeat cadence in executions (default 64)
//   --chaos-fp NAME=SPEC : arm one failpoint (repeatable). Coordinator
//                     sites (fleet.journal_write, fleet.lease_grant) arm in
//                     the coordinator process; everything else arms inside
//                     every worker incarnation.
//   --worker-chaos-fp SLOT:NAME=SPEC : arm a failpoint in one worker slot
//                     only (repeatable) — lets chaos target slot 0 while
//                     the rest of the fleet stays healthy
//   --triage        : after the campaign, collect every unique finding into
//                     --fleet-dir/repro (deduped .sql tree + manifest.tsv
//                     stamped with per-worker origins)
//   --reduce        : ddmin-minimize during --triage
//   --verbose       : coordinator event log on stderr
//
// The merged result depends only on the flags and --seed, not on --workers
// or on the order shards finish: the summary lines, including "bug ids"
// (every crash and logic bug id found) and "fleet bug digest", are the
// same at any worker count.
//
// SIGTERM/SIGINT drain the fleet gracefully: leased workers finish their
// in-flight test case, in-flight shards are re-queued for a later --resume,
// a final journal is written, and the tool exits 0.

#include <csignal>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fleet/fleet.h"
#include "fleet/status_json.h"
#include "minidb/env.h"
#include "minidb/eval.h"

namespace {

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

/// Failpoints that fire in coordinator code; everything else is worker-side
/// and must be re-armed inside each worker incarnation (workers reset the
/// inherited chaos registry at startup).
bool IsCoordinatorFailpoint(const std::string& spec) {
  return spec.rfind("fleet.journal_write", 0) == 0 ||
         spec.rfind("fleet.lease_grant", 0) == 0;
}

int RunStatus(const std::string& fleet_dir) {
  using namespace lego;  // NOLINT(build/namespaces)
  if (fleet_dir.empty()) {
    std::fprintf(stderr, "status: --fleet-dir is required\n");
    return 1;
  }
  const std::string path =
      fleet_dir + "/" + fleet::kStatusFile;
  auto content = minidb::Env::Posix()->ReadFile(path);
  if (!content.ok()) {
    std::fprintf(stderr, "status: cannot read %s: %s\n", path.c_str(),
                 content.status().ToString().c_str());
    return 1;
  }
  std::fputs(content->c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lego;  // NOLINT(build/namespaces)

  InstallStopHandlers();

  std::string command = "run";
  bool planted_eval_bug = false;
  fleet::FleetOptions options;
  fleet::FleetConfig& config = options.config;
  std::vector<std::string> chaos_fps;
  std::vector<std::string> pos;

  auto need_value = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(1);
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fleet-dir") {
      options.fleet_dir = need_value(&i, "--fleet-dir");
    } else if (arg.rfind("--fleet-dir=", 0) == 0) {
      options.fleet_dir = arg.substr(12);
    } else if (arg == "--workers") {
      options.num_workers = std::atoi(need_value(&i, "--workers"));
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.num_workers = std::atoi(arg.c_str() + 10);
    } else if (arg == "--shards") {
      config.num_shards = std::atoi(need_value(&i, "--shards"));
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.num_shards = std::atoi(arg.c_str() + 9);
    } else if (arg == "--shard-budget") {
      config.shard_budget = std::atoi(need_value(&i, "--shard-budget"));
    } else if (arg.rfind("--shard-budget=", 0) == 0) {
      config.shard_budget = std::atoi(arg.c_str() + 15);
    } else if (arg == "--seed") {
      config.base_seed = std::strtoull(need_value(&i, "--seed"), nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.base_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--distill-every") {
      config.distill_every = std::atoi(need_value(&i, "--distill-every"));
    } else if (arg.rfind("--distill-every=", 0) == 0) {
      config.distill_every = std::atoi(arg.c_str() + 16);
    } else if (arg == "--oracle") {
      config.oracle_spec = need_value(&i, "--oracle");
    } else if (arg.rfind("--oracle=", 0) == 0) {
      config.oracle_spec = arg.substr(9);
    } else if (arg == "--rule-coverage") {
      config.rule_coverage = true;
    } else if (arg == "--planted-eval-bug") {
      planted_eval_bug = true;
    } else if (arg == "--backend" || arg.rfind("--backend=", 0) == 0) {
      std::string value = (arg == "--backend") ? need_value(&i, "--backend")
                                               : arg.substr(10);
      auto kind = fuzz::ParseBackendKind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "unknown backend '%s' (inproc | forked | concurrent)\n",
                     value.c_str());
        return 1;
      }
      config.backend.kind = *kind;
    } else if (arg == "--storage" || arg.rfind("--storage=", 0) == 0) {
      std::string value = (arg == "--storage") ? need_value(&i, "--storage")
                                               : arg.substr(10);
      auto kind = fuzz::ParseStorageKind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr, "unknown storage '%s' (mem | paged)\n",
                     value.c_str());
        return 1;
      }
      config.backend.storage = *kind;
    } else if (arg == "--db-dir") {
      config.backend.db_dir = need_value(&i, "--db-dir");
    } else if (arg.rfind("--db-dir=", 0) == 0) {
      config.backend.db_dir = arg.substr(9);
    } else if (arg == "--sessions") {
      config.backend.sessions = std::atoi(need_value(&i, "--sessions"));
    } else if (arg.rfind("--sessions=", 0) == 0) {
      config.backend.sessions = std::atoi(arg.c_str() + 11);
    } else if (arg == "--max-stmt-ms") {
      config.backend.max_stmt_ms = std::atoi(need_value(&i, "--max-stmt-ms"));
    } else if (arg.rfind("--max-stmt-ms=", 0) == 0) {
      config.backend.max_stmt_ms = std::atoi(arg.c_str() + 14);
    } else if (arg == "--lease-deadline-ms") {
      options.lease_deadline_ms =
          std::atoi(need_value(&i, "--lease-deadline-ms"));
    } else if (arg.rfind("--lease-deadline-ms=", 0) == 0) {
      options.lease_deadline_ms = std::atoi(arg.c_str() + 20);
    } else if (arg == "--strike-limit") {
      options.strike_limit = std::atoi(need_value(&i, "--strike-limit"));
    } else if (arg.rfind("--strike-limit=", 0) == 0) {
      options.strike_limit = std::atoi(arg.c_str() + 15);
    } else if (arg == "--respawn-backoff-ms") {
      options.respawn_backoff_ms =
          std::atoi(need_value(&i, "--respawn-backoff-ms"));
    } else if (arg.rfind("--respawn-backoff-ms=", 0) == 0) {
      options.respawn_backoff_ms = std::atoi(arg.c_str() + 21);
    } else if (arg == "--progress-every") {
      config.progress_every = std::atoi(need_value(&i, "--progress-every"));
    } else if (arg.rfind("--progress-every=", 0) == 0) {
      config.progress_every = std::atoi(arg.c_str() + 17);
    } else if (arg == "--chaos-fp") {
      chaos_fps.emplace_back(need_value(&i, "--chaos-fp"));
    } else if (arg.rfind("--chaos-fp=", 0) == 0) {
      chaos_fps.emplace_back(arg.substr(11));
    } else if (arg == "--worker-chaos-fp" ||
               arg.rfind("--worker-chaos-fp=", 0) == 0) {
      std::string value = (arg == "--worker-chaos-fp")
                              ? need_value(&i, "--worker-chaos-fp")
                              : arg.substr(18);
      size_t colon = value.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--worker-chaos-fp needs SLOT:NAME=SPEC\n");
        return 1;
      }
      options.worker_chaos.emplace_back(std::atoi(value.substr(0, colon).c_str()),
                                        value.substr(colon + 1));
    } else if (arg == "--triage") {
      options.triage = true;
    } else if (arg == "--reduce") {
      options.reduce = true;
      options.triage = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 1;
    } else {
      pos.push_back(arg);
    }
  }

  size_t p = 0;
  if (p < pos.size() && (pos[p] == "run" || pos[p] == "status")) {
    command = pos[p++];
  }
  if (command == "status") {
    return RunStatus(options.fleet_dir);
  }
  if (p < pos.size()) config.profile = pos[p++];
  if (p < pos.size()) config.fuzzer = pos[p++];
  if (p < pos.size()) {
    std::fprintf(stderr, "unexpected positional '%s'\n", pos[p].c_str());
    return 1;
  }

  // Route chaos: coordinator-side sites arm here; worker-side sites ship to
  // every slot and are re-armed per incarnation (a respawned worker's kill:N
  // schedule restarts from hit 0).
  for (const std::string& spec : chaos_fps) {
    if (IsCoordinatorFailpoint(spec)) {
      Status st = chaos::ArmSpec(spec, config.base_seed);
      if (!st.ok()) {
        std::fprintf(stderr, "bad --chaos-fp '%s': %s\n", spec.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      std::printf("chaos: coordinator failpoint armed: %s\n", spec.c_str());
    } else {
      options.worker_chaos.emplace_back(-1, spec);
      std::printf("chaos: worker failpoint armed (all slots): %s\n",
                  spec.c_str());
    }
  }

  // Set before RunFleet forks: workers inherit the planted defect, so every
  // shard fuzzes the same (deliberately buggy) engine build.
  if (planted_eval_bug) minidb::Evaluator::SetNotNullEvalBugForTesting(true);

  options.stop_flag = &g_stop_requested;

  std::printf(
      "fleet: profile=%s fuzzer=%s shards=%d x %d execs, workers=%d, "
      "fleet-dir=%s%s\n",
      config.profile.c_str(), config.fuzzer.c_str(), config.num_shards,
      config.shard_budget, options.num_workers, options.fleet_dir.c_str(),
      options.resume ? " (resume)" : "");

  fleet::FleetResult result = fleet::RunFleet(options);

  if (!result.status.ok()) {
    std::fprintf(stderr, "fleet error: %s\n", result.status.ToString().c_str());
    return 1;
  }

  // Stable summary lines — CI compares these between chaos and clean runs.
  std::printf("fleet done : shards %zu/%d (requeued %d, expired leases %d, "
              "rejected results %d, duplicates %d)\n",
              result.shards_done.size(), result.shards_total,
              result.shards_requeued, result.leases_expired,
              result.results_rejected, result.duplicate_results);
  std::printf("workers    : spawned %d, quarantined %d\n",
              result.workers_spawned, result.workers_quarantined);
  std::printf("executions : %" PRId64 " (%.0f/sec)\n", result.executions,
              result.elapsed_seconds > 0
                  ? static_cast<double>(result.executions) /
                        result.elapsed_seconds
                  : 0.0);
  std::printf("edges      : %zu\n", result.edges());
  if (config.rule_coverage) std::printf("rules      : %zu\n", result.rules);
  std::printf("unique crashes : %zu\n", result.crashes.size());
  std::printf("unique logic bugs : %zu\n", result.logic.size());
  std::printf("corpus seeds : %zu\n",
              result.corpus.size() + result.corpus_pending.size());
  if (result.distill_cycles > 0) {
    std::printf("distill    : %d cycles, %.2fs total\n", result.distill_cycles,
                result.distill_seconds);
  }
  if (result.triaged_bugs >= 0) {
    std::printf("triaged    : %d unique bugs -> %s/repro\n",
                result.triaged_bugs, options.fleet_dir.c_str());
  }

  std::printf("bug ids    :");
  for (const std::string& id : result.merged_bug_ids()) {
    std::printf(" %s", id.c_str());
  }
  std::printf("\n");

  std::printf("fleet bug digest : %016llx\n",
              static_cast<unsigned long long>(result.bug_digest()));

  if (result.stopped_early) {
    std::printf("fleet: stop signal received; drained with %zu/%d shards "
                "done (journal flushed; --resume continues)\n",
                result.shards_done.size(), result.shards_total);
  }

  // --db-dir is scratch by contract, mirroring fuzz_campaign_cli.
  if (!config.backend.db_dir.empty()) {
    (void)minidb::Env::Posix()->RemoveDirRecursive(config.backend.db_dir);
  }

  if (result.degraded) {
    std::fprintf(stderr,
                 "fleet degraded: all workers quarantined with %d shards "
                 "pending (state journaled)\n",
                 result.shards_total -
                     static_cast<int>(result.shards_done.size()));
    return 2;
  }
  return 0;
}
