// Fleet-level continuous fuzzing from the command line: a crash-tolerant
// campaign coordinator sharding one campaign across N worker processes,
// with leased shards, corpus sync, a durable journal, and a status file.
//
//   ./examples/fleet_cli run [profile] [fuzzer] [flags]
//   ./examples/fleet_cli status --fleet-dir DIR
//
// The flag table in main() is the reference for every flag; a malformed or
// unknown flag prints it as the usage text.
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
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "fleet/status_json.h"
#include "minidb/env.h"
#include "minidb/eval.h"
#include "util/flags.h"

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

  std::vector<flags::Flag> table = fleet::CampaignFlags(&config);
  table.insert(
      table.end(),
      {
          {"fleet-dir", &options.fleet_dir, "DIR",
           "journal (fleet.state), status.json and repro/ (required)"},
          {"workers", &options.num_workers, "N",
           "worker processes (default 2)"},
          {"shards", &config.num_shards, "N", "leased work units (default 8)"},
          {"shard-budget", &config.shard_budget, "N",
           "executions per shard (default 2000)"},
          {"seed", &config.base_seed, "S",
           "campaign base seed; each shard derives its own (default 1)"},
          {"resume", &options.resume, "",
           "continue from the journal in --fleet-dir; done shards are not "
           "re-run"},
          {"distill-every", &config.distill_every, "N",
           "corpus sync in generations of N shards (default 0 = off)"},
          {"planted-eval-bug", &planted_eval_bug, "",
           "test-only: plant the NOT-NULL evaluator defect in every worker"},
          {"lease-deadline-ms", &options.lease_deadline_ms, "N",
           "heartbeat deadline before a lease expires and its shard is "
           "re-queued (default 15000)"},
          {"strike-limit", &options.strike_limit, "N",
           "strikes (death, expired lease, poisoned result) before a slot is "
           "quarantined (default 3)"},
          {"respawn-backoff-ms", &options.respawn_backoff_ms, "N",
           "base respawn delay, doubled per strike (default 50)"},
          {"chaos-fp", &chaos_fps, "NAME=SPEC",
           "arm one failpoint: fleet.journal_write and fleet.lease_grant in "
           "the coordinator, others in every worker (repeatable)"},
          {"worker-chaos-fp",
           [&](std::string_view value) {
             const size_t colon = value.find(':');
             if (colon == std::string_view::npos) {
               return Status::InvalidArgument("needs SLOT:NAME=SPEC");
             }
             int slot = 0;
             LEGO_RETURN_IF_ERROR(
                 flags::ParseInt(value.substr(0, colon), &slot));
             options.worker_chaos.emplace_back(
                 slot, std::string(value.substr(colon + 1)));
             return Status::OK();
           },
           "SLOT:NAME=SPEC",
           "arm a failpoint in one worker slot (repeatable)"},
          {"triage", &options.triage, "",
           "collect every unique finding into --fleet-dir/repro"},
          {"reduce", &options.reduce, "",
           "ddmin-minimize findings (implies --triage)"},
          {"verbose", &options.verbose, "", "coordinator event log on stderr"},
      });
  const flags::CommandLine cli = {
      "fleet_cli run [profile] [fuzzer] [flags]\n"
      "       fleet_cli status --fleet-dir DIR\n"
      "  profile : pglite | mylite | marialite | comdlite (default pglite)\n"
      "  fuzzer  : lego | lego- | squirrel | sqlancer | sqlsmith (default "
      "lego)",
      std::move(table)};
  const std::vector<std::string> pos = cli.ParseOrExit(argc, argv);
  if (options.reduce) options.triage = true;

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
    cli.Fail(Status::InvalidArgument("unexpected positional '" + pos[p] +
                                     "'"));
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
  std::printf("corpus digest : %016llx\n",
              static_cast<unsigned long long>(result.corpus_digest()));
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
