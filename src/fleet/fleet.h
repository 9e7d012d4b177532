#ifndef LEGO_FLEET_FLEET_H_
#define LEGO_FLEET_FLEET_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coverage/coverage.h"
#include "fuzz/backend.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "util/status.h"

namespace lego::fleet {

/// Campaign identity shared by the coordinator and every worker process.
/// Serialized into the journal fingerprint, so a --resume under a different
/// config aborts instead of silently fuzzing the wrong campaign. A shard's
/// execution is a pure function of (config, shard id, imported pool), which
/// is what makes re-queued shards and coordinator resume loss-free.
struct FleetConfig {
  std::string profile = "pglite";
  std::string fuzzer = "lego";
  uint64_t base_seed = 1;
  /// Work units: shard s runs a serial RunCampaign seeded ShardSeed(s).
  int num_shards = 8;
  /// Executions per shard (the lease budget).
  int shard_budget = 2000;
  /// Logic oracles armed inside workers ("" = none; same spec grammar as
  /// fuzz_campaign_cli --oracle).
  std::string oracle_spec;
  bool rule_coverage = false;
  /// Worker execution backend. With paged storage, worker slot w runs under
  /// `db_dir`/fw<w> so slots never share a WAL generation.
  fuzz::BackendOptions backend;
  /// Corpus sync in generations of N shards: shard s belongs to generation
  /// s / N and imports the pool distilled from every shard of the earlier
  /// generations, merged in shard-id order. Its lease waits until that pool
  /// exists, so the merged result depends only on (config, seed) at any
  /// worker count. 0 disables redistribution (exports are still collected).
  int distill_every = 0;
};

/// Coordinator behavior knobs (not part of the campaign identity: a resume
/// may change worker count, deadlines, or chaos without a fingerprint
/// mismatch).
struct FleetOptions {
  FleetConfig config;
  /// Independent worker *processes* (forked by the coordinator).
  int num_workers = 2;
  /// Journal (fleet.state), status.json, and the collected repro/ tree.
  std::string fleet_dir;
  /// Resume from fleet_dir's journal: completed shards are not re-run
  /// (idempotent shard ids), merged findings/corpus are restored.
  bool resume = false;
  /// A leased worker that has not heartbeat for this long loses the lease:
  /// the worker is killed, the shard re-queued with backoff.
  int lease_deadline_ms = 15000;
  /// Strikes (death, expired lease, poisoned result) before a worker slot
  /// is quarantined instead of respawned.
  int strike_limit = 3;
  /// Base respawn delay after a strike; doubles per strike on the slot.
  int respawn_backoff_ms = 50;
  /// Per-slot failpoint specs ("name=mode"), armed inside the worker
  /// process right after fork — lets tests/chaos target one slot while the
  /// coordinator stays healthy. Re-armed for every respawn incarnation.
  std::vector<std::pair<int, std::string>> worker_chaos;
  /// Cooperative stop: leased workers are drained (SIGTERM -> their
  /// campaign stop flag -> partial result), in-flight shards re-queued for
  /// a later resume, a final journal written, and RunFleet returns with
  /// stopped_early set.
  const std::atomic<bool>* stop_flag = nullptr;
  /// After the campaign, triage merged captures into fleet_dir/repro
  /// (deduped .sql tree + manifest.tsv stamped with worker origins).
  bool triage = false;
  /// ddmin-minimize during fleet triage.
  bool reduce = false;
  /// status.json rewrite cadence.
  int status_every_ms = 200;
  /// Coordinator event log on stderr (spawns, strikes, leases, distills).
  bool verbose = false;
};

/// One digest over deduped finding sets: two runs found the same bugs iff
/// their digests match (fleet_cli prints it as "fleet bug digest").
uint64_t BugDigest(const std::set<uint64_t>& crash_hashes,
                   const std::set<uint64_t>& logic_fingerprints);

/// Coordinator aggregate: the merged view over every accepted shard result.
/// The persisted subset round-trips through the journal (see journal.h);
/// counters below the marker are per-run telemetry.
struct FleetResult {
  // --- journaled ---
  int64_t executions = 0;
  int64_t statements_executed = 0;
  int64_t statement_errors = 0;
  int crashes_total = 0;
  int logic_bugs_total = 0;
  size_t rules = 0;  // max over shards (rule maps don't merge bitwise)
  /// Unique findings keyed the way campaigns dedup them. Each keeps the
  /// capture from the lowest shard id that found it (`*_shards`), stamped
  /// with the origin of the worker that ran that shard, so the captures do
  /// not depend on the order shards complete.
  std::map<uint64_t, minidb::CrashInfo> crashes;  // by stack hash
  std::map<uint64_t, fuzz::TestCase> crash_cases;
  std::map<uint64_t, std::string> crash_origins;
  std::map<uint64_t, int> crash_shards;
  std::map<uint64_t, fuzz::LogicBugInfo> logic;  // by fingerprint
  std::map<uint64_t, fuzz::TestCase> logic_cases;
  std::map<uint64_t, std::string> logic_origins;
  std::map<uint64_t, int> logic_shards;
  /// Corpus: `corpus` is the current distilled pool (what leases import);
  /// `corpus_pending` holds exports collected since the last distill cycle.
  std::vector<fuzz::TestCase> corpus;
  std::vector<fuzz::TestCase> corpus_pending;
  /// Exports of done shards that wait for a lower shard id: exports enter
  /// UpdatePool strictly in shard-id order, so a shard that completes early
  /// is held here until every shard below it is done.
  std::map<int, std::vector<fuzz::TestCase>> held_exports;
  /// Exact fleet-wide edge union, merged from per-shard harness bitmaps.
  cov::GlobalCoverage coverage;
  fuzz::BackendStorageStats storage;
  std::set<int> shards_done;
  int shards_requeued = 0;
  int leases_expired = 0;
  int results_rejected = 0;   // torn/poisoned envelopes
  int duplicate_results = 0;  // idempotent shard ids: re-delivery ignored
  int distill_cycles = 0;
  /// Time spent distilling: the cover at each generation boundary plus the
  /// footprint replays of the exports as they arrived.
  double distill_seconds = 0.0;

  // --- per-run telemetry (not journaled) ---
  int shards_total = 0;
  int workers_spawned = 0;
  int workers_quarantined = 0;
  int lease_grants_deferred = 0;  // fleet.lease_grant failpoint
  int journal_failures = 0;
  /// Wall-clock seconds RunFleet spent (bench: aggregate execs/sec and
  /// coordinator overhead derive from this).
  double elapsed_seconds = 0.0;
  /// Unique bugs written to fleet_dir/repro when options.triage ran
  /// (-1 = triage not requested).
  int triaged_bugs = -1;
  bool resumed = false;
  bool stopped_early = false;
  /// Every slot quarantined with shards still pending: the campaign
  /// degraded to a journal + partial result instead of stalling.
  bool degraded = false;
  Status status = Status::OK();

  size_t edges() const { return coverage.CoveredEdges(); }
  std::set<uint64_t> crash_hashes() const {
    std::set<uint64_t> out;
    for (const auto& [hash, crash] : crashes) out.insert(hash);
    return out;
  }
  std::set<std::string> bug_ids() const {
    std::set<std::string> out;
    for (const auto& [hash, crash] : crashes) out.insert(crash.bug_id);
    return out;
  }
  /// Crash bug ids plus the triage bug id of every logic finding
  /// ("LOGIC-TLP", "ISO-LOST-UPDATE"): every bug class the fleet found.
  std::set<std::string> merged_bug_ids() const;
  uint64_t bug_digest() const {
    return BugDigest(crash_hashes(), logic_fingerprints());
  }
  /// Hash of the SQL of every `corpus` case, then every `corpus_pending`
  /// case, in order: equal digests mean equal pools, case for case.
  uint64_t corpus_digest() const;
  std::set<uint64_t> logic_fingerprints() const {
    std::set<uint64_t> out;
    for (const auto& [fp, info] : logic) out.insert(fp);
    return out;
  }
};

/// Footprints (fuzz::CaseFootprint) of a pool and of its pending exports,
/// each list parallel to a prefix of its cases; a case past the prefix has
/// none yet. The coordinator keeps one next to FleetResult::corpus and
/// corpus_pending so that each case is replayed once, and a generation
/// boundary costs only the cover. Derived state: it is not journaled, and
/// after a resume it starts empty, so every case without a footprint is
/// replayed once at the next footprinting.
struct PoolFootprints {
  std::vector<fuzz::CaseFootprint> pool;
  std::vector<fuzz::CaseFootprint> pending;
  /// The private in-process/mem harness that replays cases for their
  /// footprints: deterministic, cheap, and independent of whatever backend
  /// the workers fuzz through. Built on first use.
  std::unique_ptr<fuzz::ExecutionHarness> harness;
};

/// Corpus-sync step shared by the coordinator and the in-process reference
/// in tests: absorbs `fresh` exports into *pending and, when
/// `completed_shards` crosses the distill cadence, merges pool+pending
/// through the same footprints and greedy cover as fuzz::DistillCorpus
/// (without its verifying replay) back into *pool. Identical call sequence
/// => identical pool evolution, with or without a footprint cache. The
/// coordinator calls it once per shard in shard-id order with
/// completed_shards = shard + 1, the same sequence an in-order reference
/// makes, which is what the merge-distill-redistribute equivalence test
/// asserts at every worker count.
///
/// With `footprints`, the cache must belong to this (pool, pending) pair:
/// the fresh exports are footprinted on arrival when a later boundary will
/// distill them, and a boundary replays only the cases the cache lacks.
/// Without it, a call-local cache footprints every case at the boundary,
/// and a call between boundaries replays nothing. `distill_seconds`
/// accumulates the time of the footprint replays and of the cover.
Status UpdatePool(const FleetConfig& config, int completed_shards,
                  std::vector<fuzz::TestCase> fresh,
                  std::vector<fuzz::TestCase>* pool,
                  std::vector<fuzz::TestCase>* pending, int* distill_cycles,
                  double* distill_seconds,
                  PoolFootprints* footprints = nullptr);

/// Runs the fleet: forks options.num_workers worker processes, shards the
/// campaign across them via leased shards renewed by heartbeat, survives
/// worker crashes/hangs/poisoned results (requeue + backoff + per-slot
/// circuit breaker), journals coordinator state atomically (kill -9 safe),
/// periodically distills/redistributes the corpus, and serves status.json.
/// Fatal setup errors surface in FleetResult::status; fault-induced
/// degradation surfaces in the counters, never as a hang.
FleetResult RunFleet(const FleetOptions& options);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_FLEET_H_
