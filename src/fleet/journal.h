#ifndef LEGO_FLEET_JOURNAL_H_
#define LEGO_FLEET_JOURNAL_H_

#include <string>
#include <string_view>

#include "fleet/fleet.h"
#include "util/status.h"

namespace lego::fleet {

/// Coordinator journal, `fleet.state` in fleet_dir: a snapshot of the
/// merged state followed by an append-only log of accepted shards, so a
/// SIGKILLed coordinator resumes from the last accepted result. Layout:
///
///   snapshot  one envelope, written via write-temp-then-rename:
///     FLFP  layout version + campaign fingerprint (config identity; resume
///           refuses a mismatch or another layout version)
///     FLET  done-shard set, merged counters, unique findings with origins
///           and capture shards, corpus pool + pending exports + held shard
///           exports, storage stats
///     GCOV  merged fleet-wide coverage bitmap
///   record*   one per shard accepted since the snapshot, appended and
///             fsynced:
///     envelope  FLRC: shard id, worker origin, and the coordinator
///               counters the outcome does not carry (requeued, expired,
///               rejected, duplicates, distill cycles and seconds)
///     envelope  the shard's result exactly as the worker sent it
///
/// A record is never written for an acceptance that ran a distill cycle
/// (that one writes a snapshot), so replaying records runs no case. A
/// failed write may leave a torn record, so the write after it is a
/// snapshot too. Shards are idempotent by id: the done-set makes replayed
/// or duplicate completions no-ops, so "journal then maybe crash before
/// status print" can never double-count.
inline constexpr char kJournalFile[] = "fleet.state";

std::string JournalPath(const std::string& fleet_dir);

/// Serializes + atomically writes a snapshot, which replaces the records
/// too. The fleet.journal_write failpoint fires here and in AppendJournal
/// (before any byte is written): `always`/`nth` fail the write — the
/// coordinator logs and keeps fuzzing with stale state — and `kill:N`
/// SIGKILLs the coordinator mid-campaign, which is exactly the crash the
/// resume test recovers from.
Status SaveJournal(const std::string& fleet_dir, const FleetConfig& config,
                   const FleetResult& result);

/// Appends one record: shard `shard` was accepted from `origin`, whose
/// result arrived as `outcome_envelope` (EncodeShardOutcome bytes), and
/// *result is the state after it. Needs a journal on disk to append to.
Status AppendJournal(const std::string& fleet_dir, int shard,
                     std::string_view outcome_envelope,
                     const std::string& origin, const FleetResult& result);

/// Loads a journal into *result (journaled fields only) after verifying the
/// fingerprint matches `config`: the snapshot, then each record through
/// AcceptShard. Replay ends at the first torn or corrupt record, and skips
/// a record whose shard the state already holds. NotFound when no journal
/// exists.
Status LoadJournal(const std::string& fleet_dir, const FleetConfig& config,
                   FleetResult* result);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_JOURNAL_H_
