#ifndef LEGO_FLEET_JOURNAL_H_
#define LEGO_FLEET_JOURNAL_H_

#include <string>

#include "fleet/fleet.h"
#include "util/status.h"

namespace lego::fleet {

/// Coordinator journal: one enveloped state file (`fleet.state` in
/// fleet_dir) rewritten via write-temp-then-rename after every accepted
/// shard result, so a SIGKILLed coordinator resumes from the last accepted
/// result with no torn state. Layout:
///
///   FLFP  layout version + campaign fingerprint (config identity; resume
///         refuses a mismatch or another layout version)
///   FLET  done-shard set, merged counters, unique findings with origins
///         and capture shards, corpus pool + pending exports + held shard
///         exports, storage stats
///   GCOV  merged fleet-wide coverage bitmap
///
/// Shards are idempotent by id: the done-set makes replayed/duplicate
/// completions no-ops, so "journal then maybe crash before status print"
/// can never double-count.
inline constexpr char kJournalFile[] = "fleet.state";

std::string JournalPath(const std::string& fleet_dir);

/// Serializes + atomically writes the journal. The fleet.journal_write
/// failpoint fires here (before any byte is written): `always`/`nth` fail
/// the write — the coordinator logs and keeps fuzzing with stale state —
/// and `kill:N` SIGKILLs the coordinator mid-campaign, which is exactly the
/// crash the resume test recovers from.
Status SaveJournal(const std::string& fleet_dir, const FleetConfig& config,
                   const FleetResult& result);

/// Loads a journal into *result (journaled fields only) after verifying the
/// fingerprint matches `config`. NotFound when no journal exists.
Status LoadJournal(const std::string& fleet_dir, const FleetConfig& config,
                   FleetResult* result);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_JOURNAL_H_
