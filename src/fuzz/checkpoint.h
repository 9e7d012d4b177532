#ifndef LEGO_FUZZ_CHECKPOINT_H_
#define LEGO_FUZZ_CHECKPOINT_H_

#include <string>

#include "fuzz/campaign.h"
#include "persist/io.h"

namespace lego::fuzz {

/// On-disk layout of a checkpointed campaign under --state-dir:
///
///     <dir>/campaign.state   one atomic file: fingerprint, the
///                            CampaignResult so far, fuzzer state,
///                            harness state
///
/// The file is enveloped (magic/version/checksum) and written via
/// write-temp-then-rename, so a crash mid-checkpoint leaves the previous
/// complete checkpoint in place; a torn or bit-rotted file is refused on
/// resume, never half-loaded. Multi-worker runs are fleets, whose only
/// checkpoint is the coordinator journal (fleet/journal.h: fleet.state).

/// Configuration fingerprint written at the head of every state file and
/// verified on resume: a campaign may only be resumed by a process
/// configured identically (same fuzzer, profile, budgets, checkpoint
/// cadence). It carries a layout version, so a state dir written by an
/// older layout is refused instead of misread.
void WriteCampaignFingerprint(const std::string& fuzzer_name,
                              const std::string& profile_name,
                              const CampaignOptions& options,
                              persist::StateWriter* w);
Status VerifyCampaignFingerprint(const std::string& fuzzer_name,
                                 const std::string& profile_name,
                                 const CampaignOptions& options,
                                 persist::StateReader* r);

/// CampaignResult round-trip (everything except fuzzer_stats/state_status,
/// which are recomputed at campaign end).
Status SaveCampaignResult(const CampaignResult& result,
                          persist::StateWriter* w);
Status LoadCampaignResult(persist::StateReader* r, CampaignResult* result);

/// Order-independent digest over everything the acceptance bar compares:
/// executions, edges, statement tallies, crash hashes, bug ids, logic
/// fingerprints, affinities, and the full coverage curve. Two campaigns
/// with equal digests found the same coverage and the same bugs along the
/// same curve.
uint64_t ResultDigest(const CampaignResult& result);

/// Path helper (kept in one place so the CLI, tests, and corpus_cli agree
/// on the layout).
std::string SerialStatePath(const std::string& state_dir);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_CHECKPOINT_H_
