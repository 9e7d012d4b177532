#ifndef LEGO_FUZZ_DURABILITY_H_
#define LEGO_FUZZ_DURABILITY_H_

#include <optional>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/profile.h"

namespace lego::fuzz {

/// Outcome of a post-mortem durability check.
struct DurabilityVerdict {
  /// A verdict was actually computed (the db dir existed and recovery could
  /// be attempted). When false, `ok`/`crash` are meaningless and the caller
  /// falls back to its normal death handling.
  bool checked = false;
  bool ok = true;
  /// Valid when checked && !ok: a DUR-* finding ready for triage.
  minidb::CrashInfo crash;
};

/// Parent-side durability oracle for forked paged backends.
///
/// The invariant under test is the commit protocol's: *acknowledged implies
/// synced implies durable*. The tracker shadows the child's session — setup
/// script, every statement the child acknowledged (OK or error; errored
/// statements can have logged partial effects), and the one statement in
/// flight when the child died. After a death at a storage failpoint the
/// checker recovers the child's db directory out-of-process and compares
/// state digests:
///
///   digest(recovered)  ∈  { digest(shadow of acked),
///                           digest(shadow of acked + in-flight) }
///
/// Two states are legal because the in-flight statement's commit may or may
/// not have reached the disk before the kill landed. Shadows re-execute on a
/// fresh in-memory Database (execution is deterministic) and roll back any
/// still-open transaction — uncommitted effects must be invisible after
/// recovery. Anything else is a DUR-* bug:
///
///   DUR-LOST-COMMIT    recovered state matches a *proper prefix* of the
///                      acked statements — an acknowledged effect vanished
///                      (the planted skip-fsync defect lands here).
///   DUR-PHANTOM        recovered state matches no shadow at all — effects
///                      appeared that were never acknowledged, or state
///                      diverged outright.
///   DUR-RECOVERY-FAIL  recovery itself errored on a directory the engine
///                      wrote (excluded while an injected wal.recover /
///                      env.* failpoint is armed — those failures are the
///                      chaos schedule working as intended).
class DurabilityTracker {
 public:
  /// Starts shadowing a session (called at the top of every backend Reset
  /// once the child acknowledged the reset).
  void BeginSession(std::string setup_script);
  /// The session never reached a clean reset; deaths before the first
  /// tracked statement are not durability-checkable (reset empties the dir).
  void AbandonSession() { in_session_ = false; }

  /// The child answered the execute request for `sql` (ok, error or
  /// synthetic crash).
  void RecordAcked(std::string sql);
  /// `sql` was sent but not yet acknowledged.
  void SetInflight(std::string sql) { inflight_ = std::move(sql); }
  void ClearInflight() { inflight_.reset(); }

  bool in_session() const { return in_session_; }
  size_t acked_count() const { return acked_.size(); }

  /// Post-mortem check over the dead child's `dir`. `chaos_note` is folded
  /// into the finding's message so reproducer artifacts carry the kill
  /// schedule that produced it.
  DurabilityVerdict CheckAfterDeath(const minidb::DialectProfile& profile,
                                    minidb::Env* env, const std::string& dir,
                                    const std::string& chaos_note) const;

 private:
  /// Digest of a fresh in-memory Database after setup + the first
  /// `acked_prefix` acked statements (+ the in-flight statement when
  /// `with_inflight`), with any open transaction rolled back.
  uint64_t ShadowDigest(const minidb::DialectProfile& profile,
                        size_t acked_prefix, bool with_inflight) const;

  bool in_session_ = false;
  std::string setup_;
  std::vector<std::string> acked_;
  std::optional<std::string> inflight_;
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_DURABILITY_H_
