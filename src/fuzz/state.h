#ifndef LEGO_FUZZ_STATE_H_
#define LEGO_FUZZ_STATE_H_

#include <deque>
#include <vector>

#include "fuzz/backend.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "persist/io.h"
#include "util/random.h"

namespace lego::fuzz {

/// Shared serde helpers for campaign state. Component-owned state lives in
/// member SaveState/LoadState methods (Corpus, ExecutionHarness, the
/// fuzzers); the pieces used by several components — Rng streams, test
/// cases, pending-work queues — are serialized through these free functions
/// so every layer writes the same byte layout.

/// Rng: the four raw xoshiro words inside an "RNGS" chunk.
void SaveRng(const Rng& rng, persist::StateWriter* w);
Status LoadRng(persist::StateReader* r, Rng* rng);

/// TestCase: statement count + each statement via the structural AST serde
/// (no chunk — test cases nest inside corpus/queue chunks by the hundreds).
void SaveTestCase(const TestCase& tc, persist::StateWriter* w);
StatusOr<TestCase> LoadTestCase(persist::StateReader* r);

/// A pending-work queue of test cases, FIFO order preserved.
void SaveTestCaseQueue(const std::deque<TestCase>& q, persist::StateWriter* w);
Status LoadTestCaseQueue(persist::StateReader* r, std::deque<TestCase>* q);

/// A list of test cases (corpus exports, distilled pools): count, then each
/// case. Same bytes as a queue of the same cases.
void SaveTestCases(const std::vector<TestCase>& cases,
                   persist::StateWriter* w);
Status LoadTestCases(persist::StateReader* r, std::vector<TestCase>* cases);

/// Campaign findings, field by field with no chunk, so the checkpoint, the
/// shard result and the fleet journal share one layout: CrashInfo as
/// bug_id, component, kind, stack_hash, message; LogicBugInfo as check,
/// query, detail, fingerprint, interleave_seed, sessions (U32). Read errors
/// surface through the reader's status.
void SaveCrashInfo(const minidb::CrashInfo& crash, persist::StateWriter* w);
minidb::CrashInfo LoadCrashInfo(persist::StateReader* r);
void SaveLogicBug(const LogicBugInfo& bug, persist::StateWriter* w);
LogicBugInfo LoadLogicBug(persist::StateReader* r);

/// The eleven BackendStorageStats counters, in declaration order.
void SaveStorageStats(const BackendStorageStats& s, persist::StateWriter* w);
BackendStorageStats LoadStorageStats(persist::StateReader* r);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_STATE_H_
