#ifndef LEGO_CHAOS_FAILPOINT_H_
#define LEGO_CHAOS_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lego::chaos {

/// Deterministic failpoint layer.
///
/// A failpoint is a named site in production code — `LEGO_FAILPOINT("x")`
/// inside an if — that normally evaluates to false. Arming the registry
/// turns selected sites into injected faults on a seeded, reproducible
/// schedule, which is how the robustness paths (checkpoint retry, torn-file
/// fallback, spawn circuit breaker, tolerant corpus import) get exercised
/// without real disk or kernel failures.
///
/// Design constraints, in priority order:
///  - Disarmed cost is one relaxed atomic load plus a branch; no site ever
///    takes a lock or touches the registry when nothing is armed.
///  - Evaluation is lock-free throughout. ForkedBackend children inherit
///    the armed registry across fork(); a mutex held by another thread at
///    fork time would deadlock the child, so per-failpoint state is atomics
///    only and probability draws are pure functions of (seed, hit ordinal).
///  - Same seed => same fire schedule. The Nth evaluation of a failpoint
///    fires or not independent of wall clock, pid, or thread interleaving
///    of *other* failpoints.
///
/// Arming/disarming is NOT safe concurrently with evaluation; configure the
/// schedule before starting workloads (the CLI arms before building any
/// harness) and tear it down after they join.
enum class FailpointMode {
  kOff,          // never fires (counts nothing)
  kAlways,       // fires on every hit
  kProbability,  // fires per-hit with probability p, seeded draw
  kNthHit,       // fires exactly on the Nth hit (1-based), once
  kKillNthHit,   // raises SIGKILL on the Nth hit — torn-write simulation
  kHangNthHit,   // blocks forever on the Nth hit — a wedged process
};

struct FailpointInfo {
  std::string_view name;
  FailpointMode mode = FailpointMode::kOff;
  uint64_t hits = 0;   // evaluations while armed in any mode but kOff
  uint64_t fires = 0;  // evaluations that returned true
};

namespace detail {
extern std::atomic<bool> g_armed;
bool Evaluate(std::string_view name);
}  // namespace detail

/// True when the named failpoint fires this evaluation. Registered names
/// only; unknown names never fire. Hot-path cost when nothing is armed:
/// the g_armed load short-circuits before any registry lookup.
inline bool Hit(std::string_view name) {
  return detail::g_armed.load(std::memory_order_relaxed) &&
         detail::Evaluate(name);
}

/// Spelled as a macro at call sites so failpoints are greppable as a class.
#define LEGO_FAILPOINT(name) (::lego::chaos::Hit(name))

/// All names compiled into the registry (failpoint sites are code, so the
/// set is static).
std::vector<std::string_view> RegisteredFailpoints();

/// Arms every registered failpoint in probability mode. Each failpoint
/// derives its own stream from (seed, name), so schedules do not correlate
/// across sites. Resets all counters.
void ArmAll(uint64_t seed, double probability);

/// Arms one failpoint from a "name=mode" spec, where mode is one of
/// off | always | prob:P | nth:N | kill:N | hang:N (N is a 1-based hit
/// ordinal). hang:N blocks the caller on the Nth hit until the process is
/// killed; a caller whose parent process exits while it hangs kills itself,
/// so a hung worker never outlives the coordinator that would reap it.
/// Unknown names or malformed modes are InvalidArgument.
Status ArmSpec(std::string_view spec, uint64_t seed);

/// Returns every failpoint to kOff and zeroes all counters.
void DisarmAll();

uint64_t HitCount(std::string_view name);
uint64_t FireCount(std::string_view name);

/// Current mode of one failpoint (kOff for unknown names). The durability
/// checker consults this to tell an *injected* recovery failure (expected
/// while wal.recover / env sites are armed) from a genuine DUR-RECOVERY-FAIL.
FailpointMode ModeOf(std::string_view name);

/// Counter snapshot for end-of-run reporting.
std::vector<FailpointInfo> Snapshot();

std::string_view ModeName(FailpointMode mode);

}  // namespace lego::chaos

#endif  // LEGO_CHAOS_FAILPOINT_H_
