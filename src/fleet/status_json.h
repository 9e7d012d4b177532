#ifndef LEGO_FLEET_STATUS_JSON_H_
#define LEGO_FLEET_STATUS_JSON_H_

#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "util/status.h"

namespace lego::fleet {

/// Control-plane snapshot of one worker slot for status.json.
struct WorkerStatus {
  int slot = 0;
  std::string state;  // starting|idle|leased|dead|quarantined|finished
  int64_t pid = 0;
  int shard = -1;      // leased shard, -1 when none
  int strikes = 0;
  double lease_age_s = 0.0;       // since grant, leased only
  double heartbeat_age_s = 0.0;   // since last heartbeat, leased only
};

/// Renders the one-line status JSON the fleet control plane serves:
/// campaign progress (shards, execs, execs/sec, coverage, rules, unique
/// bugs), corpus sync (pool and pending sizes, distill cycles and the
/// seconds they took, FleetResult::distill_seconds), worker fleet health (live/parked/quarantined, per-slot lease
/// ages), fault counters, and storage stats. One line by contract so
/// `fleet_cli status` and CI can pipe it straight into a JSON parser.
std::string RenderStatusJson(const FleetResult& result,
                             const std::vector<WorkerStatus>& workers,
                             double elapsed_s, double execs_per_sec);

inline constexpr char kStatusFile[] = "status.json";

/// Atomically rewrites fleet_dir/status.json (readers never see a torn
/// line).
Status WriteStatusFile(const std::string& fleet_dir, const std::string& json);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_STATUS_JSON_H_
