#include "fleet/status_json.h"

#include <cinttypes>
#include <cstdio>

#include "persist/io.h"

namespace lego::fleet {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendKV(std::string* out, const char* key, int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  *out += buf;
}

void AppendKV(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, v);
  *out += buf;
}

void AppendKV(std::string* out, const char* key, const std::string& v) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, v);
  *out += '"';
}

}  // namespace

std::string RenderStatusJson(const FleetResult& result,
                             const std::vector<WorkerStatus>& workers,
                             double elapsed_s, double execs_per_sec) {
  int live = 0, idle = 0, quarantined = 0, dead = 0;
  for (const auto& w : workers) {
    if (w.state == "leased" || w.state == "starting") ++live;
    if (w.state == "idle") ++idle;
    if (w.state == "quarantined") ++quarantined;
    if (w.state == "dead") ++dead;
  }
  std::string out = "{";
  AppendKV(&out, "elapsed_s", elapsed_s);
  out += ',';
  AppendKV(&out, "shards_total", static_cast<int64_t>(result.shards_total));
  out += ',';
  AppendKV(&out, "shards_done",
           static_cast<int64_t>(result.shards_done.size()));
  out += ',';
  AppendKV(&out, "shards_requeued",
           static_cast<int64_t>(result.shards_requeued));
  out += ',';
  AppendKV(&out, "executions", result.executions);
  out += ',';
  AppendKV(&out, "execs_per_sec", execs_per_sec);
  out += ',';
  AppendKV(&out, "statements", result.statements_executed);
  out += ',';
  AppendKV(&out, "edges", static_cast<int64_t>(result.edges()));
  out += ',';
  AppendKV(&out, "rules", static_cast<int64_t>(result.rules));
  out += ',';
  AppendKV(&out, "unique_crashes", static_cast<int64_t>(result.crashes.size()));
  out += ',';
  AppendKV(&out, "unique_logic_bugs",
           static_cast<int64_t>(result.logic.size()));
  out += ',';
  AppendKV(&out, "corpus_pool", static_cast<int64_t>(result.corpus.size()));
  out += ',';
  AppendKV(&out, "corpus_pending",
           static_cast<int64_t>(result.corpus_pending.size()));
  out += ',';
  AppendKV(&out, "distill_cycles", static_cast<int64_t>(result.distill_cycles));
  out += ',';
  AppendKV(&out, "distill_seconds", result.distill_seconds);
  out += ',';
  AppendKV(&out, "leases_expired", static_cast<int64_t>(result.leases_expired));
  out += ',';
  AppendKV(&out, "results_rejected",
           static_cast<int64_t>(result.results_rejected));
  out += ',';
  AppendKV(&out, "workers_live", static_cast<int64_t>(live));
  out += ',';
  AppendKV(&out, "workers_idle", static_cast<int64_t>(idle));
  out += ',';
  AppendKV(&out, "workers_dead", static_cast<int64_t>(dead));
  out += ',';
  AppendKV(&out, "workers_quarantined", static_cast<int64_t>(quarantined));
  out += ',';
  AppendKV(&out, "degraded", static_cast<int64_t>(result.degraded ? 1 : 0));
  out += ",\"storage\":{";
  AppendKV(&out, "pool_hit_rate", result.storage.pool_hit_rate());
  out += ',';
  AppendKV(&out, "wal_records", static_cast<int64_t>(result.storage.wal_records));
  out += ',';
  AppendKV(&out, "fsyncs", static_cast<int64_t>(result.storage.fsyncs));
  out += "},\"workers\":[";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerStatus& w = workers[i];
    if (i > 0) out += ',';
    out += '{';
    AppendKV(&out, "slot", static_cast<int64_t>(w.slot));
    out += ',';
    AppendKV(&out, "state", w.state);
    out += ',';
    AppendKV(&out, "pid", w.pid);
    out += ',';
    AppendKV(&out, "shard", static_cast<int64_t>(w.shard));
    out += ',';
    AppendKV(&out, "strikes", static_cast<int64_t>(w.strikes));
    out += ',';
    AppendKV(&out, "lease_age_s", w.lease_age_s);
    out += ',';
    AppendKV(&out, "heartbeat_age_s", w.heartbeat_age_s);
    out += '}';
  }
  out += "]}";
  return out;
}

Status WriteStatusFile(const std::string& fleet_dir, const std::string& json) {
  return persist::WriteTextFileAtomic(fleet_dir + "/" + kStatusFile,
                                      json + "\n");
}

}  // namespace lego::fleet
