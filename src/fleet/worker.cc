#include "fleet/worker.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "chaos/failpoint.h"
#include "fleet/protocol.h"
#include "fleet/shard.h"

namespace lego::fleet {
namespace {

std::atomic<bool> g_worker_stop{false};

void HandleWorkerStop(int) { g_worker_stop.store(true); }

void InstallWorkerSignals() {
  struct sigaction sa;
  sa.sa_handler = HandleWorkerStop;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a drain must interrupt a blocking read on the command
  // pipe, not wait for the next frame.
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

}  // namespace

int WorkerMain(const WorkerContext& ctx) {
  InstallWorkerSignals();
  g_worker_stop.store(false);

  // Each incarnation re-arms its chaos schedule from scratch, so hit
  // ordinals (nth:N, kill:N) restart at zero on every respawn — a worker
  // configured to die keeps dying until quarantined, which is the behavior
  // the circuit-breaker tests script.
  chaos::DisarmAll();
  for (const std::string& spec : ctx.chaos_specs) {
    Status st = chaos::ArmSpec(spec, ctx.chaos_seed);
    if (!st.ok()) {
      std::fprintf(stderr, "fleet worker %d: bad chaos spec '%s': %s\n",
                   ctx.slot, spec.c_str(), st.ToString().c_str());
      return 2;
    }
  }

  FleetConfig config = ctx.config;
  // Paged storage: every slot gets a private database directory so WAL
  // generations never interleave across workers.
  if (!config.backend.db_dir.empty()) {
    config.backend.db_dir += "/fw" + std::to_string(ctx.slot);
  }

  std::string hello;
  AppendU64(&hello, static_cast<uint64_t>(::getpid()));
  if (!SendFrame(ctx.resp_fd, MsgType::kHello, hello).ok()) return 1;

  for (;;) {
    uint8_t type = 0;
    std::string payload;
    Status st = RecvFrame(ctx.cmd_fd, &type, &payload, &g_worker_stop);
    if (!st.ok()) {
      // Clean EOF or drain with no lease in flight: nothing to hand back.
      return g_worker_stop.load() ? 0
             : st.code() == StatusCode::kNotFound ? 0
                                                  : 1;
    }
    if (type == static_cast<uint8_t>(MsgType::kShutdown)) return 0;
    if (type != static_cast<uint8_t>(MsgType::kLeaseGrant)) {
      std::fprintf(stderr, "fleet worker %d: unexpected frame type %d\n",
                   ctx.slot, static_cast<int>(type));
      return 1;
    }

    // Lease grant: shard | pool envelope. The budget is config.shard_budget.
    if (payload.size() < 4) return 1;
    const int shard_id = static_cast<int>(ReadU32(payload, 0));
    std::vector<fuzz::TestCase> pool;
    if (payload.size() > 4) {
      auto decoded = DecodePool(payload.substr(4));
      if (!decoded.ok()) {
        std::fprintf(stderr, "fleet worker %d: bad pool in lease: %s\n",
                     ctx.slot, decoded.status().ToString().c_str());
        return 1;
      }
      pool = std::move(*decoded);
    }

    auto progress = [&](int64_t executions) {
      // The heartbeat failpoint models a worker that keeps fuzzing but goes
      // silent (mode always/prob) or dies mid-shard (kill:N) — the
      // coordinator's lease deadline covers both.
      if (LEGO_FAILPOINT("fleet.heartbeat")) return;
      std::string hb;
      AppendU32(&hb, static_cast<uint32_t>(shard_id));
      AppendU64(&hb, static_cast<uint64_t>(executions));
      (void)SendFrame(ctx.resp_fd, MsgType::kHeartbeat, hb);
    };
    // Lease-accept heartbeat: the grant is acknowledged before the first
    // progress interval, so lease age and heartbeat age start together.
    progress(0);

    auto outcome = ExecuteShard(config, shard_id, pool, &g_worker_stop,
                                progress);
    if (!outcome.ok()) {
      std::fprintf(stderr, "fleet worker %d: shard %d failed: %s\n", ctx.slot,
                   shard_id, outcome.status().ToString().c_str());
      return 3;
    }

    std::string envelope = EncodeShardOutcome(*outcome);
    if (LEGO_FAILPOINT("fleet.result_write") && !envelope.empty()) {
      // Poison one payload byte past the header: the frame arrives intact
      // but the envelope checksum no longer matches.
      envelope[envelope.size() / 2] =
          static_cast<char>(envelope[envelope.size() / 2] ^ 0x5a);
    }
    std::string result_payload;
    AppendU32(&result_payload, static_cast<uint32_t>(shard_id));
    result_payload += envelope;
    if (!SendFrame(ctx.resp_fd, MsgType::kResult, result_payload).ok()) {
      return 1;
    }
    if (g_worker_stop.load()) return 0;
  }
}

}  // namespace lego::fleet
