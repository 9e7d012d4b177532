// Steady end-to-end benchmark of lego on pglite, with a traced per-layer
// split. One process, one workload per invocation:
//
//   lego_perf --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//             [--budget EXECS]
//
// --trace 0 repeats a fixed-budget campaign until S seconds are used and
// prints the end-to-end metrics (medians over the repetitions). --trace 1
// alternates an untraced campaign with a replay of the same campaign
// through the public layer calls, each call timed from here, and prints the
// per-layer split. The last stdout line is one JSON object; everything else
// goes to stderr. perfbench/README.md explains the workloads and metrics.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coverage/coverage.h"
#include "coverage/rule_coverage.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/protocol.h"
#include "fleet/shard.h"
#include "fleet/worker.h"
#include "fuzz/backend.h"
#include "fuzz/backend_concurrent.h"
#include "fuzz/campaign.h"
#include "fuzz/harness.h"
#include "fuzz/multi_case.h"
#include "minidb/env.h"
#include "minidb/profile.h"
#include "triage/oracle_suite.h"
#include "triage/triage.h"
#include "util/hash.h"

namespace lego::perf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+sys CPU of this process (all threads) and its reaped children.
double CpuSeconds() {
  auto sum = [](int who) {
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
  };
  return sum(RUSAGE_SELF) + sum(RUSAGE_CHILDREN);
}

/// CPU of this process, all threads, without children: cheap enough to read
/// around every concurrent case.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One benchmark workload: lego on pglite with a fixed execution budget.
struct Workload {
  std::string name;
  int budget = 0;  // executions per campaign (per shard on the fleet)
  /// Typical seconds of one campaign on a 4-vCPU x86 VM; sets how many
  /// campaigns fit in --seconds.
  double nominal_s = 1.0;
  fuzz::BackendOptions backend;
  std::string oracle_spec;
  bool rule_coverage = false;
  /// Run every thread on one CPU (see README: sessions-3).
  bool one_cpu = false;
  // Fleet only.
  bool fleet = false;
  int shards = 0;
  int workers = 0;
};

// Why each workload exists, and which layer it loads, is recorded in
// perfbench/README.md; the budgets here are what that file describes.
bool WorkloadByName(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "feedback-mem") {
    w->budget = 30000;
    w->nominal_s = 3.0;
  } else if (name == "paged-oracle") {
    w->budget = 5000;
    w->nominal_s = 1.5;
    w->backend.storage = fuzz::StorageKind::kPaged;
    w->oracle_spec = "tlp,norec,clause";
    w->rule_coverage = true;
  } else if (name == "sessions-3") {
    w->budget = 5000;
    w->nominal_s = 1.5;
    w->backend.kind = fuzz::BackendKind::kConcurrent;
    w->backend.sessions = 3;
    w->oracle_spec = "iso";
    w->one_cpu = true;
  } else if (name == "fleet-2") {
    w->budget = 2000;
    w->nominal_s = 2.8;
    w->fleet = true;
    w->shards = 12;
    w->workers = 2;
  } else {
    return false;
  }
  return true;
}

/// Restricts this process, and the threads it starts later, to the highest
/// CPU it may run on.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

const minidb::DialectProfile& Profile() {
  return minidb::DialectProfile::PgLite();
}

fuzz::BackendOptions BackendFor(const Workload& w, uint64_t seed,
                                const std::string& db_dir) {
  fuzz::BackendOptions b = w.backend;
  b.concurrency_seed = seed;
  if (b.storage == fuzz::StorageKind::kPaged) b.db_dir = db_dir;
  return b;
}

std::unique_ptr<triage::OracleSuite> MakeSuite(const std::string& spec) {
  if (spec.empty()) return nullptr;
  std::string error;
  auto suite = triage::OracleSuite::FromSpec(spec, &error);
  if (suite == nullptr) {
    std::fprintf(stderr, "lego_perf: bad oracle spec %s: %s\n", spec.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return suite;
}

fleet::FleetConfig FleetConfigFor(const Workload& w, uint64_t seed) {
  fleet::FleetConfig c;
  c.profile = Profile().name;
  c.fuzzer = "lego";
  c.base_seed = seed;
  c.num_shards = w.shards;
  c.shard_budget = w.budget;
  c.oracle_spec = w.oracle_spec;
  c.rule_coverage = w.rule_coverage;
  c.backend = w.backend;
  // One distill cycle, after the last shard: every shard imports the same
  // empty pool, so the merged result cannot depend on which worker finishes
  // first.
  c.distill_every = w.shards;
  return c;
}

/// Fuzzer, oracle and harness of one serial campaign.
struct Campaign {
  std::unique_ptr<fuzz::Fuzzer> fuzzer;
  std::unique_ptr<triage::OracleSuite> suite;
  std::unique_ptr<fuzz::ExecutionHarness> harness;
};

Campaign BuildCampaign(const Workload& w, uint64_t seed,
                       const std::string& db_dir) {
  Campaign c;
  c.fuzzer = fleet::MakeFleetFuzzer("lego", Profile(), seed);
  c.suite = MakeSuite(w.oracle_spec);
  c.harness = std::make_unique<fuzz::ExecutionHarness>(
      Profile(), BackendFor(w, seed, db_dir));
  c.harness->set_rule_coverage(w.rule_coverage);
  if (c.suite != nullptr) c.harness->set_logic_oracle(c.suite.get());
  return c;
}

/// A forked fleet worker, as the coordinator starts one: fork, WorkerMain in
/// the child, and the hello frame back. Stop() shuts it down and reaps it.
class ForkedWorker {
 public:
  ForkedWorker(const fleet::FleetConfig& config, int slot) {
    int cmd[2], resp[2];
    if (::pipe(cmd) != 0) return;
    if (::pipe(resp) != 0) {
      ::close(cmd[0]);
      ::close(cmd[1]);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(cmd[1]);
      ::close(resp[0]);
      fleet::WorkerContext ctx;
      ctx.config = config;
      ctx.slot = slot;
      ctx.cmd_fd = cmd[0];
      ctx.resp_fd = resp[1];
      _exit(fleet::WorkerMain(ctx));
    }
    ::close(cmd[0]);
    ::close(resp[1]);
    cmd_fd_ = cmd[1];
    resp_fd_ = resp[0];
    if (pid_ < 0) return;
    uint8_t type = 0;
    std::string payload;
    hello_ = fleet::RecvFrame(resp_fd_, &type, &payload).ok() &&
             type == static_cast<uint8_t>(fleet::MsgType::kHello);
  }
  ~ForkedWorker() { Stop(); }
  ForkedWorker(const ForkedWorker&) = delete;
  ForkedWorker& operator=(const ForkedWorker&) = delete;

  bool hello() const { return hello_; }

  void Stop() {
    if (cmd_fd_ >= 0) {
      (void)fleet::SendFrame(cmd_fd_, fleet::MsgType::kShutdown, "");
      ::close(cmd_fd_);
      cmd_fd_ = -1;
    }
    if (resp_fd_ >= 0) {
      ::close(resp_fd_);
      resp_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int resp_fd_ = -1;
  bool hello_ = false;
};

/// One set-up, timed: everything before a campaign's first execution.
/// Returns seconds, or a negative value when a fleet worker never said
/// hello.
double TimeSetup(const Workload& w, uint64_t seed, const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  Campaign c = BuildCampaign(w, seed, dir + "/db");
  c.fuzzer->Prepare(c.harness.get());
  c.harness->backend().Reset();
  std::vector<std::unique_ptr<ForkedWorker>> workers;
  bool hello = true;
  if (w.fleet) {
    const fleet::FleetConfig config = FleetConfigFor(w, seed);
    for (int s = 0; s < w.workers; ++s) {
      workers.push_back(std::make_unique<ForkedWorker>(config, s));
      hello = hello && workers.back()->hello();
    }
  }
  const double seconds = SecondsSince(t0);
  workers.clear();
  c = Campaign{};
  std::filesystem::remove_all(dir);
  return hello ? seconds : -1.0;
}

/// What one campaign (untraced or traced) produced, for the checks.
struct Outcome {
  int64_t executions = 0;
  size_t edges = 0;
  size_t corpus = 0;
  std::set<uint64_t> crash_hashes;
  std::set<uint64_t> logic_fingerprints;
  std::string error;         // the first lego call that returned an error
  int logic_flags = 0;       // logic-oracle findings, iso anomalies included
  /// Unique logic findings that did not flag again when replayed.
  int unconfirmed = 0;
  int durability_flags = 0;  // DUR-* crashes
  // Fleet only.
  int shards_done = 0;
  int shards_requeued = 0;
  int leases_expired = 0;
  int results_rejected = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

int CountPrefixed(const std::set<std::string>& ids, const std::string& p) {
  int n = 0;
  for (const std::string& id : ids) n += id.rfind(p, 0) == 0 ? 1 : 0;
  return n;
}

/// Replays every captured logic finding (`findings` holds only those) on a
/// fresh backend of the workload, as triage does without reducing, and
/// returns how many did not flag again under the same oracle. pglite has
/// engine inconsistencies nobody planted, and flagging them is the oracles'
/// job; a finding that does not reproduce is the fuzzer's error.
int ReplayFindings(const Workload& w, uint64_t seed, const std::string& dir,
                   const fuzz::CampaignResult& findings) {
  if (findings.captured_logic_cases.empty()) return 0;
  triage::TriageOptions options;
  options.reduce = false;
  options.backend = BackendFor(w, seed, dir + "/replay");
  const triage::TriageReport report =
      triage::TriageCampaign(findings, Profile(), "", options);
  for (const triage::TriagedBug& bug : report.bugs) {
    std::fprintf(stderr, "%s finding, replayed: %s: %s -- %s\n",
                 w.name.c_str(), bug.logic.check.c_str(),
                 bug.logic.query.c_str(), bug.logic.detail.c_str());
  }
  return report.not_reproduced;
}

Outcome RunSerial(const Workload& w, uint64_t seed, const std::string& dir) {
  Campaign c = BuildCampaign(w, seed, dir + "/db");
  fuzz::CampaignOptions options;
  options.max_executions = w.budget;
  options.snapshot_every = 0;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  fuzz::CampaignResult r =
      fuzz::RunCampaign(c.fuzzer.get(), c.harness.get(), options);
  Outcome o;
  o.wall_s = SecondsSince(t0);
  o.cpu_s = CpuSeconds() - cpu0;
  o.executions = r.executions;
  o.edges = r.edges;
  o.corpus = r.fuzzer_stats.corpus_seeds;
  o.crash_hashes = r.crash_hashes;
  o.logic_fingerprints = r.logic_fingerprints;
  o.logic_flags = r.logic_bugs_total;
  o.durability_flags = CountPrefixed(r.bug_ids, "DUR-");
  fuzz::CampaignResult findings;
  findings.captured_logic_bugs = std::move(r.captured_logic_bugs);
  findings.captured_logic_cases = std::move(r.captured_logic_cases);
  o.unconfirmed = ReplayFindings(w, seed, dir, findings);
  c = Campaign{};
  std::filesystem::remove_all(dir);
  return o;
}

Outcome RunFleetOnce(const Workload& w, uint64_t seed, const std::string& dir) {
  fleet::FleetOptions options;
  options.config = FleetConfigFor(w, seed);
  options.num_workers = w.workers;
  options.fleet_dir = dir + "/fleet";
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  fleet::FleetResult r = fleet::RunFleet(options);
  Outcome o;
  o.wall_s = SecondsSince(t0);
  o.cpu_s = CpuSeconds() - cpu0;
  if (!r.status.ok()) o.error = "RunFleet: " + r.status.ToString();
  o.executions = r.executions;
  o.edges = r.edges();
  o.corpus = r.corpus.size();
  o.crash_hashes = r.crash_hashes();
  o.logic_fingerprints = r.logic_fingerprints();
  o.logic_flags = r.logic_bugs_total;
  o.durability_flags = CountPrefixed(r.bug_ids(), "DUR-");
  o.shards_done = static_cast<int>(r.shards_done.size());
  o.shards_requeued = r.shards_requeued;
  o.leases_expired = r.leases_expired;
  o.results_rejected = r.results_rejected;
  std::filesystem::remove_all(dir);
  return o;
}

Outcome RunOnce(const Workload& w, uint64_t seed, const std::string& dir) {
  return w.fleet ? RunFleetOnce(w, seed, dir) : RunSerial(w, seed, dir);
}

/// The checks every campaign must pass. Returns the failures, one line each.
std::vector<std::string> Check(const Workload& w, const Outcome& o,
                               const Outcome* reference) {
  std::vector<std::string> bad;
  if (!o.error.empty()) bad.push_back(o.error);
  const int64_t budget =
      static_cast<int64_t>(w.budget) * (w.fleet ? w.shards : 1);
  if (o.executions != budget) {
    bad.push_back("ran " + std::to_string(o.executions) + " of " +
                  std::to_string(budget) + " executions");
  }
  if (o.unconfirmed != 0) {
    bad.push_back(std::to_string(o.unconfirmed) + " of " +
                  std::to_string(o.logic_fingerprints.size()) +
                  " logic/ISO findings did not reproduce on replay");
  }
  if (o.durability_flags != 0) {
    bad.push_back("durability flags with no durability oracle: " +
                  std::to_string(o.durability_flags) + " DUR");
  }
  if (w.fleet && (o.shards_done != w.shards || o.shards_requeued != 0 ||
                  o.leases_expired != 0 || o.results_rejected != 0)) {
    bad.push_back("fleet finished " + std::to_string(o.shards_done) + "/" +
                  std::to_string(w.shards) + " shards, " +
                  std::to_string(o.shards_requeued) + " requeued, " +
                  std::to_string(o.leases_expired) + " expired, " +
                  std::to_string(o.results_rejected) + " rejected");
  }
  if (reference != nullptr && o.edges != reference->edges) {
    bad.push_back("edges " + std::to_string(o.edges) + " != " +
                  std::to_string(reference->edges) + " of the first run");
  }
  if (reference != nullptr &&
      (o.logic_fingerprints != reference->logic_fingerprints ||
       o.logic_flags != reference->logic_flags)) {
    bad.push_back("logic findings differ from the first run: " +
                  std::to_string(o.logic_flags) + " flags, " +
                  std::to_string(o.logic_fingerprints.size()) + " unique vs " +
                  std::to_string(reference->logic_flags) + ", " +
                  std::to_string(reference->logic_fingerprints.size()));
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Traced replay.

/// Adds the lifetime of the enclosing scope to `*acc` (seconds).
class Span {
 public:
  explicit Span(double* acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { *acc_ += SecondsSince(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_;
};

/// Per-layer totals over one traced campaign (seconds and counts).
struct Layers {
  double next = 0, on_result = 0, reset = 0, execute = 0, classify = 0,
         merge = 0, rules = 0, oracle = 0, run_case = 0, handoff_wait = 0;
  double shard = 0, encode = 0, fleet_merge = 0, distill = 0, journal = 0;
  int64_t executed = 0, errors = 0, stmts = 0, oracle_checks = 0,
          new_cov = 0, switches = 0, deadlocks = 0, journal_writes = 0,
          result_bytes = 0;
  uint64_t fsyncs = 0, wal_bytes = 0, bytes_written = 0;
  double wall = 0;

  double Spans() const {
    return next + on_result + reset + execute + classify + merge + rules +
           oracle + run_case + shard + encode + fleet_merge + distill +
           journal;
  }
};

/// Replays RunSerialCampaign + ExecutionHarness::Run through the public
/// layer calls, in the same order, timing each call.
Outcome TraceSerial(const Workload& w, uint64_t seed, const std::string& dir,
                    Layers* L) {
  const minidb::DialectProfile& profile = Profile();
  const fuzz::BackendOptions options = BackendFor(w, seed, dir + "/db");
  auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, seed);
  auto suite = MakeSuite(w.oracle_spec);
  {
    // Prepare reads only the harness's feedback configuration.
    fuzz::ExecutionHarness config_only(profile);
    config_only.set_rule_coverage(w.rule_coverage);
    fuzzer->Prepare(&config_only);
  }
  std::unique_ptr<fuzz::DbBackend> backend =
      fuzz::MakeBackend(profile, options);
  const bool concurrent = options.kind == fuzz::BackendKind::kConcurrent &&
                          options.sessions > 1;
  cov::GlobalCoverage coverage;
  cov::GlobalRuleCoverage rule_coverage;
  Outcome o;
  const uint64_t written0 = minidb::Env::Posix()->stats().bytes_written;
  const Clock::time_point t0 = Clock::now();

  for (int i = 0; i < w.budget; ++i) {
    fuzz::TestCase tc;
    {
      Span s(&L->next);
      tc = fuzzer->Next();
    }
    fuzz::ExecResult result;
    if (concurrent) {
      auto* cb = static_cast<fuzz::ConcurrentBackend*>(backend.get());
      const uint64_t iseed =
          HashMix(options.concurrency_seed, static_cast<uint64_t>(i + 1));
      {
        Span s(&L->reset);
        cb->Reset();
      }
      fuzz::ConcurrentBackend::CaseResult cr;
      {
        Span s(&L->run_case);
        const double cpu0 = ProcessCpuSeconds();
        const Clock::time_point c0 = Clock::now();
        fuzz::MultiSessionCase mcase =
            fuzz::SplitForSessions(tc, options.sessions, iseed);
        cr = cb->RunCase(mcase, iseed);
        L->handoff_wait +=
            std::max(0.0, SecondsSince(c0) - (ProcessCpuSeconds() - cpu0));
      }
      result.executed = cr.setup_executed + cr.stats.executed;
      result.errors = cr.setup_errors + cr.stats.errors;
      L->switches += cr.stats.switches;
      L->deadlocks += cr.stats.deadlocks;
      if (cr.stats.crashed) {
        result.crashed = true;
        if (cr.stats.crash.has_value()) result.crash = *cr.stats.crash;
      } else if (suite != nullptr) {
        Span s(&L->oracle);
        ++L->oracle_checks;
        result.logic_bug = suite->CheckHistory(cb->history(), &result.logic);
      }
    } else {
      {
        Span s(&L->reset);
        backend->Reset();
      }
      for (const sql::StmtPtr& stmt : tc.statements()) {
        fuzz::StmtOutcome out;
        {
          Span s(&L->execute);
          out = backend->Execute(*stmt, /*want_rows=*/false);
        }
        if (out.status == fuzz::StmtOutcome::Status::kOk) {
          ++result.executed;
          if (suite != nullptr && !result.logic_bug &&
              stmt->type() == sql::StatementType::kSelect) {
            Span s(&L->oracle);
            ++L->oracle_checks;
            fuzz::OracleSession guard(backend.get());
            result.logic_bug = suite->Check(backend.get(), *stmt,
                                            &result.logic);
          }
          continue;
        }
        if (out.server_died()) {
          result.crashed = true;
          result.crash = out.crash;
          result.hang = out.status == fuzz::StmtOutcome::Status::kHang;
          break;
        }
        ++result.errors;
      }
    }
    {
      const cov::CoverageMap* run_map = nullptr;
      {
        Span s(&L->classify);
        run_map = &backend->FinishRun();
      }
      Span s(&L->merge);
      result.new_coverage = coverage.MergeDetectNew(*run_map);
      result.total_edges = coverage.CoveredEdges();
    }
    if (w.rule_coverage) {
      Span s(&L->rules);
      cov::RuleMap rule_map;
      cov::CollectRules(tc.ToSql(), &rule_map);
      result.new_rules = rule_coverage.MergeDetectNew(rule_map);
      result.total_rules = rule_coverage.CoveredRules();
    }
    ++o.executions;
    L->executed += result.executed;
    L->errors += result.errors;
    L->new_cov += result.new_coverage ? 1 : 0;
    if (result.crashed) o.crash_hashes.insert(result.crash.stack_hash);
    if (result.logic_bug) {
      ++o.logic_flags;
      o.logic_fingerprints.insert(result.logic.fingerprint);
    }
    {
      Span s(&L->on_result);
      fuzzer->OnResult(tc, result);
    }
  }

  L->wall = SecondsSince(t0);
  L->stmts = L->executed + L->errors;
  const fuzz::BackendStorageStats storage = backend->storage_stats();
  L->fsyncs = storage.fsyncs;
  L->wal_bytes = storage.wal_bytes;
  L->bytes_written = minidb::Env::Posix()->stats().bytes_written - written0;
  o.edges = coverage.CoveredEdges();
  o.corpus = fuzzer->stats().corpus_seeds;
  backend.reset();
  std::filesystem::remove_all(dir);
  return o;
}

/// Replays the fleet's shards in process, in shard order, through the calls
/// the coordinator and its workers make: ExecuteShard, EncodeShardOutcome,
/// the merge, UpdatePool and SaveJournal.
Outcome TraceFleet(const Workload& w, uint64_t seed, const std::string& dir,
                   Layers* L) {
  const fleet::FleetConfig config = FleetConfigFor(w, seed);
  const std::string fleet_dir = dir + "/fleet";
  std::filesystem::create_directories(fleet_dir);
  fleet::FleetResult merged;
  Outcome o;
  const Clock::time_point t0 = Clock::now();
  for (int shard = 0; shard < w.shards; ++shard) {
    const Clock::time_point shard0 = Clock::now();
    StatusOr<fleet::ShardOutcome> out =
        fleet::ExecuteShard(config, shard, merged.corpus, nullptr, {});
    L->shard += SecondsSince(shard0);
    if (!out.ok()) {
      o.error = "ExecuteShard: " + out.status().ToString();
      break;
    }
    {
      Span s(&L->encode);
      L->result_bytes +=
          static_cast<int64_t>(fleet::EncodeShardOutcome(*out).size());
    }
    const fuzz::CampaignResult& r = out->result;
    {
      Span s(&L->fleet_merge);
      merged.executions += r.executions;
      merged.statements_executed += r.statements_executed;
      merged.statement_errors += r.statement_errors;
      merged.crashes_total += r.crashes_total;
      merged.logic_bugs_total += r.logic_bugs_total;
      merged.coverage.MergeFrom(out->coverage);
      for (size_t i = 0; i < r.captured_crashes.size(); ++i) {
        const uint64_t hash = r.captured_crashes[i].stack_hash;
        if (merged.crashes.emplace(hash, r.captured_crashes[i]).second) {
          merged.crash_cases.emplace(hash, r.captured_cases[i].Clone());
        }
      }
      for (size_t i = 0; i < r.captured_logic_bugs.size(); ++i) {
        const uint64_t fp = r.captured_logic_bugs[i].fingerprint;
        if (merged.logic.emplace(fp, r.captured_logic_bugs[i]).second) {
          merged.logic_cases.emplace(fp, r.captured_logic_cases[i].Clone());
        }
      }
      merged.shards_done.insert(shard);
    }
    {
      Span s(&L->distill);
      Status st = fleet::UpdatePool(
          config, static_cast<int>(merged.shards_done.size()),
          std::move(out->result.corpus_export), &merged.corpus,
          &merged.corpus_pending, &merged.distill_cycles,
          &merged.distill_seconds);
      if (!st.ok() && o.error.empty()) {
        o.error = "UpdatePool: " + st.ToString();
      }
    }
    {
      Span s(&L->journal);
      Status st = fleet::SaveJournal(fleet_dir, config, merged);
      if (!st.ok() && o.error.empty()) {
        o.error = "SaveJournal: " + st.ToString();
      }
      ++L->journal_writes;
    }
  }
  L->wall = SecondsSince(t0);
  L->executed = merged.statements_executed;
  L->errors = merged.statement_errors;
  L->stmts = L->executed + L->errors;
  o.executions = merged.executions;
  o.edges = merged.edges();
  o.corpus = merged.corpus.size();
  o.crash_hashes = merged.crash_hashes();
  o.logic_fingerprints = merged.logic_fingerprints();
  o.logic_flags = merged.logic_bugs_total;
  o.shards_done = static_cast<int>(merged.shards_done.size());
  std::filesystem::remove_all(dir);
  return o;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Report(const std::vector<std::string>& failures, const char* what,
            int rep) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "lego_perf: FAILED %s %d: %s\n", what, rep,
                 f.c_str());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string tmp;
  int budget = 0;  // 0 = the workload's own budget
};

/// Set-ups timed before each campaign. Spreading them over the run, rather
/// than timing them in one burst, keeps a passing hiccup of the machine out
/// of the median.
constexpr int kSetupTrialsPerCampaign = 8;

/// Campaign seed `i` of a run: distinct campaigns average out how much one
/// seed's trajectory costs, and the same --seed always gives the same list.
uint64_t SubSeed(uint64_t seed, int i) {
  return HashMix(seed, static_cast<uint64_t>(i));
}

/// --trace 0: a fixed number of campaigns with distinct sub-seeds, each
/// after a few timed set-ups, then the first sub-seed once more, which must
/// repeat its edges exactly. The count is set by --seconds and the
/// workload's nominal campaign time, never by how fast this machine runs,
/// so a faster build does the same work.
void RunEndToEnd(const Workload& w, const Args& args) {
  const int campaigns =
      std::max(2, static_cast<int>(args.seconds / w.nominal_s) - 1);
  int attempted = 0, failed = 0;
  std::vector<double> setups;
  double wall = 0, cpu = 0, execs = 0, edges = 0;
  Outcome first;
  for (int i = 0; i <= campaigns; ++i) {
    const bool repeat = i == campaigns;
    const uint64_t seed = SubSeed(args.seed, repeat ? 0 : i);
    for (int t = 0; t < kSetupTrialsPerCampaign; ++t) {
      ++attempted;
      const double s = TimeSetup(w, seed, args.tmp + "/setup");
      if (s < 0) {
        ++failed;
        std::fprintf(stderr, "lego_perf: FAILED setup: no worker hello\n");
        continue;
      }
      setups.push_back(s);
    }
    ++attempted;
    Outcome o = RunOnce(w, seed, args.tmp + "/run");
    const std::vector<std::string> bad =
        Check(w, o, repeat ? &first : nullptr);
    Report(bad, "campaign", i);
    failed += bad.empty() ? 0 : 1;
    std::fprintf(stderr,
                 "%s campaign %d%s: %.3f s wall, %.3f s cpu, %zu edges, "
                 "%zu corpus, %zu crashes\n",
                 w.name.c_str(), i, repeat ? " (repeat of 0)" : "", o.wall_s,
                 o.cpu_s, o.edges, o.corpus, o.crash_hashes.size());
    if (i == 0) first = o;
    if (repeat) break;
    wall += o.wall_s;
    cpu += o.cpu_s;
    execs += static_cast<double>(o.executions);
    edges += static_cast<double>(o.edges);
  }
  PrintResult(failed == 0, attempted, failed,
              {{"execs_per_s", execs / wall, "1/s"},
               {"cpu_us_per_exec", cpu * 1e6 / execs, "us"},
               {"edges", edges / campaigns, "count"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
}

/// --trace 1: pairs of (untraced campaign, traced replay of the same
/// sub-seed) until the time is used. The replay must land on the untraced
/// run's edges, corpus and unique bugs; the per-layer metrics are medians
/// over the replays.
void RunTraced(const Workload& w, const Args& args) {
  int attempted = 0, failed = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> units;
  std::vector<std::string> order;
  auto add = [&](const std::string& name, double value, const char* unit) {
    if (units.emplace(name, unit).second) order.push_back(name);
    samples[name].push_back(value);
  };

  const Clock::time_point start = Clock::now();
  double last = 0;
  for (int rep = 0; rep < 1 || SecondsSince(start) + last <= args.seconds;
       ++rep) {
    const Clock::time_point pair0 = Clock::now();
    const uint64_t seed = SubSeed(args.seed, rep);
    ++attempted;
    Outcome plain = RunOnce(w, seed, args.tmp + "/run");
    Layers L;
    Outcome traced = w.fleet ? TraceFleet(w, seed, args.tmp + "/trace", &L)
                             : TraceSerial(w, seed, args.tmp + "/trace", &L);
    std::vector<std::string> bad = Check(w, plain, nullptr);
    for (std::string& f : Check(w, traced, &plain)) {
      bad.push_back("traced: " + f);
    }
    // The fleet distills in completion order, which can change which of
    // two equal cases the pool keeps, so only serial corpora must match.
    if (!w.fleet && traced.corpus != plain.corpus) {
      bad.push_back("traced corpus " + std::to_string(traced.corpus) +
                    " != " + std::to_string(plain.corpus));
    }
    if (traced.crash_hashes != plain.crash_hashes) {
      bad.push_back("traced crash set differs from the untraced run");
    }
    Report(bad, "trace", rep);
    failed += bad.empty() ? 0 : 1;

    const double n = static_cast<double>(traced.executions);
    const double per = n > 0 ? 1e6 / n : 0.0;  // seconds -> us per exec
    const double stmts = static_cast<double>(L.stmts);
    add("lego.next_us", L.next * per, "us");
    add("lego.on_result_us", L.on_result * per, "us");
    add("lego.stmt_valid_ratio",
        stmts > 0 ? static_cast<double>(L.executed) / stmts : 0.0, "ratio");
    add("lego.corpus_seeds", static_cast<double>(traced.corpus), "count");
    add("fuzz.reset_us", L.reset * per, "us");
    add("minidb.execute_us", L.execute * per, "us");
    add("minidb.stmts_per_exec", n > 0 ? stmts / n : 0.0, "count");
    add("minidb.fsyncs_per_exec", n > 0 ? L.fsyncs / n : 0.0, "count");
    add("minidb.wal_bytes_per_exec", n > 0 ? L.wal_bytes / n : 0.0, "bytes");
    add("minidb.bytes_written_per_exec", n > 0 ? L.bytes_written / n : 0.0,
        "bytes");
    add("coverage.classify_us", L.classify * per, "us");
    add("coverage.merge_us", L.merge * per, "us");
    add("coverage.new_cov_ratio", n > 0 ? L.new_cov / n : 0.0, "ratio");
    add("coverage.rules_us", L.rules * per, "us");
    add("triage.oracle_us", L.oracle * per, "us");
    add("triage.oracle_checks_per_exec", n > 0 ? L.oracle_checks / n : 0.0,
        "count");
    add("triage.unique_bugs",
        static_cast<double>(traced.crash_hashes.size() +
                            traced.logic_fingerprints.size()),
        "count");
    add("concurrency.run_case_us", L.run_case * per, "us");
    add("concurrency.switches_per_exec", n > 0 ? L.switches / n : 0.0,
        "count");
    add("concurrency.us_per_switch",
        L.switches > 0 ? L.run_case * 1e6 / static_cast<double>(L.switches)
                       : 0.0,
        "us");
    add("concurrency.handoff_wait_us", L.handoff_wait * per, "us");
    add("concurrency.deadlocks_per_exec", n > 0 ? L.deadlocks / n : 0.0,
        "count");
    add("fleet.shard_s", w.fleet ? L.shard / w.shards : 0.0, "s");
    add("fleet.parallel_efficiency",
        w.fleet ? L.shard / (w.workers * plain.wall_s) : 0.0, "ratio");
    add("fleet.distill_s", L.distill, "s");
    add("fleet.journal_write_ms",
        L.journal_writes > 0 ? L.journal * 1e3 / L.journal_writes : 0.0,
        "ms");
    add("fleet.result_bytes_per_shard",
        w.fleet ? static_cast<double>(L.result_bytes) / w.shards : 0.0,
        "bytes");
    add("fleet.requeued", static_cast<double>(plain.shards_requeued),
        "count");
    add("trace.span_share", L.wall > 0 ? L.Spans() / L.wall : 0.0, "ratio");
    // The untraced fleet runs in parallel, so its CPU, not its wall, is the
    // work the serial replay redoes.
    add("trace.overhead_pct",
        (L.wall / (w.fleet ? plain.cpu_s : plain.wall_s) - 1.0) * 100.0, "%");
    std::fprintf(stderr,
                 "%s trace %d: untraced %.3f s, traced %.3f s, spans %.1f%%, "
                 "%zu/%zu edges, %zu/%zu corpus\n",
                 w.name.c_str(), rep, plain.wall_s, L.wall,
                 L.wall > 0 ? 100.0 * L.Spans() / L.wall : 0.0, traced.edges,
                 plain.edges, traced.corpus, plain.corpus);
    last = SecondsSince(pair0);
  }

  std::vector<Metric> metrics;
  for (const std::string& name : order) {
    metrics.push_back({name, Median(samples[name]), units[name]});
  }
  PrintResult(failed == 0, attempted, failed, metrics);
}

int Usage() {
  std::fprintf(stderr,
               "usage: lego_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--budget EXECS]\n"
               "workloads: feedback-mem paged-oracle sessions-3 fleet-2\n");
  return 2;
}

}  // namespace
}  // namespace lego::perf

int main(int argc, char** argv) {
  using namespace lego::perf;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--budget") {
      args.budget = std::atoi(value);
    } else {
      return Usage();
    }
  }
  Workload w;
  if (argc % 2 == 0 || args.tmp.empty() || !WorkloadByName(args.workload, &w)) {
    return Usage();
  }
  if (args.budget > 0) w.budget = args.budget;
  if (w.one_cpu) PinToOneCpu();
  std::filesystem::create_directories(args.tmp);
  if (args.trace != 0) {
    RunTraced(w, args);
  } else {
    RunEndToEnd(w, args);
  }
  // --tmp may be a mount point: empty it, and leave the directory itself to
  // whoever made it.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(args.tmp, ec)) {
    std::filesystem::remove_all(entry.path(), ec);
  }
  return 0;
}
