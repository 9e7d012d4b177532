// Parallel campaigns are fleets: N worker processes, each running serial
// RunCampaign shards. These tests tie the two together — RunCampaign stays
// bit-identical to the reference loop, a fleet shard is exactly a serial
// campaign under its shard seed, and a fleet's merged result does not depend
// on how many workers ran it.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "coverage/coverage.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/harness.h"
#include "lego/lego_fuzzer.h"
#include "minidb/env.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

core::LegoFuzzer MakeLego(uint64_t seed) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return core::LegoFuzzer(minidb::DialectProfile::PgLite(), options);
}

/// The historical campaign loop, replicated verbatim as the reference
/// implementation: RunCampaign must stay bit-identical to this.
CampaignResult ReferenceSerialCampaign(Fuzzer* fuzzer,
                                       ExecutionHarness* harness,
                                       const CampaignOptions& options) {
  CampaignResult result;
  result.fuzzer = fuzzer->name();
  result.profile = harness->profile().name;
  const size_t total_bugs = harness->bug_engine().bugs().size();
  fuzzer->Prepare(harness);
  for (int i = 0; i < options.max_executions; ++i) {
    TestCase tc = fuzzer->Next();
    auto types = tc.TypeSequence();
    for (size_t t = 1; t < types.size(); ++t) {
      if (types[t - 1] == types[t]) continue;
      result.affinities.emplace(static_cast<int>(types[t - 1]),
                                static_cast<int>(types[t]));
    }
    ExecResult exec = harness->Run(tc);
    ++result.executions;
    result.statement_errors += exec.errors;
    result.statements_executed += exec.executed;
    if (exec.crashed) {
      ++result.crashes_total;
      if (result.crash_hashes.insert(exec.crash.stack_hash).second) {
        result.bug_ids.insert(exec.crash.bug_id);
        ++result.bugs_by_component[exec.crash.component];
      }
    }
    fuzzer->OnResult(tc, exec);
    if (options.snapshot_every > 0 &&
        result.executions % options.snapshot_every == 0) {
      result.coverage_curve.emplace_back(result.executions,
                                         harness->CoveredEdges());
    }
    if (options.stop_when_all_bugs_found &&
        result.bug_ids.size() >= total_bugs) {
      break;
    }
    if (options.max_statements > 0 &&
        result.statements_executed + result.statement_errors >=
            options.max_statements) {
      break;
    }
  }
  result.edges = harness->CoveredEdges();
  if (result.coverage_curve.empty() ||
      result.coverage_curve.back().first != result.executions) {
    result.coverage_curve.emplace_back(result.executions, result.edges);
  }
  return result;
}

void ExpectIdentical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.fuzzer, b.fuzzer);
  EXPECT_EQ(a.profile, b.profile);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.coverage_curve, b.coverage_curve);
  EXPECT_EQ(a.crash_hashes, b.crash_hashes);
  EXPECT_EQ(a.bug_ids, b.bug_ids);
  EXPECT_EQ(a.affinities, b.affinities);
  EXPECT_EQ(a.crashes_total, b.crashes_total);
  EXPECT_EQ(a.statement_errors, b.statement_errors);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.bugs_by_component, b.bugs_by_component);
}

fleet::FleetConfig SmallFleet() {
  fleet::FleetConfig config;
  config.profile = "pglite";
  config.fuzzer = "lego";
  config.base_seed = 42;
  config.num_shards = 6;
  config.shard_budget = 300;
  return config;
}

fleet::FleetResult RunSmallFleet(const fleet::FleetConfig& config,
                                 int workers, const std::string& name) {
  fleet::FleetOptions options;
  options.config = config;
  options.num_workers = workers;
  options.fleet_dir = ::testing::TempDir() + "lego_parallel_" + name;
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  fleet::FleetResult result = fleet::RunFleet(options);
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  return result;
}

std::map<uint64_t, std::string> CrashSql(const fleet::FleetResult& r) {
  std::map<uint64_t, std::string> out;
  for (const auto& [hash, tc] : r.crash_cases) out[hash] = tc.ToSql();
  return out;
}

TEST(CampaignParallelTest, RunCampaignIsBitIdenticalToReferenceLoop) {
  CampaignOptions options;
  options.max_executions = 600;
  options.snapshot_every = 150;

  core::LegoFuzzer reference_fuzzer = MakeLego(7);
  ExecutionHarness reference_harness(minidb::DialectProfile::PgLite());
  CampaignResult reference = ReferenceSerialCampaign(
      &reference_fuzzer, &reference_harness, options);

  core::LegoFuzzer fuzzer = MakeLego(7);
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  CampaignResult actual = RunCampaign(&fuzzer, &harness, options);

  ExpectIdentical(reference, actual);
}

TEST(CampaignParallelTest, FleetShardsAreSerialCampaigns) {
  // A 4-worker fleet's merged result is exactly the union of serial
  // campaigns run under each shard's seed: same executions, edges and bugs.
  fleet::FleetConfig config = SmallFleet();
  config.profile = "marialite";  // its injected bugs surface within budget
  config.num_shards = 4;
  config.shard_budget = 500;
  const minidb::DialectProfile& profile =
      *minidb::DialectProfile::ByName(config.profile);
  int executions = 0;
  cov::GlobalCoverage edges;
  std::set<std::string> bug_ids;
  std::set<uint64_t> crash_hashes;
  for (int s = 0; s < config.num_shards; ++s) {
    auto fuzzer = fleet::MakeFleetFuzzer(config.fuzzer, profile,
                                         fleet::ShardSeed(config, s));
    ExecutionHarness harness(profile);
    CampaignOptions options;
    options.max_executions = config.shard_budget;
    options.snapshot_every = 0;
    CampaignResult r = RunCampaign(fuzzer.get(), &harness, options);
    executions += r.executions;
    edges.MergeFrom(harness.global_coverage());
    bug_ids.insert(r.bug_ids.begin(), r.bug_ids.end());
    crash_hashes.insert(r.crash_hashes.begin(), r.crash_hashes.end());
  }

  fleet::FleetResult fleet = RunSmallFleet(config, 4, "shards");
  ASSERT_TRUE(fleet.status.ok()) << fleet.status.ToString();
  EXPECT_EQ(fleet.executions, executions);
  EXPECT_EQ(fleet.edges(), edges.CoveredEdges());
  EXPECT_EQ(fleet.bug_ids(), bug_ids);
  EXPECT_EQ(fleet.crash_hashes(), crash_hashes);
  EXPECT_FALSE(bug_ids.empty());
}

TEST(CampaignParallelTest, FleetResultIsIndependentOfWorkerCount) {
  // With corpus sync on, shards of a generation import the pool of the
  // earlier ones: 1 and 3 workers must still merge to the same result, and
  // two 3-worker runs must agree with each other.
  fleet::FleetConfig config = SmallFleet();
  config.distill_every = 2;
  fleet::FleetResult one = RunSmallFleet(config, 1, "w1");
  fleet::FleetResult three_a = RunSmallFleet(config, 3, "w3a");
  fleet::FleetResult three_b = RunSmallFleet(config, 3, "w3b");
  for (const fleet::FleetResult* r : {&one, &three_a, &three_b}) {
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->shards_done.size(), static_cast<size_t>(config.num_shards));
  }
  for (const fleet::FleetResult* r : {&three_a, &three_b}) {
    EXPECT_EQ(r->executions, one.executions);
    EXPECT_EQ(r->edges(), one.edges());
    EXPECT_EQ(r->merged_bug_ids(), one.merged_bug_ids());
    EXPECT_EQ(r->bug_digest(), one.bug_digest());
    EXPECT_EQ(r->corpus.size(), one.corpus.size());
    EXPECT_EQ(r->distill_cycles, one.distill_cycles);
    EXPECT_EQ(CrashSql(*r), CrashSql(one));
  }
}

}  // namespace
}  // namespace lego::fuzz
