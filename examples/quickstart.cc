// Quickstart: embed the minidb engine, run SQL against it, then launch a
// short LEGO fuzzing campaign and inspect what it found.
//
//   ./examples/quickstart

#include <cstdio>

#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "minidb/database.h"
#include "sql/parser.h"

int main() {
  using namespace lego;  // NOLINT(build/namespaces)

  // --- Part 1: minidb as a library ---------------------------------------
  minidb::Database db(&minidb::DialectProfile::PgLite());
  auto script = db.ExecuteScript(
      "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT);\n"
      "INSERT INTO users VALUES (1, 'ada', 36), (2, 'alan', 41), "
      "(3, 'grace', 85);\n");
  if (!script.ok()) {
    std::printf("setup failed: %s\n", script.status().ToString().c_str());
    return 1;
  }

  auto query = sql::Parser::ParseStatement(
      "SELECT name, age FROM users WHERE age > 38 ORDER BY age DESC");
  auto result = db.Execute(**query);
  std::printf("query: %s\n", sql::ToSql(**query).c_str());
  for (const auto& row : result->rows) {
    std::printf("  %-8s %s\n", row[0].ToText().c_str(),
                row[1].ToText().c_str());
  }

  // --- Part 2: a 20-second-scale LEGO campaign ---------------------------
  fleet::FleetConfig config;  // fuzzer: "lego" by default
  config.profile = "marialite";
  auto campaign = fleet::BuildCampaign(config, /*seed=*/2024);
  if (!campaign.ok()) {
    std::printf("campaign: %s\n", campaign.status().ToString().c_str());
    return 1;
  }

  fuzz::CampaignOptions options;
  options.max_executions = 5000;
  options.snapshot_every = 1000;
  fuzz::CampaignResult outcome = fuzz::RunCampaign(
      campaign->fuzzer.get(), campaign->harness.get(), options);

  const fuzz::FuzzerStats& lego = outcome.fuzzer_stats;
  std::printf("\nLEGO on %s after %d executions:\n",
              campaign->profile->name.c_str(), outcome.executions);
  std::printf("  branches covered : %zu\n", outcome.edges);
  std::printf("  type-affinities  : %zu (map: %zu)\n",
              outcome.affinities.size(), lego.affinity_pairs);
  std::printf("  sequences in S   : %zu\n", lego.sequences_total);
  std::printf("  corpus seeds     : %zu\n", lego.corpus_seeds);
  std::printf("  unique bugs      : %zu\n", outcome.bug_ids.size());
  for (const std::string& bug : outcome.bug_ids) {
    std::printf("    %s\n", bug.c_str());
  }
  return 0;
}
