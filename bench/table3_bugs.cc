// Reproduces paper Table III: the number of bugs each fuzzer triggers within
// a fixed budget (the paper's 24-hour runs). SQLsmith only supports
// PostgreSQL syntax, so — as in the paper — it is only run there.
//
// Paper values:        SQLancer  SQLsmith  SQUIRREL  LEGO
//   PostgreSQL             0         0         0        2
//   MySQL                  0         -         3       11
//   MariaDB                0         -         8       32
//   Comdb2                 0         -         0        7
//   Total                  0         0        11       52

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "fleet/fleet.h"
#include "minidb/env.h"
#include "triage/triage.h"

namespace {

/// The 4-worker cell: a fleet of 4 worker processes spending the same total
/// budget as the serial cell, 8 shards of budget/8 executions, triaged by
/// the coordinator. Returns the unique-bug count.
int FleetUniqueBugs(const std::string& profile, int budget) {
  using namespace lego;  // NOLINT(build/namespaces)
  fleet::FleetOptions options;
  options.config.profile = profile;
  options.config.fuzzer = "lego";
  options.config.base_seed = 31;
  options.config.num_shards = 8;
  options.config.shard_budget = budget / options.config.num_shards;
  options.num_workers = 4;
  options.fleet_dir = "table3_fleet_" + profile;
  options.triage = true;
  options.reduce = true;
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  fleet::FleetResult result = fleet::RunFleet(options);
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  return result.status.ok() ? result.triaged_bugs : -1;
}

}  // namespace

int main() {
  using namespace lego;  // NOLINT(build/namespaces)

  const int kBudget = 20000;
  const std::vector<std::string> fuzzers = {"sqlancer", "sqlsmith",
                                            "squirrel", "lego"};

  std::printf(
      "Table III — number of bugs triggered within a %d-execution budget\n"
      "(the scaled stand-in for the paper's 24-hour runs)\n\n",
      kBudget);
  std::printf("%-22s %10s %10s %10s %10s\n", "DBMS", "SQLancer", "SQLsmith",
              "SQUIRREL", "LEGO");
  bench::PrintRule(68);

  std::vector<int> totals(fuzzers.size(), 0);
  std::vector<bool> ran(fuzzers.size(), false);
  for (const auto* profile : minidb::DialectProfile::All()) {
    std::printf("%-22s", (std::string(bench::PaperNameOf(profile->name)) +
                          " (" + profile->name + ")")
                             .c_str());
    for (size_t i = 0; i < fuzzers.size(); ++i) {
      if (fuzzers[i] == "sqlsmith" && profile->name != "pglite") {
        std::printf(" %10s", "-");
        continue;
      }
      fuzz::CampaignResult result =
          bench::RunOne(fuzzers[i], *profile, kBudget, /*seed=*/31);
      totals[i] += static_cast<int>(result.bug_ids.size());
      ran[i] = true;
      std::printf(" %10zu", result.bug_ids.size());
    }
    std::printf("\n");
  }
  bench::PrintRule(68);
  std::printf("%-22s", "Total");
  for (size_t i = 0; i < totals.size(); ++i) {
    std::printf(" %10d", totals[i]);
  }
  std::printf("\n%-22s", "Increment (LEGO - x)");
  for (int n : totals) std::printf(" %10d", totals.back() - n);
  std::printf("\n\nPaper totals: SQLancer 0, SQLsmith 0, SQUIRREL 11, "
              "LEGO 52\n");

  // Triage view: each LEGO campaign's captured crashes ddmin-reduced and
  // deduplicated by (bug id, minimized type fingerprint). The 4-worker
  // column is a fleet at the same total budget; its shards are seeded from
  // the base seed, so it explores a different trajectory than the serial
  // campaign and may legitimately report a different bug set. What must
  // hold is rerun stability — repeating either configuration with the same
  // base seed triages to the identical unique-bug count. Each cell below is
  // run twice and flagged UNSTABLE on any disagreement.
  std::printf("\nTriaged unique bugs (lego, ddmin-reduced repros; every cell"
              " rerun twice)\n");
  std::printf("%-22s %10s %10s %12s %12s\n", "DBMS", "1 worker", "4 workers",
              "repro stmts", "reduction");
  bench::PrintRule(72);
  bool stable = true;
  for (const auto* profile : minidb::DialectProfile::All()) {
    size_t unique[2] = {0, 0};
    bool cell_stable[2] = {true, true};
    int repro_stmts = 0;
    double shrink = 0.0;
    for (int rerun = 0; rerun < 2; ++rerun) {
      fuzz::CampaignResult result =
          bench::RunOne("lego", *profile, kBudget, /*seed=*/31);
      triage::TriageOptions triage_options;
      triage::TriageReport report =
          triage::TriageCampaign(result, *profile, "", triage_options);
      if (rerun == 0) {
        unique[0] = report.bugs.size();
        int original = 0;
        for (const triage::TriagedBug& bug : report.bugs) {
          repro_stmts += bug.reduced_statements;
          original += bug.original_statements;
        }
        if (repro_stmts > 0) {
          shrink = static_cast<double>(original) / repro_stmts;
        }
      } else if (report.bugs.size() != unique[0]) {
        cell_stable[0] = false;
      }
    }
    for (int rerun = 0; rerun < 2; ++rerun) {
      const int bugs = FleetUniqueBugs(profile->name, kBudget);
      if (rerun == 0) {
        unique[1] = static_cast<size_t>(std::max(bugs, 0));
        if (bugs < 0) cell_stable[1] = false;
      } else if (bugs < 0 || static_cast<size_t>(bugs) != unique[1]) {
        cell_stable[1] = false;
      }
    }
    if (!cell_stable[0] || !cell_stable[1]) stable = false;
    std::printf("%-22s %10zu %10zu %12d %11.1fx%s%s\n",
                (std::string(bench::PaperNameOf(profile->name)) + " (" +
                 profile->name + ")")
                    .c_str(),
                unique[0], unique[1], repro_stmts, shrink,
                cell_stable[0] ? "" : "  UNSTABLE(1w)",
                cell_stable[1] ? "" : "  UNSTABLE(4w)");
  }
  std::printf("\nRerun stability: %s\n", stable ? "OK" : "FAILED");
  return stable ? 0 : 1;
}
