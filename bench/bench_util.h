#ifndef LEGO_BENCH_BENCH_UTIL_H_
#define LEGO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>

#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/harness.h"
#include "minidb/profile.h"

namespace lego::bench {

/// Runs one serial campaign of `executions` runs. Fuzzer names are the
/// fleet's ("lego-" is the ablation).
inline fuzz::CampaignResult RunOne(const std::string& fuzzer_name,
                                   const minidb::DialectProfile& profile,
                                   int executions, uint64_t seed,
                                   bool stop_when_all_found = false) {
  auto fuzzer = fleet::MakeFleetFuzzer(fuzzer_name, profile, seed);
  fuzz::ExecutionHarness harness(profile);
  fuzz::CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = std::max(1, executions / 10);
  options.stop_when_all_bugs_found = stop_when_all_found;
  return fuzz::RunCampaign(fuzzer.get(), &harness, options);
}

/// Paper target names for each profile, for side-by-side reporting.
inline const char* PaperNameOf(const std::string& profile) {
  if (profile == "pglite") return "PostgreSQL";
  if (profile == "mylite") return "MySQL";
  if (profile == "marialite") return "MariaDB";
  if (profile == "comdlite") return "Comdb2";
  return "?";
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace lego::bench

#endif  // LEGO_BENCH_BENCH_UTIL_H_
