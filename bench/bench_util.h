#ifndef LEGO_BENCH_BENCH_UTIL_H_
#define LEGO_BENCH_BENCH_UTIL_H_

#include <stdlib.h>

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "minidb/profile.h"

namespace lego::bench {

/// Every micro_* benchmark runs 5 repetitions and reports only their mean,
/// median, stddev and cv: one run on a shared machine can be off by a
/// third, so compare two builds by the medians and read the spread next to
/// them.
inline void Repeated(benchmark::internal::Benchmark* b) {
  b->Repetitions(5)->DisplayAggregatesOnly(true);
}

/// A fresh directory under the system temp dir, removed with its contents
/// when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem) {
    std::string path =
        (std::filesystem::temp_directory_path() / (stem + "_XXXXXX")).string();
    if (::mkdtemp(path.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path_ = path;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs one serial campaign of `executions` runs, built by
/// fleet::BuildCampaign. Fuzzer names are the fleet's ("lego-" is the
/// ablation).
inline fuzz::CampaignResult RunOne(const std::string& fuzzer_name,
                                   const minidb::DialectProfile& profile,
                                   int executions, uint64_t seed,
                                   bool stop_when_all_found = false) {
  fleet::FleetConfig config;
  config.profile = profile.name;
  config.fuzzer = fuzzer_name;
  auto campaign = fleet::BuildCampaign(config, seed);
  if (!campaign.ok()) {
    std::fprintf(stderr, "%s\n", campaign.status().ToString().c_str());
    std::abort();
  }
  fuzz::CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = std::max(1, executions / 10);
  options.stop_when_all_bugs_found = stop_when_all_found;
  return fuzz::RunCampaign(campaign->fuzzer.get(), campaign->harness.get(),
                           options);
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
