// Corpus maintenance for cross-campaign reuse: inspect, merge, and distill
// the corpus files written by `fuzz_campaign_cli --export-corpus` and fed
// back with `--import-corpus`.
//
//   ./examples/corpus_cli info FILE...
//   ./examples/corpus_cli merge OUT FILE...
//   ./examples/corpus_cli distill IN OUT [profile] [flags]
//
// The synopsis in main() describes each command; distill exits non-zero if
// the kept subset covers fewer edges than the input (a determinism
// violation worth failing loudly on).

#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/corpus_file.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "minidb/profile.h"
#include "util/flags.h"

namespace {

size_t TotalStatements(const std::vector<lego::fuzz::TestCase>& cases) {
  size_t n = 0;
  for (const auto& tc : cases) n += tc.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lego;  // NOLINT(build/namespaces)

  fuzz::BackendOptions backend;
  const flags::CommandLine cli = {
      "corpus_cli info FILE...\n"
      "       corpus_cli merge OUT FILE...\n"
      "       corpus_cli distill IN OUT [profile] [flags]\n"
      "  info    : print case/statement counts per file\n"
      "  merge   : concatenate corpora (dedup is distill's job)\n"
      "  distill : greedy cmin: replay IN through a fresh backend of "
      "profile\n"
      "            (default pglite, must match the donor campaign) and write "
      "the\n"
      "            smallest greedy subset covering the same edges to OUT",
      fuzz::BackendFlags(&backend)};
  const std::vector<std::string> pos = cli.ParseOrExit(argc, argv);
  if (pos.empty()) cli.Fail(Status::InvalidArgument("missing command"));
  const std::string& command = pos[0];

  if (command == "info") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "info needs at least one corpus file\n");
      return 1;
    }
    for (size_t i = 1; i < pos.size(); ++i) {
      auto cases = fuzz::LoadCorpusFile(pos[i]);
      if (!cases.ok()) {
        std::fprintf(stderr, "%s: %s\n", pos[i].c_str(),
                     cases.status().ToString().c_str());
        return 1;
      }
      std::printf("%s: %zu cases, %zu statements\n", pos[i].c_str(),
                  cases->size(), TotalStatements(*cases));
    }
    return 0;
  }

  if (command == "merge") {
    if (pos.size() < 3) {
      std::fprintf(stderr, "merge needs an output and at least one input\n");
      return 1;
    }
    std::vector<fuzz::TestCase> all;
    for (size_t i = 2; i < pos.size(); ++i) {
      auto cases = fuzz::LoadCorpusFile(pos[i]);
      if (!cases.ok()) {
        std::fprintf(stderr, "%s: %s\n", pos[i].c_str(),
                     cases.status().ToString().c_str());
        return 1;
      }
      for (fuzz::TestCase& tc : *cases) all.push_back(std::move(tc));
    }
    Status saved = fuzz::SaveCorpusFile(all, pos[1]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[1].c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("merged %zu files -> %s (%zu cases)\n", pos.size() - 2,
                pos[1].c_str(), all.size());
    return 0;
  }

  if (command == "distill") {
    if (pos.size() < 3) {
      std::fprintf(stderr, "distill needs an input and an output file\n");
      return 1;
    }
    std::string profile_name = pos.size() > 3 ? pos[3] : "pglite";
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName(profile_name);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown profile '%s'\n", profile_name.c_str());
      return 1;
    }
    auto cases = fuzz::LoadCorpusFile(pos[1]);
    if (!cases.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[1].c_str(),
                   cases.status().ToString().c_str());
      return 1;
    }

    fuzz::ExecutionHarness harness(*profile, backend);
    fuzz::DistillStats stats;
    std::vector<fuzz::TestCase> kept =
        fuzz::DistillCorpus(*cases, &harness, &stats);

    Status saved = fuzz::SaveCorpusFile(kept, pos[2]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[2].c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("distilled %zu -> %zu cases (%zu replays on %s)\n",
                stats.original_cases, stats.kept_cases, stats.replays,
                profile->name.c_str());
    std::printf("edges before: %zu\n", stats.original_edges);
    std::printf("edges after : %zu\n", stats.kept_edges);
    if (stats.kept_edges != stats.original_edges) {
      std::fprintf(stderr,
                   "distillation lost coverage (non-deterministic replay?)\n");
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "unknown command '%s' (info | merge | distill)\n",
               command.c_str());
  return 1;
}
