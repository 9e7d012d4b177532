#include "fuzz/backend.h"

#include "fuzz/backend_concurrent.h"
#include "fuzz/backend_forked.h"
#include "fuzz/backend_inproc.h"

namespace lego::fuzz {

std::optional<BackendKind> ParseBackendKind(std::string_view name) {
  if (name == "inproc") return BackendKind::kInProcess;
  if (name == "forked") return BackendKind::kForked;
  if (name == "concurrent") return BackendKind::kConcurrent;
  return std::nullopt;
}

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kInProcess: return "inproc";
    case BackendKind::kForked: return "forked";
    case BackendKind::kConcurrent: return "concurrent";
  }
  return "?";
}

std::optional<StorageKind> ParseStorageKind(std::string_view name) {
  if (name == "mem") return StorageKind::kMem;
  if (name == "paged") return StorageKind::kPaged;
  return std::nullopt;
}

std::string_view StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kMem: return "mem";
    case StorageKind::kPaged: return "paged";
  }
  return "?";
}

std::vector<flags::Flag> BackendFlags(BackendOptions* options) {
  return {
      {"backend",
       [options](std::string_view value) {
         std::optional<BackendKind> kind = ParseBackendKind(value);
         if (!kind.has_value()) {
           return Status::InvalidArgument("unknown backend '" +
                                          std::string(value) +
                                          "' (inproc | forked | concurrent)");
         }
         options->kind = *kind;
         return Status::OK();
       },
       "inproc|forked|concurrent", "execution backend (default inproc)"},
      {"max-stmt-ms", &options->max_stmt_ms, "N",
       "forked only: statement watchdog in ms (default 0 = off)"},
  };
}

std::vector<flags::Flag> CampaignBackendFlags(BackendOptions* options) {
  std::vector<flags::Flag> table = BackendFlags(options);
  table.insert(
      table.end(),
      {
          {"storage",
           [options](std::string_view value) {
             std::optional<StorageKind> kind = ParseStorageKind(value);
             if (!kind.has_value()) {
               return Status::InvalidArgument("unknown storage '" +
                                              std::string(value) +
                                              "' (mem | paged)");
             }
             options->storage = *kind;
             return Status::OK();
           },
           "mem|paged", "storage engine; paged needs --db-dir (default mem)"},
          {"db-dir", &options->db_dir, "DIR",
           "paged only: scratch database directory, removed at exit"},
          {"sessions", &options->sessions, "N",
           "concurrent only: sessions per test case (default 2)"},
      });
  return table;
}

Status CheckBackendOptions(const BackendOptions& options,
                           bool durability_oracle) {
  if (options.storage == StorageKind::kPaged && options.db_dir.empty()) {
    return Status::InvalidArgument("--storage=paged requires --db-dir");
  }
  if (durability_oracle && (options.storage != StorageKind::kPaged ||
                            options.kind != BackendKind::kForked)) {
    return Status::InvalidArgument(
        "--oracle=dur requires --backend=forked --storage=paged");
  }
  return Status::OK();
}

std::unique_ptr<DbBackend> MakeBackend(const minidb::DialectProfile& profile,
                                       const BackendOptions& options) {
  switch (options.kind) {
    case BackendKind::kInProcess:
      return std::make_unique<InProcessBackend>(profile, options);
    case BackendKind::kForked:
      return std::make_unique<ForkedBackend>(profile, options);
    case BackendKind::kConcurrent:
      return std::make_unique<ConcurrentBackend>(profile, options);
  }
  return nullptr;
}

namespace detail {

std::string RenderRow(const minidb::Row& row) {
  std::string line;
  for (const minidb::Value& v : row) {
    line += v.ToString();
    line += '|';
  }
  return line;
}

}  // namespace detail

}  // namespace lego::fuzz
