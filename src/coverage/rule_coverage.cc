#include "coverage/rule_coverage.h"

#include <string>

#include "persist/io.h"
#include "sql/parser.h"

namespace lego::cov {

namespace {

constexpr uint32_t kGlobalTag = persist::ChunkTag("GRUL");

Status ReadRuleSet(persist::StateReader* r, std::string* out) {
  *out = r->ReadString();
  if (!r->ok()) return r->status();
  if (out->size() != RuleMap::size()) {
    return Status::InvalidArgument(
        "rule bitmap size mismatch: " + std::to_string(out->size()) +
        " bytes, expected " + std::to_string(RuleMap::size()));
  }
  return Status::OK();
}

}  // namespace

bool CollectRules(std::string_view sql_text, RuleMap* map) {
  map->Reset();
  sql::GrammarCoverageScope scope(map->data());
  return sql::Parser::ParseScript(sql_text).ok();
}

Status GlobalRuleCoverage::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kGlobalTag);
  w->WriteString(std::string_view(
      reinterpret_cast<const char*>(virgin_.data()), virgin_.size()));
  w->EndChunk();
  return Status::OK();
}

Status GlobalRuleCoverage::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kGlobalTag));
  std::string bytes;
  LEGO_RETURN_IF_ERROR(ReadRuleSet(r, &bytes));
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  covered_rules_ = 0;
  for (size_t i = 0; i < virgin_.size(); ++i) {
    virgin_[i] = static_cast<uint8_t>(bytes[i]);
    covered_rules_ += (virgin_[i] != 0);
  }
  return Status::OK();
}

}  // namespace lego::cov
