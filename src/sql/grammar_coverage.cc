#include "sql/grammar_coverage.h"

namespace lego::sql {

std::string_view GrammarRuleName(GrammarRule rule) {
  static constexpr std::string_view kNames[] = {
#define LEGO_GRAMMAR_RULE_NAME(name) #name,
      LEGO_GRAMMAR_RULE_LIST(LEGO_GRAMMAR_RULE_NAME)
#undef LEGO_GRAMMAR_RULE_NAME
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kNumGrammarRules,
                "rule name table out of sync with GrammarRule");
  size_t i = static_cast<size_t>(rule);
  if (i >= kNumGrammarRules) return "?";
  return kNames[i];
}

}  // namespace lego::sql
