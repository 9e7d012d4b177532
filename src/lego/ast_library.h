#ifndef LEGO_LEGO_AST_LIBRARY_H_
#define LEGO_LEGO_AST_LIBRARY_H_

#include <array>
#include <memory>
#include <vector>

#include "fuzz/testcase.h"
#include "persist/io.h"
#include "sql/ast.h"
#include "util/random.h"

namespace lego::core {

/// The global AST-structure library (paper §III-B instantiation, step 1):
/// when a seed covers new branches, LEGO parses its statements and stores
/// their AST skeletons per type; instantiation samples a type-matched
/// structure at random. Bounded per type with ring replacement so hot types
/// keep fresh structures without unbounded growth.
///
/// Copies are copy-on-write snapshots: a copy shares every per-type bucket
/// with its source, and AddStatement() copies a bucket (its pointers, not
/// the skeletons, which are immutable once stored) only while another copy
/// still shares it. A snapshot therefore samples exactly what the library
/// held when it was taken, whatever is added afterwards.
class AstLibrary {
 public:
  explicit AstLibrary(size_t cap_per_type = 64) : cap_(cap_per_type) {}

  /// Stores a deep copy of `stmt` under its type.
  void AddStatement(const sql::Statement& stmt);

  /// Stores every statement of `tc`.
  void AddTestCase(const fuzz::TestCase& tc);

  /// A deep copy of a random stored skeleton of `type`; nullptr when the
  /// library has none.
  sql::StmtPtr Sample(sql::StatementType type, Rng* rng) const;

  /// An immutable copy-on-write snapshot of the library as it stands.
  std::shared_ptr<const AstLibrary> Snapshot() const {
    return std::make_shared<const AstLibrary>(*this);
  }

  size_t CountFor(sql::StatementType type) const {
    const auto& bucket = buckets_[static_cast<size_t>(type)];
    return bucket == nullptr ? 0 : bucket->size();
  }
  size_t TotalCount() const;

  /// Checkpointing: every stored skeleton (structural AST serde) plus the
  /// per-type ring-replacement cursors, so future AddStatement() calls
  /// overwrite the same slots they would have uninterrupted.
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  using Bucket = std::vector<std::shared_ptr<const sql::Statement>>;

  size_t cap_;
  /// nullptr for a type with no skeletons yet.
  std::array<std::shared_ptr<Bucket>, sql::kNumStatementTypes> buckets_;
  std::array<size_t, sql::kNumStatementTypes> replace_cursor_ = {};
};

}  // namespace lego::core

#endif  // LEGO_LEGO_AST_LIBRARY_H_
