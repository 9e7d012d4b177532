#include "minidb/catalog.h"

#include <algorithm>
#include <atomic>

namespace lego::minidb {

int TableSchema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

PrivMask MaskOf(sql::Privilege p) {
  switch (p) {
    case sql::Privilege::kSelect: return kPrivSelect;
    case sql::Privilege::kInsert: return kPrivInsert;
    case sql::Privilege::kUpdate: return kPrivUpdate;
    case sql::Privilege::kDelete: return kPrivDelete;
    case sql::Privilege::kAll: return kPrivAll;
  }
  return 0;
}

uint64_t ChangeEpoch::Next() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Status Catalog::FrozenError() const {
  return Status::TransactionError(
      "DDL is disabled during concurrent execution");
}

Status Catalog::CreateTable(TableInfo table) {
  if (ddl_frozen_) return FrozenError();
  if (tables_.count(table.name) || views_.count(table.name)) {
    return Status::AlreadyExists("relation '" + table.name +
                                 "' already exists");
  }
  if (page_store_ != nullptr && !table.temporary) {
    table.heap.AttachStore(page_store_, observer_);
  }
  tables_.emplace(table.name, std::move(table));
  schema_epoch_.Bump();
  return Status::OK();
}

void Catalog::set_page_store(PageStore* store, StorageObserver* observer) {
  page_store_ = store;
  observer_ = observer;
  if (store == nullptr) return;
  for (auto& [name, table] : tables_) {
    if (!table.temporary) table.heap.AttachStore(store, observer);
  }
}

void Catalog::CollectChainPages(std::set<uint32_t>* live) const {
  for (const auto& [name, table] : tables_) {
    table.heap.CollectChainPages(live);
  }
}

StatusOr<TableInfo*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return StatusOr<TableInfo*>(
        Status::NotFound("table '" + name + "' does not exist"));
  }
  return &it->second;
}

StatusOr<const TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return StatusOr<const TableInfo*>(
        Status::NotFound("table '" + name + "' does not exist"));
  }
  return const_cast<const TableInfo*>(&it->second);
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  // Cascade: indexes, triggers, rules referencing the table.
  for (auto ix = indexes_.begin(); ix != indexes_.end();) {
    if (ix->second.table == name) {
      ix = indexes_.erase(ix);
    } else {
      ++ix;
    }
  }
  for (auto tr = triggers_.begin(); tr != triggers_.end();) {
    if (tr->second.table == name) {
      tr = triggers_.erase(tr);
    } else {
      ++tr;
    }
  }
  for (auto r = rules_.begin(); r != rules_.end();) {
    if (r->second.table == name) {
      r = rules_.erase(r);
    } else {
      ++r;
    }
  }
  tables_.erase(it);
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::RenameTable(const std::string& old_name,
                            const std::string& new_name) {
  if (ddl_frozen_) return FrozenError();
  auto it = tables_.find(old_name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + old_name + "' does not exist");
  }
  if (tables_.count(new_name) || views_.count(new_name)) {
    return Status::AlreadyExists("relation '" + new_name +
                                 "' already exists");
  }
  TableInfo info = std::move(it->second);
  tables_.erase(it);
  info.name = new_name;
  for (auto& [iname, index] : indexes_) {
    if (index.table == old_name) index.table = new_name;
  }
  for (auto& [tname, trigger] : triggers_) {
    if (trigger.table == old_name) trigger.table = new_name;
  }
  for (auto& [rname, rule] : rules_) {
    if (rule.table == old_name) rule.table = new_name;
  }
  tables_.emplace(new_name, std::move(info));
  schema_epoch_.Bump();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

Status Catalog::AddColumn(const std::string& table, ColumnInfo column) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  info->schema.columns.push_back(std::move(column));
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::DropColumn(const std::string& table, int column) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  std::vector<ColumnInfo>& columns = info->schema.columns;
  if (column < 0 || static_cast<size_t>(column) >= columns.size()) {
    return Status::NotFound("column " + std::to_string(column) +
                            " does not exist in '" + table + "'");
  }
  columns.erase(columns.begin() + column);
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::RenameColumn(const std::string& table,
                             const std::string& old_name,
                             const std::string& new_name) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  const int idx = info->schema.FindColumn(old_name);
  if (idx < 0) {
    return Status::NotFound("column '" + old_name + "' does not exist");
  }
  info->schema.columns[static_cast<size_t>(idx)].name = new_name;
  for (IndexInfo* index : IndexesOf(table)) {
    for (std::string& c : index->columns) {
      if (c == old_name) c = new_name;
    }
  }
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::SetComment(const std::string& table, std::string comment) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  info->comment = std::move(comment);
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::SetAnalyzedRowCount(const std::string& table, int64_t rows) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  info->analyzed_row_count = rows;
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::CreateIndex(IndexInfo index) {
  if (ddl_frozen_) return FrozenError();
  if (indexes_.count(index.name)) {
    return Status::AlreadyExists("index '" + index.name + "' already exists");
  }
  auto table_it = tables_.find(index.table);
  if (table_it == tables_.end()) {
    return Status::NotFound("table '" + index.table + "' does not exist");
  }
  std::vector<std::string>& names = table_it->second.index_names;
  if (std::find(names.begin(), names.end(), index.name) == names.end()) {
    names.push_back(index.name);
  }
  indexes_.emplace(index.name, std::move(index));
  schema_epoch_.Bump();
  return Status::OK();
}

StatusOr<IndexInfo*> Catalog::GetIndex(const std::string& name) {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return StatusOr<IndexInfo*>(
        Status::NotFound("index '" + name + "' does not exist"));
  }
  return &it->second;
}

bool Catalog::HasIndex(const std::string& name) const {
  return indexes_.count(name) > 0;
}

Status Catalog::DropIndex(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("index '" + name + "' does not exist");
  }
  auto table_it = tables_.find(it->second.table);
  if (table_it != tables_.end()) {
    auto& names = table_it->second.index_names;
    names.erase(std::remove(names.begin(), names.end(), name), names.end());
  }
  indexes_.erase(it);
  schema_epoch_.Bump();
  return Status::OK();
}

std::vector<std::string> Catalog::IndexNames() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const auto& [name, info] : indexes_) names.push_back(name);
  return names;
}

std::vector<IndexInfo*> Catalog::IndexesOf(const std::string& table) {
  std::vector<IndexInfo*> out;
  for (auto& [name, index] : indexes_) {
    if (index.table == table) out.push_back(&index);
  }
  return out;
}

Status Catalog::CreateView(ViewInfo view, bool or_replace) {
  if (ddl_frozen_) return FrozenError();
  if (tables_.count(view.name)) {
    return Status::AlreadyExists("relation '" + view.name +
                                 "' already exists");
  }
  auto it = views_.find(view.name);
  if (it != views_.end()) {
    if (!or_replace) {
      return Status::AlreadyExists("view '" + view.name + "' already exists");
    }
    it->second = std::move(view);
  } else {
    views_.emplace(view.name, std::move(view));
  }
  schema_epoch_.Bump();
  return Status::OK();
}

const ViewInfo* Catalog::GetView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

bool Catalog::HasView(const std::string& name) const {
  return views_.count(name) > 0;
}

Status Catalog::DropView(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  if (views_.erase(name) == 0) {
    return Status::NotFound("view '" + name + "' does not exist");
  }
  schema_epoch_.Bump();
  return Status::OK();
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, info] : views_) names.push_back(name);
  return names;
}

Status Catalog::CreateTrigger(TriggerInfo trigger) {
  if (ddl_frozen_) return FrozenError();
  if (triggers_.count(trigger.name)) {
    return Status::AlreadyExists("trigger '" + trigger.name +
                                 "' already exists");
  }
  if (!tables_.count(trigger.table)) {
    return Status::NotFound("table '" + trigger.table + "' does not exist");
  }
  triggers_.emplace(trigger.name, std::move(trigger));
  schema_epoch_.Bump();
  return Status::OK();
}

bool Catalog::HasTrigger(const std::string& name) const {
  return triggers_.count(name) > 0;
}

Status Catalog::DropTrigger(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  if (triggers_.erase(name) == 0) {
    return Status::NotFound("trigger '" + name + "' does not exist");
  }
  schema_epoch_.Bump();
  return Status::OK();
}

std::vector<std::string> Catalog::TriggerNames() const {
  std::vector<std::string> names;
  names.reserve(triggers_.size());
  for (const auto& [name, info] : triggers_) names.push_back(name);
  return names;
}

std::vector<const TriggerInfo*> Catalog::TriggersFor(
    const std::string& table, sql::TriggerEvent event,
    sql::TriggerTiming timing) const {
  std::vector<const TriggerInfo*> out;
  for (const auto& [name, trigger] : triggers_) {
    if (trigger.table == table && trigger.event == event &&
        trigger.timing == timing) {
      out.push_back(&trigger);
    }
  }
  return out;
}

Status Catalog::CreateRule(RuleInfo rule, bool or_replace) {
  if (ddl_frozen_) return FrozenError();
  if (!tables_.count(rule.table)) {
    return Status::NotFound("table '" + rule.table + "' does not exist");
  }
  auto it = rules_.find(rule.name);
  if (it != rules_.end()) {
    if (!or_replace) {
      return Status::AlreadyExists("rule '" + rule.name + "' already exists");
    }
    it->second = std::move(rule);
  } else {
    rules_.emplace(rule.name, std::move(rule));
  }
  schema_epoch_.Bump();
  return Status::OK();
}

bool Catalog::HasRule(const std::string& name) const {
  return rules_.count(name) > 0;
}

Status Catalog::DropRule(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  if (rules_.erase(name) == 0) {
    return Status::NotFound("rule '" + name + "' does not exist");
  }
  schema_epoch_.Bump();
  return Status::OK();
}

const RuleInfo* Catalog::RuleFor(const std::string& table,
                                 sql::TriggerEvent event) const {
  for (const auto& [name, rule] : rules_) {
    if (rule.table == table && rule.event == event && rule.instead) {
      return &rule;
    }
  }
  return nullptr;
}

std::vector<std::string> Catalog::SequenceNames() const {
  std::vector<std::string> names;
  names.reserve(sequences_.size());
  for (const auto& [name, info] : sequences_) names.push_back(name);
  return names;
}

const IndexInfo* Catalog::FindIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second;
}

const TriggerInfo* Catalog::FindTrigger(const std::string& name) const {
  auto it = triggers_.find(name);
  return it == triggers_.end() ? nullptr : &it->second;
}

const RuleInfo* Catalog::FindRule(const std::string& name) const {
  auto it = rules_.find(name);
  return it == rules_.end() ? nullptr : &it->second;
}

const SequenceInfo* Catalog::FindSequence(const std::string& name) const {
  auto it = sequences_.find(name);
  return it == sequences_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::RuleNames() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& [name, info] : rules_) names.push_back(name);
  return names;
}

Status Catalog::CreateSequence(SequenceInfo seq) {
  if (ddl_frozen_) return FrozenError();
  if (sequences_.count(seq.name)) {
    return Status::AlreadyExists("sequence '" + seq.name +
                                 "' already exists");
  }
  sequences_.emplace(seq.name, std::move(seq));
  schema_epoch_.Bump();
  sequence_epoch_.Bump();
  return Status::OK();
}

bool Catalog::HasSequence(const std::string& name) const {
  return sequences_.count(name) > 0;
}

Status Catalog::DropSequence(const std::string& name) {
  if (ddl_frozen_) return FrozenError();
  if (sequences_.erase(name) == 0) {
    return Status::NotFound("sequence '" + name + "' does not exist");
  }
  schema_epoch_.Bump();
  sequence_epoch_.Bump();
  return Status::OK();
}

StatusOr<int64_t> Catalog::NextVal(const std::string& name) {
  auto it = sequences_.find(name);
  if (it == sequences_.end()) {
    return StatusOr<int64_t>(
        Status::NotFound("sequence '" + name + "' does not exist"));
  }
  SequenceInfo& seq = it->second;
  if (!seq.started) {
    seq.current = seq.start;
    seq.started = true;
  } else {
    seq.current += seq.increment;
  }
  sequence_epoch_.Bump();
  return seq.current;
}

Status Catalog::SetSequencePosition(const std::string& name, int64_t current,
                                    bool started) {
  auto it = sequences_.find(name);
  if (it == sequences_.end()) {
    return Status::NotFound("sequence '" + name + "' does not exist");
  }
  it->second.current = current;
  it->second.started = started;
  sequence_epoch_.Bump();
  return Status::OK();
}

Status Catalog::CreateUser(const std::string& name, bool if_not_exists) {
  if (ddl_frozen_) return FrozenError();
  if (users_.count(name)) {
    if (if_not_exists) return Status::OK();
    return Status::AlreadyExists("user '" + name + "' already exists");
  }
  users_.insert(name);
  schema_epoch_.Bump();
  return Status::OK();
}

Status Catalog::DropUser(const std::string& name, bool if_exists) {
  if (ddl_frozen_) return FrozenError();
  if (!users_.count(name)) {
    if (if_exists) return Status::OK();
    return Status::NotFound("user '" + name + "' does not exist");
  }
  users_.erase(name);
  privileges_.erase(name);
  schema_epoch_.Bump();
  return Status::OK();
}

bool Catalog::HasUser(const std::string& name) const {
  return name == "root" || users_.count(name) > 0;
}

void Catalog::Grant(const std::string& user, const std::string& table,
                    PrivMask mask) {
  privileges_[user][table] |= mask;
  schema_epoch_.Bump();
}

void Catalog::Revoke(const std::string& user, const std::string& table,
                     PrivMask mask) {
  auto uit = privileges_.find(user);
  if (uit == privileges_.end()) return;
  auto tit = uit->second.find(table);
  if (tit == uit->second.end()) return;
  tit->second &= static_cast<PrivMask>(~mask);
  if (tit->second == 0) uit->second.erase(tit);
  schema_epoch_.Bump();
}

bool Catalog::HasPrivilege(const std::string& user, const std::string& table,
                           PrivMask mask) const {
  if (user == "root") return true;
  auto uit = privileges_.find(user);
  if (uit == privileges_.end()) return false;
  auto tit = uit->second.find(table);
  if (tit == uit->second.end()) return false;
  return (tit->second & mask) == mask;
}

void Catalog::DropTemporaryTables() {
  if (ddl_frozen_) return;
  std::vector<std::string> doomed;
  for (const auto& [name, info] : tables_) {
    if (info.temporary) doomed.push_back(name);
  }
  for (const auto& name : doomed) DropTable(name);
}

}  // namespace lego::minidb
