#include "server/table.h"

#include "common/strings.h"

namespace grtdb {

int Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, column)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status Table::Insert(Row row, RecordId* id) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table '" + name_ +
        "' has " + std::to_string(columns_.size()) + " columns");
  }
  if (fragments_.empty() || fragments_.back().size() >= fragment_capacity_) {
    fragments_.emplace_back();
    fragments_.back().reserve(fragment_capacity_);
  }
  Fragment& fragment = fragments_.back();
  fragment.push_back(std::move(row));
  ++live_rows_;
  id->fragment = static_cast<uint32_t>(fragments_.size() - 1);
  id->slot = static_cast<uint32_t>(fragment.size() - 1);
  return Status::OK();
}

Status Table::Get(RecordId id, const Row** row) const {
  if (id.fragment >= fragments_.size() ||
      id.slot >= fragments_[id.fragment].size() ||
      !fragments_[id.fragment][id.slot].has_value()) {
    return Status::NotFound("no row at fragment " +
                            std::to_string(id.fragment) + " slot " +
                            std::to_string(id.slot));
  }
  *row = &*fragments_[id.fragment][id.slot];
  return Status::OK();
}

Status Table::Update(RecordId id, Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch on update");
  }
  if (id.fragment >= fragments_.size() ||
      id.slot >= fragments_[id.fragment].size() ||
      !fragments_[id.fragment][id.slot].has_value()) {
    return Status::NotFound("no row to update");
  }
  fragments_[id.fragment][id.slot] = std::move(row);
  return Status::OK();
}

Status Table::Delete(RecordId id) {
  if (id.fragment >= fragments_.size() ||
      id.slot >= fragments_[id.fragment].size() ||
      !fragments_[id.fragment][id.slot].has_value()) {
    return Status::NotFound("no row to delete");
  }
  fragments_[id.fragment][id.slot].reset();
  --live_rows_;
  return Status::OK();
}

Status Table::Scan(
    const std::function<bool(RecordId, const Row&)>& fn) const {
  for (uint32_t f = 0; f < fragments_.size(); ++f) {
    const Fragment& fragment = fragments_[f];
    for (uint32_t s = 0; s < fragment.size(); ++s) {
      if (!fragment[s].has_value()) continue;
      if (!fn(RecordId{f, s}, *fragment[s])) return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace grtdb
