#ifndef GRTDB_SERVER_TABLE_H_
#define GRTDB_SERVER_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/value.h"

namespace grtdb {

// Identifies a row: (fragment id, slot within fragment). grt_getnext forms
// its retrowid from exactly these two pieces (paper Table 5).
struct RecordId {
  uint32_t fragment = 0;
  uint32_t slot = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(fragment) << 32) | slot;
  }
  static RecordId Unpack(uint64_t packed) {
    return RecordId{static_cast<uint32_t>(packed >> 32),
                    static_cast<uint32_t>(packed & 0xFFFFFFFFu)};
  }
  friend bool operator==(RecordId a, RecordId b) {
    return a.fragment == b.fragment && a.slot == b.slot;
  }
};

struct ColumnDef {
  std::string name;
  TypeDesc type;
};

// A fragmented heap table. Fragments fill up in order; row slots are never
// reused, so RecordIds stay stable for the lifetime of the table.
//
// Get and Scan hand out the stored row itself, not a copy. Each fragment
// reserves its full capacity up front, and growing the fragment list moves
// fragments, not their rows, so a stored row never moves: the pointer or
// reference stays valid while the statement holds the table lock, until
// that slot is updated or deleted (Update and Delete replace or free the
// row; later Inserts do not touch it). A caller that deletes the row it is
// visiting must take what it needs from the row first.
class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns,
        uint32_t fragment_capacity = 4096)
      : name_(std::move(name)),
        columns_(std::move(columns)),
        fragment_capacity_(fragment_capacity) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  // Index of `column` or -1.
  int ColumnIndex(const std::string& column) const;

  Status Insert(Row row, RecordId* id);
  // Points *row at the stored row (see the lifetime rule above).
  Status Get(RecordId id, const Row** row) const;
  Status Update(RecordId id, Row row);
  Status Delete(RecordId id);

  // Live rows (excludes deleted slots). Atomic so the sys-view path can
  // read a count while another session's locked DML is mid-mutation.
  uint64_t row_count() const {
    return live_rows_.load(std::memory_order_relaxed);
  }

  // Calls fn(id, row) for each live row; return false to stop.
  Status Scan(const std::function<bool(RecordId, const Row&)>& fn) const;

 private:
  using Fragment = std::vector<std::optional<Row>>;

  std::string name_;
  std::vector<ColumnDef> columns_;
  uint32_t fragment_capacity_;
  std::vector<Fragment> fragments_;
  std::atomic<uint64_t> live_rows_{0};
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_TABLE_H_
