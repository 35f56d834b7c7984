#ifndef GRTDB_SERVER_RESULT_H_
#define GRTDB_SERVER_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace grtdb {

// The rows of a result, stored flat: every cell of every row in one vector,
// plus each row's end offset into it. A row reads as a span over its cells,
// so rows may differ in width and may have no cells at all. Rendering or
// decoding a result appends to the two vectors, and Clear keeps their
// capacity, so a ResultSet reused across statements allocates per cell
// only for cells longer than std::string's inline buffer, never per row.
// A Row views the cell vector: it is valid until the next append or Clear.
class ResultRows {
 public:
  using Row = std::span<const std::string>;

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    const_iterator() = default;
    Row operator*() const { return (*rows_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class ResultRows;
    const_iterator(const ResultRows* rows, size_t index)
        : rows_(rows), index_(index) {}

    const ResultRows* rows_ = nullptr;
    size_t index_ = 0;
  };

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  Row operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return Row(cells_.data() + begin, ends_[i] - begin);
  }
  Row front() const { return (*this)[0]; }
  Row back() const { return (*this)[size() - 1]; }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  // Appends one cell, built from `args` as std::string's constructor
  // would, to the row in progress; EndRow closes that row.
  template <typename... Args>
  void AddCell(Args&&... args) {
    cells_.emplace_back(std::forward<Args>(args)...);
  }
  void EndRow() { ends_.push_back(static_cast<uint32_t>(cells_.size())); }
  void push_back(std::initializer_list<std::string> row) {
    cells_.insert(cells_.end(), row);
    EndRow();
  }

  void Reserve(size_t rows, size_t cells) {
    ends_.reserve(rows);
    cells_.reserve(cells);
  }
  // Drops every row; the capacity stays for the next result.
  void Clear() {
    cells_.clear();
    ends_.clear();
  }

  bool operator==(const ResultRows& other) const = default;

 private:
  std::vector<std::string> cells_;
  // Row i is cells_[ends_[i-1], ends_[i]). 32 bits bound a result to 4G
  // cells; one wire frame holds at most 4M.
  std::vector<uint32_t> ends_;
};

// Result of one SQL statement. Rows are rendered to text with the types'
// output functions (opaque values via their type support functions).
struct ResultSet {
  std::vector<std::string> columns;
  ResultRows rows;
  // Informational messages (e.g. the SET EXPLAIN plan text).
  std::vector<std::string> messages;
  uint64_t affected = 0;

  void Clear() {
    columns.clear();
    rows.Clear();
    messages.clear();
    affected = 0;
  }

  // Simple fixed-width rendering for examples and debugging.
  std::string ToString() const;
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_RESULT_H_
