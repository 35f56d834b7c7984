#ifndef GRTDB_COMMON_BOUNDED_RING_H_
#define GRTDB_COMMON_BOUNDED_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace grtdb {

// A fixed-capacity ring that overwrites its oldest entry once full. Not
// thread-safe: each owner guards it with its own mutex and keeps its own
// sequence numbers and loss counters.
template <typename T>
class BoundedRing {
 public:
  // A capacity of 0 is clamped to 1.
  explicit BoundedRing(size_t capacity) : capacity_(Clamp(capacity)) {}

  // Appends `value`; returns true when that overwrote the oldest entry.
  bool Push(T value) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(value));
      return false;
    }
    items_[first_] = std::move(value);
    first_ = (first_ + 1) % capacity_;
    return true;
  }

  // Calls fn(entry) for every entry, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < items_.size(); ++i) {
      fn(items_[(first_ + i) % items_.size()]);
    }
  }

  // Copies of every entry, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(items_.size());
    ForEach([&out](const T& item) { out.push_back(item); });
    return out;
  }

  // Changes the capacity, keeping the newest entries that fit.
  void Resize(size_t capacity) {
    capacity = Clamp(capacity);
    const size_t keep = items_.size() < capacity ? items_.size() : capacity;
    std::vector<T> kept;
    kept.reserve(keep);
    for (size_t i = items_.size() - keep; i < items_.size(); ++i) {
      kept.push_back(std::move(items_[(first_ + i) % items_.size()]));
    }
    items_ = std::move(kept);
    first_ = 0;
    capacity_ = capacity;
  }

  void Clear() {
    items_.clear();
    first_ = 0;
  }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  static size_t Clamp(size_t capacity) { return capacity == 0 ? 1 : capacity; }

  size_t capacity_;
  std::vector<T> items_;  // entry i, oldest first: items_[(first_ + i) % size]
  size_t first_ = 0;
};

}  // namespace grtdb

#endif  // GRTDB_COMMON_BOUNDED_RING_H_
