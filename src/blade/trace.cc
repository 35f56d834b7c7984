#include "blade/trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace grtdb {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t ThisThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

TraceFacility::TraceFacility(size_t capacity) : ring_(capacity) {}

void TraceFacility::SetClass(std::string_view trace_class, int level) {
  if (level < 0) level = 0;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = slot_count_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < count; ++i) {
    ClassSlot& slot = slots_[i];
    if (std::string_view(slot.name, slot.len) != trace_class) continue;
    const int old = slot.level.exchange(level, std::memory_order_relaxed);
    if (old == 0 && level > 0) {
      enabled_count_.fetch_add(1, std::memory_order_relaxed);
    } else if (old > 0 && level == 0) {
      enabled_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  if (level == 0) return;  // disabling an unknown class is a no-op
  if (count >= kMaxClasses || trace_class.size() > kMaxClassName) return;
  ClassSlot& slot = slots_[count];
  trace_class.copy(slot.name, trace_class.size());
  slot.len = trace_class.size();
  slot.level.store(level, std::memory_order_relaxed);
  // Publish the slot: readers acquire slot_count_ and then may read the
  // name bytes and level written above.
  slot_count_.store(count + 1, std::memory_order_release);
  enabled_count_.fetch_add(1, std::memory_order_relaxed);
}

bool TraceFacility::EnabledSlow(std::string_view trace_class,
                                int level) const {
  const size_t count = slot_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    const ClassSlot& slot = slots_[i];
    if (std::string_view(slot.name, slot.len) != trace_class) continue;
    return slot.level.load(std::memory_order_relaxed) >= level;
  }
  return false;
}

void TraceFacility::Tprintf(std::string_view trace_class, int level,
                            const char* format, ...) {
  if (!Enabled(trace_class, level)) return;
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  Append(trace_class, level, buffer);
}

void TraceFacility::Append(std::string_view trace_class, int level,
                           const char* message) {
  TraceRecord record;
  record.ts_us = NowMicros();
  record.thread = ThisThreadId();
  record.trace_class.assign(trace_class.data(), trace_class.size());
  record.level = level;
  record.message = message;

  std::lock_guard<std::mutex> lock(mu_);
  record.seq = next_seq_++;
  if (ring_.Push(std::move(record))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::string> TraceFacility::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(ring_.size());
  ring_.ForEach([&out](const TraceRecord& r) {
    out.push_back(r.trace_class + " " + std::to_string(r.level) + ": " +
                  r.message);
  });
  return out;
}

std::vector<TraceRecord> TraceFacility::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

void TraceFacility::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Resize(capacity);
}

size_t TraceFacility::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.capacity();
}

void TraceFacility::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace grtdb
