#include "blade/mi_memory.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

// Manual ASan poisoning: a freed or ended-duration block stays allocated
// (quarantined) but any load/store through a stale pointer becomes an
// immediate use-after-poison report instead of silent corruption.
#if defined(__SANITIZE_ADDRESS__)
#define GRTDB_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRTDB_HAS_ASAN 1
#endif
#endif

#ifdef GRTDB_HAS_ASAN
#include <sanitizer/asan_interface.h>
#define GRTDB_ASAN_POISON(p, n) __asan_poison_memory_region((p), (n))
#define GRTDB_ASAN_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define GRTDB_ASAN_POISON(p, n) ((void)(p), (void)(n))
#define GRTDB_ASAN_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace grtdb {

namespace {

constexpr uint32_t kMagic = 0x4D69424Bu;  // "MiBK"
constexpr uint64_t kCanary = 0xCACACACACACACACAull;
constexpr uint8_t kPoisonByte = 0xDD;
constexpr size_t kTrailerSize = sizeof(uint64_t);

// Framed directly before the user bytes; 32 bytes keeps the user pointer
// on the default operator-new alignment.
struct BlockHeader {
  uint32_t magic;
  uint8_t duration;
  uint8_t state;
  uint16_t pad;
  uint64_t size;
  uint64_t canary_a;
  uint64_t canary_b;
};
static_assert(sizeof(BlockHeader) == 32, "header must preserve alignment");

BlockHeader* HeaderOf(void* user) {
  return reinterpret_cast<BlockHeader*>(static_cast<uint8_t*>(user) -
                                        sizeof(BlockHeader));
}

uint8_t* TrailerOf(void* user, size_t size) {
  return static_cast<uint8_t*>(user) + size;
}

std::string PtrString(const void* ptr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%p", ptr);
  return buf;
}

}  // namespace

const char* MiDurationName(MiDuration duration) {
  switch (duration) {
    case MiDuration::kPerFunction: return "PER_FUNCTION";
    case MiDuration::kPerStatement: return "PER_STATEMENT";
    case MiDuration::kPerTransaction: return "PER_TRANSACTION";
    case MiDuration::kPerSession: return "PER_SESSION";
  }
  return "?";
}

const char* MiViolationKindName(MiViolationKind kind) {
  switch (kind) {
    case MiViolationKind::kDoubleFree: return "double-free";
    case MiViolationKind::kForeignFree: return "foreign-free";
    case MiViolationKind::kFreeAfterEnd: return "free-after-duration-end";
    case MiViolationKind::kCrossDurationFree: return "cross-duration-free";
    case MiViolationKind::kHeaderCorruption: return "header-corruption";
    case MiViolationKind::kTrailerCorruption: return "trailer-corruption";
    case MiViolationKind::kDurationEscape: return "duration-escape";
  }
  return "?";
}

MiMemory::~MiMemory() {
  // Unpoison everything before the unique_ptrs hand the memory back, so
  // ASan's own allocator bookkeeping never touches poisoned bytes.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [ptr, block] : blocks_) {
    GRTDB_ASAN_UNPOISON(ptr, block.size);
  }
}

void* MiMemory::Alloc(MiDuration duration, size_t size) {
  if (size == 0) size = 1;
  auto raw = std::make_unique<uint8_t[]>(sizeof(BlockHeader) + size +
                                         kTrailerSize);
  uint8_t* user = raw.get() + sizeof(BlockHeader);
  std::memset(user, 0, size);

  auto* header = reinterpret_cast<BlockHeader*>(raw.get());
  header->magic = kMagic;
  header->duration = static_cast<uint8_t>(duration);
  header->state = static_cast<uint8_t>(BlockState::kLive);
  header->pad = 0;
  header->size = size;
  header->canary_a = kCanary;
  header->canary_b = kCanary;
  std::memcpy(TrailerOf(user, size), &kCanary, kTrailerSize);

  std::lock_guard<std::mutex> lock(mu_);
  blocks_[user] =
      Block{std::move(raw), size, duration, BlockState::kLive, next_seq_++};
  return user;
}

void MiMemory::CheckCanariesLocked(void* ptr, const Block& block,
                                   std::vector<MiViolation>* out) {
  const BlockHeader* header = HeaderOf(ptr);
  if (header->magic != kMagic || header->canary_a != kCanary ||
      header->canary_b != kCanary || header->size != block.size) {
    out->push_back(
        {MiViolationKind::kHeaderCorruption,
         "block " + PtrString(ptr) + " (" + MiDurationName(block.duration) +
             ", " + std::to_string(block.size) +
             " bytes): header canary destroyed (buffer underrun?)"});
  }
  uint64_t trailer;
  std::memcpy(&trailer, TrailerOf(ptr, block.size), kTrailerSize);
  if (trailer != kCanary) {
    out->push_back(
        {MiViolationKind::kTrailerCorruption,
         "block " + PtrString(ptr) + " (" + MiDurationName(block.duration) +
             ", " + std::to_string(block.size) +
             " bytes): trailing canary destroyed (buffer overrun)"});
  }
}

void MiMemory::RetireLocked(void* ptr, Block& block, BlockState state,
                            std::deque<void*>* release) {
  block.state = state;
  HeaderOf(ptr)->state = static_cast<uint8_t>(state);
  std::memset(ptr, kPoisonByte, block.size);
  GRTDB_ASAN_POISON(ptr, block.size);
  quarantine_.push_back(ptr);
  while (quarantine_.size() > kQuarantineCapacity) {
    void* oldest = quarantine_.front();
    quarantine_.pop_front();
    release->push_back(oldest);
  }
}

void MiMemory::FreeLocked(void* ptr, const MiDuration* expected,
                          std::vector<MiViolation>* out,
                          std::deque<void*>* release) {
  auto it = blocks_.find(ptr);
  if (it == blocks_.end()) {
    out->push_back({MiViolationKind::kForeignFree,
                    "mi_free(" + PtrString(ptr) +
                        "): pointer was never returned by this allocator"});
    return;
  }
  Block& block = it->second;
  if (block.state == BlockState::kFreed) {
    out->push_back({MiViolationKind::kDoubleFree,
                    "mi_free(" + PtrString(ptr) + "): block (" +
                        MiDurationName(block.duration) +
                        ") was already freed"});
    return;
  }
  if (block.state == BlockState::kEnded) {
    out->push_back({MiViolationKind::kFreeAfterEnd,
                    "mi_free(" + PtrString(ptr) + "): block's duration " +
                        MiDurationName(block.duration) + " already ended"});
    return;
  }
  CheckCanariesLocked(ptr, block, out);
  if (expected != nullptr && *expected != block.duration) {
    out->push_back({MiViolationKind::kCrossDurationFree,
                    "mi_free(" + PtrString(ptr) + "): block was allocated " +
                        MiDurationName(block.duration) +
                        " but freed as " + MiDurationName(*expected)});
  }
  RetireLocked(ptr, block, BlockState::kFreed, release);
}

void MiMemory::Publish(std::vector<MiViolation> violations) {
  if (violations.empty()) return;
  ViolationHandler handler;
  {
    std::lock_guard<std::mutex> lock(vio_mu_);
    for (MiViolation& violation : violations) {
      violations_.push_back(violation);
    }
    handler = handler_;
  }
  for (const MiViolation& violation : violations) {
    if (handler) {
      handler(violation);
    } else {
      std::fprintf(stderr, "MiMemory %s: %s\n",
                   MiViolationKindName(violation.kind),
                   violation.message.c_str());
    }
  }
}

void MiMemory::Free(void* ptr) {
  if (ptr == nullptr) return;
  std::vector<MiViolation> found;
  std::deque<void*> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FreeLocked(ptr, nullptr, &found, &release);
    for (void* victim : release) {
      GRTDB_ASAN_UNPOISON(victim, blocks_[victim].size);
      blocks_.erase(victim);
    }
  }
  Publish(std::move(found));
}

void MiMemory::Free(void* ptr, MiDuration expected) {
  if (ptr == nullptr) return;
  std::vector<MiViolation> found;
  std::deque<void*> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FreeLocked(ptr, &expected, &found, &release);
    for (void* victim : release) {
      GRTDB_ASAN_UNPOISON(victim, blocks_[victim].size);
      blocks_.erase(victim);
    }
  }
  Publish(std::move(found));
}

void MiMemory::BeginDuration(MiDuration duration) {
  std::lock_guard<std::mutex> lock(mu_);
  duration_marks_[static_cast<int>(duration)].push_back(next_seq_);
}

size_t MiMemory::DurationDepth(MiDuration duration) const {
  std::lock_guard<std::mutex> lock(mu_);
  return duration_marks_[static_cast<int>(duration)].size();
}

void MiMemory::EndDuration(MiDuration duration) {
  std::vector<MiViolation> found;
  std::deque<void*> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // With no open scope the mark is 0: every live block of the duration
    // goes, the pre-BeginDuration behavior.
    std::vector<uint64_t>& marks = duration_marks_[static_cast<int>(duration)];
    uint64_t mark = 0;
    if (!marks.empty()) {
      mark = marks.back();
      marks.pop_back();
    }
    for (auto& [ptr, block] : blocks_) {
      if (block.state != BlockState::kLive || block.duration != duration ||
          block.seq < mark) {
        continue;
      }
      CheckCanariesLocked(ptr, block, &found);
      RetireLocked(ptr, block, BlockState::kEnded, &release);
    }
    for (void* victim : release) {
      GRTDB_ASAN_UNPOISON(victim, blocks_[victim].size);
      blocks_.erase(victim);
    }
  }
  Publish(std::move(found));
}

void MiMemory::NoteStoredPointer(MiDuration holder, const void* stored,
                                 const std::string& context) {
  if (stored == nullptr) return;
  std::vector<MiViolation> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [ptr, block] : blocks_) {
      const auto* base = static_cast<const uint8_t*>(ptr);
      const auto* p = static_cast<const uint8_t*>(stored);
      if (p < base || p >= base + block.size) continue;
      if (block.state == BlockState::kLive &&
          MiDurationOutlives(holder, block.duration)) {
        found.push_back(
            {MiViolationKind::kDurationEscape,
             "pointer " + PtrString(stored) + " into a " +
                 MiDurationName(block.duration) + " block stored in " +
                 context + " (lifetime " + MiDurationName(holder) +
                 "): it will dangle when the shorter duration ends"});
      }
      break;
    }
  }
  Publish(std::move(found));
}

size_t MiMemory::LiveBlocks(MiDuration duration) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [ptr, block] : blocks_) {
    if (block.state == BlockState::kLive && block.duration == duration) {
      ++count;
    }
  }
  return count;
}

size_t MiMemory::LiveBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [ptr, block] : blocks_) {
    if (block.state == BlockState::kLive) total += block.size;
  }
  return total;
}

std::vector<MiViolation> MiMemory::violations() const {
  std::lock_guard<std::mutex> lock(vio_mu_);
  return violations_;
}

size_t MiMemory::violation_count() const {
  std::lock_guard<std::mutex> lock(vio_mu_);
  return violations_.size();
}

void MiMemory::ClearViolations() {
  std::lock_guard<std::mutex> lock(vio_mu_);
  violations_.clear();
}

void MiMemory::set_violation_handler(ViolationHandler handler) {
  std::lock_guard<std::mutex> lock(vio_mu_);
  handler_ = std::move(handler);
}

size_t MiMemory::QuarantinedBlocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_.size();
}

Status MiNamedMemory::NamedAlloc(const std::string& name, size_t size,
                                 void** ptr) {
  // Clamp like MiMemory::Alloc: data() of an empty vector is not a valid
  // pointer to hand a caller who will write through it.
  if (size == 0) size = 1;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = blocks_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("named memory '" + name + "'");
  }
  it->second.assign(size, 0);
  *ptr = it->second.data();
  return Status::OK();
}

Status MiNamedMemory::NamedGet(const std::string& name, void** ptr) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(name);
  if (it == blocks_.end()) {
    return Status::NotFound("named memory '" + name + "'");
  }
  *ptr = it->second.data();
  return Status::OK();
}

Status MiNamedMemory::NamedFree(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blocks_.erase(name) == 0) {
    return Status::NotFound("named memory '" + name + "'");
  }
  return Status::OK();
}

Status MiNamedMemory::NamedStorePointer(const std::string& name,
                                        const void* pointee) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(name);
    if (it == blocks_.end()) {
      return Status::NotFound("named memory '" + name + "'");
    }
    if (it->second.size() < sizeof(void*)) {
      return Status::InvalidArgument("named memory '" + name +
                                     "' is smaller than a pointer");
    }
    std::memcpy(it->second.data(), &pointee, sizeof(void*));
  }
  // Named memory lives until it is explicitly freed — at best to session
  // end — so audit the store against the longest duration of every
  // attached allocator: the pointee may have come from any session.
  std::vector<MiMemory*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources = duration_sources_;
  }
  for (MiMemory* source : sources) {
    source->NoteStoredPointer(MiDuration::kPerSession, pointee,
                              "named memory '" + name + "'");
  }
  return Status::OK();
}

void MiNamedMemory::AddDurationSource(MiMemory* memory) {
  std::lock_guard<std::mutex> lock(mu_);
  for (MiMemory* source : duration_sources_) {
    if (source == memory) return;
  }
  duration_sources_.push_back(memory);
}

void MiNamedMemory::RemoveDurationSource(MiMemory* memory) {
  std::lock_guard<std::mutex> lock(mu_);
  duration_sources_.erase(
      std::remove(duration_sources_.begin(), duration_sources_.end(), memory),
      duration_sources_.end());
}

size_t MiNamedMemory::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.size();
}

}  // namespace grtdb
