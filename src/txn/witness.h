#ifndef GRTDB_TXN_WITNESS_H_
#define GRTDB_TXN_WITNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace grtdb {
namespace witness {

// A FreeBSD-witness-style lock-order checker. Every latch and lock in the
// server belongs to a *class* ("cache.latch", "wal.commit_mu",
// "lockmgr.row", ...). Threads report each acquisition and release; the
// checker keeps a per-thread held-set and a global order graph over
// classes. The first time class B is acquired while class A is held, the
// edge A -> B is recorded together with both acquisition sites. If the
// graph already proves B must precede A (a path B -> ... -> A exists), the
// A -> B acquisition is a lock-order inversion — a *potential* deadlock —
// and it is reported immediately, at the acquisition attempt, before any
// thread has actually blocked on the cycle.
//
// The checker core is always compiled so tests can drive it directly; the
// instrumentation call sites in LockManager / NodeCache / Pager /
// WalNodeStore are compiled in only under the GRTDB_WITNESS CMake option
// (the GRTDB_WITNESS_* macros below expand to nothing otherwise), so
// release builds pay nothing.
//
// Caveats (same family as FreeBSD witness): ordering is tracked per lock
// class, not per instance, so self-edges (re-acquiring a class already
// held, e.g. two different row locks) are deliberately ignored; and the
// held-set is per thread, so a lock released on a different thread than
// acquired it is balanced with OnReleaseAll rather than pairwise.

inline constexpr int kMaxClasses = 64;

// Where a lock of some class was acquired (static strings only).
struct Site {
  const char* file = "";
  int line = 0;
};

// One detected lock-order inversion. `held` is the lock that was already
// held (with its acquisition site), `acquiring` the one whose acquisition
// closed the cycle; `path` renders the pre-existing ordering
// acquiring -> ... -> held that makes the new edge an inversion.
struct CycleReport {
  std::string held_class;
  Site held_site;
  std::string acquiring_class;
  Site acquiring_site;
  std::string path;
  std::string ToString() const;
};

class Witness {
 public:
  Witness() = default;
  Witness(const Witness&) = delete;
  Witness& operator=(const Witness&) = delete;

  // The process-wide instance the instrumentation macros use.
  static Witness& Global();

  // Interns a class name (stable pointer required; use string literals)
  // and returns its id. Idempotent per name. Beyond kMaxClasses, returns
  // -1 and the class is never tracked.
  int RegisterClass(const char* name);

  // Reports that the calling thread is about to acquire a lock of class
  // `cls`. Call *before* the potentially blocking acquisition so an
  // inversion is flagged even when no thread ever blocks. Re-acquisitions
  // of an already-held class nest and add no edges.
  void OnAcquire(int cls, const char* file, int line);

  // Reports one release of `cls` by the calling thread (undoes one
  // OnAcquire nesting level). Unknown/unheld classes are ignored.
  void OnRelease(int cls);

  // Drops every nesting level of `cls` held by the calling thread (for
  // release paths that tear down an unknown number of acquisitions at
  // once, e.g. LockManager::ReleaseAll).
  void OnReleaseAll(int cls);

  // Number of distinct inversions reported since construction/Reset.
  uint64_t cycles_reported() const;
  std::vector<CycleReport> reports() const;

  // A handler invoked on every newly detected inversion, replacing the
  // default (print the report to stderr and abort()). Tests install a
  // capturing handler. Pass nullptr to restore the default.
  using Handler = std::function<void(const CycleReport&)>;
  void set_handler(Handler handler);

  // Clears the order graph and the reports (not per-thread held-sets:
  // callers must have balanced their acquisitions first).
  void Reset();

 private:
  struct Edge {
    bool present = false;
    Site from_site;  // where `from` was held when the edge was recorded
    Site to_site;    // where `to` was acquired, creating the edge
  };

  // Requires mu_. True if a path from -> ... -> to exists in the graph.
  bool ReachableLocked(int from, int to) const;
  void ReportLocked(int held, Site held_site, int acquiring,
                    Site acquiring_site);

  mutable std::mutex mu_;
  const char* names_[kMaxClasses] = {};
  int class_count_ = 0;
  Edge edges_[kMaxClasses][kMaxClasses];
  bool reported_[kMaxClasses][kMaxClasses] = {};
  std::vector<CycleReport> reports_;
  std::vector<size_t> pending_;  // indices into reports_ not yet handled
  Handler handler_;
};

// A lock class handle: interned on first use, cheap to pass around.
// Intended pattern:
//   static witness::LockClass cls("cache.latch");
//   GRTDB_WITNESS_ACQUIRE(cls);
class LockClass {
 public:
  explicit LockClass(const char* name) : name_(name) {}
  // Threads that first use a class race to resolve it; RegisterClass is
  // idempotent under the witness mutex, so every racer stores the same id.
  int id() {
    int id = id_.load(std::memory_order_relaxed);
    if (id == kUnresolved) {
      id = Witness::Global().RegisterClass(name_);
      id_.store(id, std::memory_order_relaxed);
    }
    return id;
  }
  const char* name() const { return name_; }

 private:
  static constexpr int kUnresolved = -2;
  const char* name_;
  std::atomic<int> id_{kUnresolved};
};

// RAII acquire/release of a witness class (tracks the scope of a
// lock_guard/unique_lock that lives for a whole block).
class Scoped {
 public:
  Scoped(LockClass& cls, const char* file, int line) : cls_(cls.id()) {
    Witness::Global().OnAcquire(cls_, file, line);
  }
  ~Scoped() { Witness::Global().OnRelease(cls_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int cls_;
};

}  // namespace witness
}  // namespace grtdb

// Instrumentation macros: active only under -DGRTDB_WITNESS (the
// GRTDB_WITNESS CMake option). `cls` is a witness::LockClass lvalue.
#ifdef GRTDB_WITNESS
#define GRTDB_WITNESS_ACQUIRE(cls) \
  ::grtdb::witness::Witness::Global().OnAcquire((cls).id(), __FILE__, __LINE__)
#define GRTDB_WITNESS_RELEASE(cls) \
  ::grtdb::witness::Witness::Global().OnRelease((cls).id())
#define GRTDB_WITNESS_RELEASE_ALL(cls) \
  ::grtdb::witness::Witness::Global().OnReleaseAll((cls).id())
#define GRTDB_WITNESS_SCOPE(cls) \
  ::grtdb::witness::Scoped grtdb_witness_scope_##__LINE__(cls, __FILE__, \
                                                          __LINE__)
#else
#define GRTDB_WITNESS_ACQUIRE(cls) ((void)0)
#define GRTDB_WITNESS_RELEASE(cls) ((void)0)
#define GRTDB_WITNESS_RELEASE_ALL(cls) ((void)0)
#define GRTDB_WITNESS_SCOPE(cls) ((void)0)
#endif

#endif  // GRTDB_TXN_WITNESS_H_
