// Annotated lock primitives: the only mutex/spinlock types allowed outside
// src/base/ (the raw-mutex rule in tools/lint_malt_api.py enforces this).
//
// Each type wraps the std primitive and carries Clang thread-safety
// capability annotations (src/base/thread_annotations.h), so lock discipline
// — which lock guards which field, which functions require a lock held — is
// compiler-checked under clang (-Werror=thread-safety, the MALT_THREAD_SAFETY
// cmake option) and zero-cost documentation under gcc.
//
// Scoped holders (MutexLock, SpinLockHolder, ReaderMutexLock, ...) are the
// way to take a lock.

#ifndef SRC_BASE_MUTEX_H_
#define SRC_BASE_MUTEX_H_

#include <atomic>
#include <mutex>
#include <shared_mutex>

#include "src/base/mc.h"
#include "src/base/thread_annotations.h"

namespace malt {

// Plain exclusive mutex.
class MALT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MALT_ACQUIRE() { mu_.lock(); }
  void unlock() MALT_RELEASE() { mu_.unlock(); }
  bool try_lock() MALT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Declares to the analysis that this mutex is held on entry. For code paths
  // where the hold is a runtime fact the analysis cannot see (a callback run
  // under the caller's lock). No runtime effect.
  void AssertHeld() const MALT_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

// Reader/writer mutex.
class MALT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MALT_ACQUIRE() { mu_.lock(); }
  void unlock() MALT_RELEASE() { mu_.unlock(); }
  void lock_shared() MALT_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() MALT_RELEASE_SHARED() { mu_.unlock_shared(); }
  void AssertHeld() const MALT_ASSERT_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// Tiny test-and-set spinlock. The shmem hot path takes this several times per
// traced one-sided write, from multiple sender threads into one receiver
// trace ring; the critical section is a few stores, so spinning beats a futex
// mutex's contended slow path by a wide margin. The flag goes through the
// mc:: shim so the model checker (DESIGN.md §11) can drive lock/unlock
// through explored interleavings; MALT_MC_SPIN_YIELD parks a spinning thread
// under the model-check scheduler and is a no-op otherwise.
class MALT_CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() MALT_ACQUIRE() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      MALT_MC_SPIN_YIELD();
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() MALT_RELEASE() { flag_.clear(std::memory_order_release); }
  void AssertHeld() const MALT_ASSERT_CAPABILITY(this) {}

 private:
  mc::atomic_flag flag_;
};

// Scoped exclusive holders. Concrete per lock type (not a template): the
// analysis resolves the capability through the constructor's parameter, and
// concrete classes keep the diagnostics readable.
class MALT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MALT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MALT_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

class MALT_SCOPED_CAPABILITY SpinLockHolder {
 public:
  explicit SpinLockHolder(SpinLock& mu) MALT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~SpinLockHolder() MALT_RELEASE() { mu_.unlock(); }
  SpinLockHolder(const SpinLockHolder&) = delete;
  SpinLockHolder& operator=(const SpinLockHolder&) = delete;

 private:
  SpinLock& mu_;
};

class MALT_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MALT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterMutexLock() MALT_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class MALT_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MALT_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  // Generic release: the analysis pairs a shared acquire with any release
  // kind in the destructor of a scoped capability.
  ~ReaderMutexLock() MALT_RELEASE_GENERIC() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace malt

#endif  // SRC_BASE_MUTEX_H_
