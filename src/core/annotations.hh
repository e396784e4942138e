/**
 * @file
 * Clang thread-safety (capability) annotations and the annotated lock
 * primitives built on them.
 *
 * Every shared-state subsystem in this repository (ThreadPool,
 * TraceCache, StatsRegistry, Profiler, Heartbeat,
 * LineGenerations) carries hand-written
 * locking contracts; this header makes those contracts machine-checked.
 * Under Clang the macros expand to the capability attributes consumed
 * by `-Wthread-safety` (a dedicated CI job builds the tree with
 * `-Werror=thread-safety-analysis`); under every other compiler they
 * expand to nothing, so GCC builds are byte-for-byte the unannotated
 * ones. The memo-lint symbol-aware pass (memo-CONC-004/005, see
 * docs/LINTING.md) parses the same macros lexically, so the contract
 * is enforced even on hosts without Clang.
 *
 * The header is dependency-free apart from `<mutex>`: standard
 * library mutexes are not themselves annotated (libstdc++ carries no
 * capability attributes), so locking goes through the thin wrappers
 * below — memo::Mutex, memo::MutexLock and memo::UniqueLock — which
 * behave exactly like std::mutex / std::lock_guard / std::unique_lock
 * and only add the attributes.
 */

#ifndef MEMO_CORE_ANNOTATIONS_HH
#define MEMO_CORE_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
/** Expands to a Clang attribute under Clang, to nothing elsewhere. */
#define MEMO_TSA(x) __attribute__((x))
#else
/** Expands to a Clang attribute under Clang, to nothing elsewhere. */
#define MEMO_TSA(x)
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define MEMO_CAPABILITY(x) MEMO_TSA(capability(x))

/** Marks an RAII type that acquires in its ctor / releases in dtor. */
#define MEMO_SCOPED_CAPABILITY MEMO_TSA(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define MEMO_GUARDED_BY(x) MEMO_TSA(guarded_by(x))

/** Pointer member whose pointee is protected by @p x. */
#define MEMO_PT_GUARDED_BY(x) MEMO_TSA(pt_guarded_by(x))

/** Function callable only with the listed capabilities held. */
#define MEMO_REQUIRES(...) MEMO_TSA(requires_capability(__VA_ARGS__))

/** Function that acquires the listed capabilities (held on return). */
#define MEMO_ACQUIRE(...) MEMO_TSA(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities. */
#define MEMO_RELEASE(...) MEMO_TSA(release_capability(__VA_ARGS__))

/** Function that acquires on success (@p first arg = success value). */
#define MEMO_TRY_ACQUIRE(...) MEMO_TSA(try_acquire_capability(__VA_ARGS__))

/** Function that must NOT be entered with the listed locks held. */
#define MEMO_EXCLUDES(...) MEMO_TSA(locks_excluded(__VA_ARGS__))

/** Function returning a reference to the named capability. */
#define MEMO_RETURN_CAPABILITY(x) MEMO_TSA(lock_returned(x))

/** Escape hatch: disable the analysis for one function. Unused in
 *  src/exec and src/trace by policy (the CI job proves it). */
#define MEMO_NO_THREAD_SAFETY_ANALYSIS MEMO_TSA(no_thread_safety_analysis)

/**
 * Documentation-only marker for a data member of a mutex-holding
 * class that is deliberately NOT lock-guarded: const after
 * construction, touched only from the constructor/destructor, or
 * externally synchronized by the owner. Expands to nothing on every
 * compiler; the memo-CONC-004 lint rule accepts it in place of
 * MEMO_GUARDED_BY, so every unguarded field is an explicit decision.
 */
#define MEMO_UNGUARDED

namespace memo
{

/**
 * A std::mutex with capability attributes: the lockable the
 * thread-safety analysis reasons about. Use MutexLock / UniqueLock to
 * hold it; native() exposes the wrapped std::mutex for
 * condition-variable waits.
 */
class MEMO_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Acquire exclusively; prefer the RAII wrappers. */
    void lock() MEMO_ACQUIRE() { m_.lock(); }

    /** Release. */
    void unlock() MEMO_RELEASE() { m_.unlock(); }

    /** Acquire if free. @return true when the lock was taken. */
    bool try_lock() MEMO_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /** The wrapped mutex, for std::condition_variable waits. */
    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/** std::lock_guard over a Mutex: acquire at construction, release at
 *  scope exit. */
class MEMO_SCOPED_CAPABILITY MutexLock
{
  public:
    /** Acquire @p m for the lifetime of this object. */
    explicit MutexLock(Mutex &m) MEMO_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() MEMO_RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

/**
 * std::unique_lock over a Mutex: like MutexLock but relockable, and
 * its native() handle plugs into std::condition_variable::wait. The
 * analysis treats the capability as held across a wait — the
 * temporary release inside wait() is invisible to it, which matches
 * how every caller reasons about the guarded predicate.
 */
class MEMO_SCOPED_CAPABILITY UniqueLock
{
  public:
    /** Acquire @p m; released on destruction if still held. */
    explicit UniqueLock(Mutex &m) MEMO_ACQUIRE(m) : lk_(m.native()) {}
    ~UniqueLock() MEMO_RELEASE() {}

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    /** Re-acquire after an unlock(). */
    void lock() MEMO_ACQUIRE() { lk_.lock(); }

    /** Release before scope exit (e.g. around slow I/O). */
    void unlock() MEMO_RELEASE() { lk_.unlock(); }

    /** The wrapped lock, for std::condition_variable waits. */
    std::unique_lock<std::mutex> &native() { return lk_; }

  private:
    std::unique_lock<std::mutex> lk_;
};

} // namespace memo

#endif // MEMO_CORE_ANNOTATIONS_HH
