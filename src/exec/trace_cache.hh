/**
 * @file
 * Process-wide cache of immutable, shared traces.
 *
 * Trace generation (running an instrumented kernel over an image) is
 * the expensive, serial part of every reproduction harness, and the
 * same (workload, image, crop) trace is needed by many measurement
 * points: every table configuration of a sweep, every latency preset
 * of the speedup tables, and both the baseline and memoized cycle
 * runs. The cache generates each trace exactly once — concurrent
 * requests for the same key block on a per-entry guard while one
 * thread generates — and hands out shared read-only instances that
 * every worker can replay lock-free.
 *
 * Entries are evicted least-recently-used once the cached bytes
 * exceed a budget (default 768 MiB, override with the
 * MEMO_TRACE_CACHE_MB environment variable, a positive whole number
 * of MiB; malformed values keep the default); outstanding shared_ptr
 * holders keep evicted traces alive, so eviction only ever costs a
 * regeneration. Generation is deterministic, so a regenerated trace
 * is bit-identical to the evicted one and results never depend on
 * the budget.
 */

#ifndef MEMO_EXEC_TRACE_CACHE_HH
#define MEMO_EXEC_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/annotations.hh"

#include "trace/trace.hh"

namespace memo::obs
{
class StatsRegistry;
} // namespace memo::obs

namespace memo::exec
{

/** Identity of a cached trace. */
struct TraceKey
{
    std::string workload; //!< kernel or scientific workload name
    std::string image;    //!< input image name; empty for sci workloads
    int crop = 0;         //!< centre-crop dimension; 0 when unused

    bool
    operator==(const TraceKey &o) const
    {
        return crop == o.crop && workload == o.workload &&
               image == o.image;
    }

    struct Hash
    {
        size_t
        operator()(const TraceKey &k) const
        {
            size_t h = std::hash<std::string>{}(k.workload);
            h = h * 0x9e3779b97f4a7c15ull ^
                std::hash<std::string>{}(k.image);
            return h * 0x9e3779b97f4a7c15ull ^
                   static_cast<size_t>(k.crop);
        }
    };
};

/** LRU-bounded map from TraceKey to a shared immutable Trace. */
class TraceCache
{
  public:
    using Generator = std::function<Trace()>;

    /** @param budget_bytes 0 = default (env override / 768 MiB). */
    explicit TraceCache(size_t budget_bytes = 0);

    /** The process-wide instance used by the analysis helpers. */
    static TraceCache &instance();

    /**
     * Return the trace for @p key, running @p gen to produce it if it
     * is not cached. @p gen runs at most once per cached lifetime of
     * the key, even under concurrent lookups.
     */
    std::shared_ptr<const Trace> get(const TraceKey &key,
                                     const Generator &gen);

    /**
     * Replace the resident-bytes budget (0 = back to the default /
     * MEMO_TRACE_CACHE_MB). Takes effect at the next insertion; it
     * does not evict already-resident entries by itself.
     */
    void setBudgetBytes(size_t budget_bytes);

    /** The active resident-bytes budget. */
    size_t budgetBytes() const;

    /** Number of resident entries. */
    size_t entries() const;

    /** Bytes held by resident traces. */
    size_t residentBytes() const;

    /** Times a generator was invoked. */
    uint64_t generated() const { return generated_.load(); }

    /**
     * Lookups not served from a resident entry; each runs the
     * generator exactly once, so this equals generated().
     */
    uint64_t misses() const { return generated(); }

    /** Lookups served from a resident entry. */
    uint64_t hits() const { return hits_.load(); }

    /** Entries dropped by the LRU budget walk (not by clear()). */
    uint64_t evictions() const { return evictions_.load(); }

    /**
     * Fold the cache counters into @p reg as gauges
     * (exec.traceCache.{hits,misses,evictions,entries,
     * residentBytes}). Gauges take the max, so repeated publication
     * is idempotent. Eviction order is scheduling-dependent under
     * concurrency, so callers must keep these out of registries whose
     * snapshots feed determinism diffs (memo-report's stdout summary
     * and the --profile paths are the intended consumers).
     */
    void publishStats(obs::StatsRegistry &reg) const;

    /** Drop every resident entry (shared holders stay valid). */
    void clear();

  private:
    /** One cached trace; `m` serializes its (single) generation. */
    struct Slot
    {
        Mutex m;
        std::shared_ptr<const Trace> trace MEMO_GUARDED_BY(m);
        /// Size of `trace` once generated. Transitions 0 -> n exactly
        /// once, with BOTH this slot's `m` and the cache mutex held,
        /// so the eviction walk (cache mutex only) always reads a
        /// value whose totalBytes contribution has been accounted.
        std::atomic<size_t> bytes{0};
    };

    using LruList =
        std::list<std::pair<TraceKey, std::shared_ptr<Slot>>>;
    using Victims =
        std::vector<std::pair<TraceKey, std::shared_ptr<Slot>>>;

    /**
     * Called with `m` held; returns the entries it dropped, so the
     * caller frees their traces after releasing every lock.
     */
    Victims evictOverBudget(const std::shared_ptr<Slot> &keep)
        MEMO_REQUIRES(m);

    mutable Mutex m;
    LruList lru MEMO_GUARDED_BY(m); //!< front = most recently used
    std::unordered_map<TraceKey, LruList::iterator, TraceKey::Hash> map
        MEMO_GUARDED_BY(m);
    size_t totalBytes MEMO_GUARDED_BY(m) = 0;
    size_t budget MEMO_GUARDED_BY(m);
    std::atomic<uint64_t> generated_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace memo::exec

#endif // MEMO_EXEC_TRACE_CACHE_HH
