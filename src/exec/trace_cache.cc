#include "trace_cache.hh"

#include <cstdlib>

#include "exec/env.hh"
#include "obs/stats.hh"

namespace memo::exec
{

namespace
{

size_t
defaultBudget()
{
    if (auto bytes = parseMebibytes(std::getenv("MEMO_TRACE_CACHE_MB")))
        return *bytes;
    return size_t{768} << 20;
}

} // anonymous namespace

TraceCache::TraceCache(size_t budget_bytes)
    : budget(budget_bytes ? budget_bytes : defaultBudget())
{
}

TraceCache &
TraceCache::instance()
{
    // Internally synchronized singleton: every lookup and insert is
    // taken under the cache's own mutex.
    static TraceCache cache; // NOLINT(memo-CONC-003)
    return cache;
}

void
TraceCache::setBudgetBytes(size_t budget_bytes)
{
    MutexLock lk(m);
    budget = budget_bytes ? budget_bytes : defaultBudget();
}

size_t
TraceCache::budgetBytes() const
{
    MutexLock lk(m);
    return budget;
}

std::shared_ptr<const Trace>
TraceCache::get(const TraceKey &key, const Generator &gen)
{
    std::shared_ptr<Slot> slot;
    {
        MutexLock lk(m);
        auto it = map.find(key);
        if (it != map.end()) {
            lru.splice(lru.begin(), lru, it->second);
        } else {
            lru.emplace_front(key, std::make_shared<Slot>());
            map[key] = lru.begin();
        }
        slot = lru.front().second;
    }

    // Generation runs outside the map lock: distinct keys generate
    // concurrently, while a second requester of the same key blocks
    // here until the first finishes. Evicted traces are freed when
    // `victims` goes out of scope, after both locks are released.
    Victims victims;
    std::shared_ptr<const Trace> result;
    {
        MutexLock sl(slot->m);
        if (!slot->trace) {
            slot->trace = std::make_shared<const Trace>(gen());
            generated_.fetch_add(1, std::memory_order_relaxed);
            // The 0 -> n transition of slot->bytes happens under the
            // cache mutex, together with its totalBytes contribution:
            // an eviction walk (which runs with `m` held) can then
            // never observe a slot size whose bytes were not yet
            // accounted and drive totalBytes below zero.
            size_t nbytes = slot->trace->memoryBytes();
            MutexLock lk(m);
            slot->bytes.store(nbytes, std::memory_order_relaxed);
            totalBytes += nbytes;
            victims = evictOverBudget(slot);
        } else {
            hits_.fetch_add(1, std::memory_order_relaxed);
        }
        result = slot->trace;
    }
    return result;
}

TraceCache::Victims
TraceCache::evictOverBudget(const std::shared_ptr<Slot> &keep)
{
    // Called with `m` held. Walk from the cold end; skip the entry
    // just inserted and any still-generating (zero-byte) slots.
    Victims victims;
    auto it = lru.end();
    while (totalBytes > budget && it != lru.begin()) {
        --it;
        size_t vbytes =
            it->second->bytes.load(std::memory_order_relaxed);
        if (it->second == keep || vbytes == 0)
            continue;
        totalBytes -= vbytes;
        map.erase(it->first);
        victims.emplace_back(std::move(it->first),
                             std::move(it->second));
        it = lru.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return victims;
}

size_t
TraceCache::entries() const
{
    MutexLock lk(m);
    return map.size();
}

size_t
TraceCache::residentBytes() const
{
    MutexLock lk(m);
    return totalBytes;
}

void
TraceCache::publishStats(obs::StatsRegistry &reg) const
{
    reg.gaugeMax("exec.traceCache.hits", hits());
    reg.gaugeMax("exec.traceCache.misses", misses());
    reg.gaugeMax("exec.traceCache.evictions", evictions());
    reg.gaugeMax("exec.traceCache.entries", entries());
    reg.gaugeMax("exec.traceCache.residentBytes", residentBytes());
}

void
TraceCache::clear()
{
    MutexLock lk(m);
    map.clear();
    lru.clear();
    totalBytes = 0;
}

} // namespace memo::exec
