/**
 * @file
 * An Oberman/Flynn-style reciprocal cache ("Reducing Division Latency
 * with Reciprocal Caches", Reliable Computing 2(2), 1996), the second
 * baseline of the paper's related-work section.
 *
 * The reciprocal cache is indexed by the *divisor* only. On a hit, the
 * division a/b is replaced by the multiplication a * (1/b): the latency
 * drops from the divider latency to the multiplier latency, rather than
 * to a single cycle as in a MEMO-TABLE, but the cache covers any
 * dividend paired with a previously seen divisor.
 */

#ifndef MEMO_CORE_RECIP_CACHE_HH
#define MEMO_CORE_RECIP_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/stats.hh"

namespace memo
{

/** Divisor-indexed cache of reciprocals. */
class ReciprocalCache
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param ways set associativity (power of two)
     */
    ReciprocalCache(unsigned entries, unsigned ways);

    /**
     * Look up the divisor.
     *
     * @param b_bits raw bits of the divisor
     * @return the cached reciprocal bits on a hit
     */
    std::optional<uint64_t> lookup(uint64_t b_bits);

    /** Install a freshly computed reciprocal for divisor @p b_bits. */
    void update(uint64_t b_bits, uint64_t recip_bits);

    void reset(); //!< Invalidate all entries and zero the statistics.

    const MemoStats &stats() const { return stats_; } //!< Access counters.

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t divisor = 0;
        uint64_t recip = 0;
        uint64_t tick = 0;
    };

    unsigned ways;
    unsigned indexBits;
    std::vector<Entry> entries;
    MemoStats stats_;
    uint64_t tick = 0;
};

} // namespace memo

#endif // MEMO_CORE_RECIP_CACHE_HH
