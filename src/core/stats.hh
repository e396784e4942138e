/**
 * @file
 * MEMO-TABLE access statistics.
 */

#ifndef MEMO_CORE_STATS_HH
#define MEMO_CORE_STATS_HH

#include <cstdint>

namespace memo
{

/**
 * Counters collected by a MemoTable.
 *
 * "lookups" counts accesses that consulted the table (in NonTrivialOnly
 * mode trivial operations never reach the table and are counted in
 * trivialBypassed instead; in Integrated mode they are lookups that
 * produce trivialHits).
 */
struct MemoStats
{
    uint64_t lookups = 0;        //!< accesses that consulted the table
    uint64_t hits = 0;           //!< tag-match hits (excludes trivial)
    uint64_t trivialHits = 0;    //!< Integrated-mode trivial detections
    uint64_t misses = 0;         //!< failed lookups
    uint64_t insertions = 0;     //!< entries written on the miss path
    uint64_t evictions = 0;      //!< valid entries overwritten
    uint64_t trivialBypassed = 0; //!< trivial ops filtered before lookup
    uint64_t parityMisses = 0;   //!< hits rejected by parity (soft errors)

    /** Total hits including integrated trivial detections. */
    uint64_t allHits() const { return hits + trivialHits; }

    /** Hit ratio over table lookups (the paper's "hit ratio"). */
    double
    hitRatio() const
    {
        return lookups ? static_cast<double>(allHits()) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    /** Fraction of all presented operations that were trivial. */
    double
    trivialFraction() const
    {
        uint64_t total = lookups + trivialBypassed;
        uint64_t triv = trivialHits + trivialBypassed;
        return total ? static_cast<double>(triv) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Merge counters from another table (e.g. across runs). */
    void
    merge(const MemoStats &o)
    {
        lookups += o.lookups;
        hits += o.hits;
        trivialHits += o.trivialHits;
        misses += o.misses;
        insertions += o.insertions;
        evictions += o.evictions;
        trivialBypassed += o.trivialBypassed;
        parityMisses += o.parityMisses;
    }

    void reset() { *this = MemoStats{}; } //!< Zero all counters.

    bool operator==(const MemoStats &) const = default; //!< All equal.
};

} // namespace memo

#endif // MEMO_CORE_STATS_HH
