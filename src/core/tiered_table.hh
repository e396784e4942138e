/**
 * @file
 * A two-level MEMO-TABLE hierarchy (extension).
 *
 * Figure 3 shows hit ratios keep growing well past 32 entries, but
 * section 2.4's single-cycle-lookup argument only holds for small
 * arrays (see sim/cost.hh). A tiered design resolves the tension the
 * same way caches do: a small first-level table answers in one cycle,
 * and a larger second-level table catches its misses at a higher
 * (but still sub-divider) latency. On an L2 hit the entry is promoted
 * into L1 (with the L1 victim demoted), so the hot working set
 * migrates to the fast level.
 */

#ifndef MEMO_CORE_TIERED_TABLE_HH
#define MEMO_CORE_TIERED_TABLE_HH

#include "core/memo_table.hh"

namespace memo
{

/** Outcome of a tiered lookup. */
struct TieredHit
{
    uint64_t resultBits; //!< memoized result
    unsigned level;      //!< 1 or 2: which table answered
};

/** A small fast table backed by a larger slower one. */
class TieredMemoTable
{
  public:
    /**
     * @param op operation memoized
     * @param l1_cfg first-level geometry (small; 1-cycle lookups)
     * @param l2_cfg second-level geometry (large)
     */
    TieredMemoTable(Operation op, const MemoConfig &l1_cfg,
                    const MemoConfig &l2_cfg);

    /**
     * Look up both levels (L1 first). On an L2 hit the pair is
     * promoted into L1.
     */
    std::optional<TieredHit> lookup(uint64_t a_bits,
                                    uint64_t b_bits = 0);

    /** Install a computed result in both levels. */
    void update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits);

    void reset(); //!< Invalidate both levels and zero the statistics.

    const MemoStats &l1Stats() const { return l1.stats(); } //!< L1 counters.
    const MemoStats &l2Stats() const { return l2.stats(); } //!< L2 counters.
    uint64_t promotions() const { return promoted; } //!< L2-to-L1 promotions.

    /**
     * Combined hit ratio: fraction of L1 lookups answered by either
     * level.
     */
    double
    hitRatio() const
    {
        uint64_t lookups = l1.stats().lookups;
        if (!lookups)
            return 0.0;
        return static_cast<double>(l1.stats().allHits() +
                                   l2.stats().hits) /
               static_cast<double>(lookups);
    }

  private:
    MemoTable l1;
    MemoTable l2;
    uint64_t promoted = 0;
};

} // namespace memo

#endif // MEMO_CORE_TIERED_TABLE_HH
