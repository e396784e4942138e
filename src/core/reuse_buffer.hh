/**
 * @file
 * A Sodani/Sohi-style Reuse Buffer (ISCA'97), implemented as a baseline
 * the paper contrasts itself with (section 1.1).
 *
 * The Reuse Buffer is indexed by the *address* (PC) of the instruction:
 * all executed instructions are inserted, and a fetch whose PC and
 * current operand values match a buffered entry skips execution. The
 * paper's MEMO-TABLE differs in two ways it calls out explicitly: it
 * records only multi-cycle instruction types (so single-cycle traffic
 * cannot bump long-latency entries), and it ignores the PC (so unrolled
 * loop bodies share entries). bench_ext_baselines quantifies both
 * effects.
 */

#ifndef MEMO_CORE_REUSE_BUFFER_HH
#define MEMO_CORE_REUSE_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/stats.hh"

namespace memo
{

/** PC-indexed instruction reuse buffer. */
class ReuseBuffer
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param ways set associativity (power of two)
     */
    ReuseBuffer(unsigned entries, unsigned ways);

    /**
     * Look up an instruction instance.
     *
     * @param pc instruction address
     * @param a_bits current first operand
     * @param b_bits current second operand
     * @return memoized result bits when PC and operands match
     */
    std::optional<uint64_t> lookup(uint64_t pc, uint64_t a_bits,
                                   uint64_t b_bits);

    /** Install the outcome of an executed instruction. */
    void update(uint64_t pc, uint64_t a_bits, uint64_t b_bits,
                uint64_t result_bits);

    void reset(); //!< Invalidate all entries and zero the statistics.

    const MemoStats &stats() const { return stats_; } //!< Access counters.

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t pc = 0;
        uint64_t a = 0;
        uint64_t b = 0;
        uint64_t value = 0;
        uint64_t tick = 0;
    };

    Entry *find(uint64_t pc, uint64_t a_bits, uint64_t b_bits);

    unsigned ways;
    unsigned indexBits;
    std::vector<Entry> entries;
    MemoStats stats_;
    uint64_t tick = 0;
};

} // namespace memo

#endif // MEMO_CORE_REUSE_BUFFER_HH
