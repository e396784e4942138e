/**
 * @file
 * The bit-exact state-machine oracle: a deliberately naive finite
 * MEMO-TABLE written from the paper's section 2 semantics.
 *
 * ReferenceMemoTable performs one access the plain way: lookup()
 * consults the trivial detector, the tags and one set of ways, and
 * update() re-derives all of it before installing the result. Its
 * state is its own — a vector of ways per set (or an ordered map for
 * the infinite table), LRU/FIFO ticks, the xorshift draw on a full
 * set, parity and counters. It shares with MemoTable only the
 * per-operand helpers of core/operand.hh (trivial detectors, tags,
 * payload/reconstruct, set index). A differential against it
 * therefore checks MemoTable's probe kernel, whatever its block
 * size: statistics, entry states, LRU ticks and replacement draws
 * must agree access for access.
 *
 * It complements OracleTable (oracle.hh), which is unbounded and so
 * cannot check capacity, conflicts or replacement.
 */

#ifndef MEMO_CHECK_REFERENCE_HH
#define MEMO_CHECK_REFERENCE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/op.hh"
#include "core/stats.hh"

namespace memo::check
{

/** Naive reference model of one finite or infinite MEMO-TABLE. */
class ReferenceMemoTable
{
  public:
    /**
     * @param op the operation modeled
     * @param cfg geometry and policy, as for MemoTable
     * @param drop_lru_refresh test-only mutation: LRU hits no longer
     *        refresh the entry's tick, which the memo-fuzz mutation
     *        self-test requires the kernel differential to catch
     */
    ReferenceMemoTable(Operation op, const MemoConfig &cfg,
                       bool drop_lru_refresh = false);

    /** Present operands; the semantics of MemoTable::lookup. */
    std::optional<uint64_t> lookup(uint64_t a_bits, uint64_t b_bits = 0);

    /** Install a computed result; the semantics of MemoTable::update. */
    void update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits);

    /** Flip one stored value bit; as MemoTable::injectBitFlip. */
    bool injectBitFlip(unsigned set, unsigned way, unsigned bit);

    const MemoStats &stats() const { return stats_; } //!< Counters.

    /** Number of currently valid entries. */
    unsigned validEntries() const;

  private:
    struct Way
    {
        bool valid = false;
        bool parity = false;
        uint64_t tagA = 0;
        uint64_t tagB = 0;
        uint64_t value = 0;
        int8_t delta = 0;
        uint64_t tick = 0;
    };

    /** Where an access lives: its tags, its set and its way, if any. */
    struct Slot
    {
        uint64_t tagA;
        uint64_t tagB;
        std::vector<Way> *set; //!< nullptr for the infinite table
        Way *way;              //!< the valid way holding the tags
    };

    /** Tags (canonical order when infinite), set and matching way. */
    Slot locate(uint64_t a_bits, uint64_t b_bits);

    Operation op;
    MemoConfig cfg;
    bool mantissa;
    bool dropLruRefresh;
    std::vector<std::vector<Way>> sets;
    std::map<std::pair<uint64_t, uint64_t>, Way> unbounded;
    MemoStats stats_;
    uint64_t tick = 0;
    uint64_t rng = 0x2545f4914f6cdd1dULL;
};

} // namespace memo::check

#endif // MEMO_CHECK_REFERENCE_HH
