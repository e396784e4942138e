/**
 * @file
 * The MEMO-TABLE: a cache-like lookup table that memoizes the operands
 * and result of multi-cycle arithmetic operations (Citron, Feitelson &
 * Rudolph, ASPLOS'98, section 2).
 *
 * Operands are presented to the table in parallel with the conventional
 * computation unit. A tag hit returns the previously computed result (a
 * single-cycle operation); a miss costs nothing, and the computed result
 * is inserted in parallel with write-back.
 *
 * The table operates on raw 64-bit operand patterns so that one
 * implementation serves integer and floating point units; Operation
 * selects the indexing/tagging scheme:
 *  - integer ops index with the XOR of the low operand bits;
 *  - fp ops index with the XOR of the top mantissa bits;
 *  - commutative ops (both multiplies) compare tags in both operand
 *    orders (section 2.2);
 *  - MantissaOnly tag mode stores only mantissas and reconstructs the
 *    result's sign/exponent, raising hit ratios slightly (Table 10);
 *  - trivial operations are bypassed, cached, or folded into hits
 *    according to TrivialMode (Table 9).
 */

#ifndef MEMO_CORE_MEMO_TABLE_HH
#define MEMO_CORE_MEMO_TABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "core/hooks.hh"
#include "core/op.hh"
#include "core/phase.hh"
#include "core/stats.hh"

namespace memo
{

/** One MEMO-TABLE attached to one class of computation unit. */
class MemoTable
{
  public:
    /**
     * @param operation the operation this table memoizes
     * @param config geometry and policy; validated with assertions
     */
    MemoTable(Operation operation, const MemoConfig &config);

    /**
     * Present operands to the table (the parallel lookup of Figure 1).
     *
     * @param a_bits raw bits of the first operand
     * @param b_bits raw bits of the second operand (ignored for unary ops)
     * @return the raw bits of the memoized result on a hit, nullopt on a
     *         miss or when the operation bypasses the table
     */
    std::optional<uint64_t> lookup(uint64_t a_bits, uint64_t b_bits = 0);

    /**
     * Install a computed result after a miss (performed in parallel with
     * write-back; section 2.2). Trivial or untaggable operations are
     * silently skipped according to the configuration.
     */
    void update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits);

    /**
     * Convenience: lookup, and on a miss invoke @p compute and install
     * its result.
     *
     * @param compute callable giving the raw result bits
     * @param hit optional out-param set to whether the lookup hit
     * @return the operation result (from the table or from compute)
     */
    template <typename Compute>
    uint64_t
    access(uint64_t a_bits, uint64_t b_bits, Compute &&compute,
           bool *hit = nullptr)
    {
        if (auto v = lookup(a_bits, b_bits)) {
            if (hit)
                *hit = true;
            return *v;
        }
        uint64_t r = compute();
        update(a_bits, b_bits, r);
        if (hit)
            *hit = false;
        return r;
    }

    /**
     * Batched replay probe: for each of the @p n accesses, perform
     * lookup(a_bits[i], b_bits[i]) and, on a miss, update() with
     * result_bits[i] — the replay hot loop.
     *
     * lookup(), update() and probeBlock() run one per-access kernel,
     * so probeBlock(n) is exactly n lookup/update pairs: the same
     * statistics, entry states, LRU tick sequence, replacement RNG
     * draws, TableHooks events and phase rows, whatever the block
     * boundaries.
     */
    void probeBlock(const uint64_t *a_bits, const uint64_t *b_bits,
                    const uint64_t *result_bits, size_t n);

    /**
     * Fault-injection hook: flip bit @p bit of the stored value of
     * entry (@p set, @p way). With parityProtected the corruption is
     * detected on the next hit (a parity miss); without it the wrong
     * value is returned silently — the hazard bench_ext_faults
     * quantifies. @return false when the entry is invalid.
     */
    bool injectBitFlip(unsigned set, unsigned way, unsigned bit);

    /** Invalidate all entries and zero the statistics. */
    void reset();

    /** Invalidate all entries but keep the statistics. */
    void flush();

    const MemoStats &stats() const { return stats_; }   //!< Access counters.
    const MemoConfig &config() const { return cfg; }    //!< Geometry/policy.
    Operation operation() const { return op; }          //!< Memoized op class.

    /**
     * Attach (or with nullptr detach) a transaction observer; every
     * hit/miss/insert/evict/trivial/parity event is reported to it.
     * The observer is borrowed, not owned, and must outlive the table
     * or be detached first. The choice is made once per call (per
     * block for probeBlock()): an attached observer runs a
     * compile-time instance of the same kernel that also emits, and a
     * detached one costs nothing per access.
     */
    void setHooks(TableHooks *hooks) { hooks_ = hooks; }

    /** The currently attached observer, or nullptr. */
    TableHooks *hooks() const { return hooks_; }

    /**
     * Attach (or with nullptr detach) a phase accumulator; the
     * table then closes one PhaseWindow row into it per
     * @ref PhaseAccum::window accesses (see core/phase.hh for the
     * boundary rule). The accumulator is borrowed, not owned, and is
     * re-based at the current access stamp on attach. Each call
     * strip-mines its accesses into segments ending at window
     * boundaries, so the per-access path carries no phase
     * bookkeeping; a detached accumulator costs one null test per
     * call.
     */
    void
    setPhaseAccum(PhaseAccum *accum)
    {
        phase_ = accum;
        if (phase_) {
            phase_->flushedThrough = accessStamp();
            phase_->last = stats_;
        }
    }

    /** The currently attached phase accumulator, or nullptr. */
    PhaseAccum *phaseAccum() const { return phase_; }

    /**
     * Close the trailing window into the attached accumulator: first
     * a pending exactly-full window if the stream stopped on a
     * boundary (closure is lazy, at the next access's start), else
     * one partial row covering the accesses since the last close.
     * No-op when detached or when no access has happened since the
     * last close. Call once after replay, before reading rows.
     */
    void finalizePhases();

    /**
     * Monotone access counter (lookups + trivial bypasses so far),
     * used as the event stamp reported to TableHooks.
     */
    uint64_t accessStamp() const
    {
        return stats_.lookups + stats_.trivialBypassed;
    }

    /** Number of currently valid entries (finite tables). */
    unsigned validEntries() const;

  private:
    struct Entry
    {
        uint64_t tagA = 0;
        uint64_t tagB = 0;
        uint64_t value = 0;
        uint64_t tick = 0;  //!< LRU/FIFO ordering
        int8_t delta = 0;   //!< exponent adjustment (MantissaOnly mode)
        bool valid = false;
        bool parity = false; //!< stored parity over tags and value
    };

    /** Key of the infinite (fully associative, unbounded) table. */
    struct InfKey
    {
        uint64_t a;
        uint64_t b;
        bool operator==(const InfKey &) const = default;
    };

    struct InfKeyHash
    {
        size_t
        operator()(const InfKey &k) const
        {
            uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 32;
            h += k.b * 0xc2b2ae3d27d4eb4fULL;
            h ^= h >> 29;
            return static_cast<size_t>(h);
        }
    };

    /**
     * The kernel's per-table invariants, derived once in the
     * constructor (the operation and config never change after it)
     * and copied into locals by every run().
     */
    struct Shape
    {
        Operation op;
        HashScheme hash;
        unsigned ways;
        unsigned indexBits;  //!< log2(sets); 0 when infinite
        bool filterTrivial;  //!< trivial operands are detected
        bool bypassTrivial;  //!< ... and bypass the table
        bool extended;       //!< extended trivial set
        bool mantissa;       //!< mantissa-only tags
        bool unary;
        bool lru;            //!< hits refresh the tick (finite only)
        bool randomVictim;
        bool parity;         //!< hits check parity (finite only)
        bool infinite;
    };

    /** Which halves of one access a kernel instance performs. */
    enum : unsigned
    {
        kProbe = 1,   //!< lookup: decode, tag search, hit or miss
        kInstall = 2, //!< update: payload, rewrite or victim fill
    };

    /**
     * One MEMO-TABLE access (section 2): decode, then the probe and/or
     * install halves selected by @p Halves, counting into @p st and
     * @p t. Emits TableHooks events iff @p Hooked. @return true on a
     * hit (result in @p out).
     */
    template <bool Hooked, unsigned Halves>
    bool kernel(const Shape &k, Entry *ents, MemoStats &st, uint64_t &t,
                uint64_t a, uint64_t b, uint64_t r, uint64_t &out);

    /**
     * Run the kernel over @p n accesses, closing phase windows between
     * segments. A fused block (both halves) holds its counters in
     * locals; single-half calls count in place. @p r may be null
     * without kInstall. @return the last access's result on a hit.
     */
    template <bool Hooked, unsigned Halves>
    std::optional<uint64_t> run(const uint64_t *a, const uint64_t *b,
                                const uint64_t *r, size_t n);

    /**
     * Close the window ending at the current access stamp into the
     * attached accumulator (cold path, once per window). Requires
     * stats_ to be current — run() folds its register-local
     * counters back before calling.
     */
    void phaseFlush();

    Operation op;
    MemoConfig cfg;
    Shape shape_;
    std::vector<Entry> entries; //!< sets * ways, set-major
    std::unordered_map<InfKey, Entry, InfKeyHash> infTable;
    MemoStats stats_;
    TableHooks *hooks_ = nullptr;
    PhaseAccum *phase_ = nullptr;
    uint64_t tick = 0;
    uint64_t rng = 0x2545f4914f6cdd1dULL;
};

} // namespace memo

#endif // MEMO_CORE_MEMO_TABLE_HH
