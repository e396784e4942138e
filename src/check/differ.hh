/**
 * @file
 * Differential comparison of real MEMO-TABLE variants against the
 * exact oracle (oracle.hh).
 *
 * Each checker owns one real table and one OracleTable, feeds both the
 * same access stream, and verifies after every access:
 *
 *  1. transparency — a real hit returns bit-identical results to the
 *     computation it aborts (the driver supplies the true result);
 *  2. containment — real hits are a subset of oracle hits: the finite
 *     table may forget (capacity/conflict/port misses are legal) but
 *     may never "know" a pair the unbounded same-semantics model never
 *     hit (that is a tag-comparison or aliasing bug);
 *  3. equivalence — an infinite-mode real table must agree with the
 *     oracle on every hit/miss decision;
 *  4. conservation — allHits() + misses == lookups at every step.
 *
 * step() returns a description of the first violated invariant, or
 * nullopt. The checkers are deterministic: replaying the same stream
 * reproduces the same verdicts, which the fuzzer's shrinker relies on.
 */

#ifndef MEMO_CHECK_DIFFER_HH
#define MEMO_CHECK_DIFFER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "check/oracle.hh"
#include "core/memo_table.hh"
#include "core/recip_cache.hh"
#include "core/reuse_buffer.hh"
#include "core/shared_table.hh"
#include "core/tiered_table.hh"
#include "sim/cpu.hh"

namespace memo::check
{

/** Sanity of one stats block: allHits + misses == lookups. */
std::optional<std::string> statsConserved(const MemoStats &s,
                                          const char *who);

/**
 * The first field where two CPU-model results disagree, or nullopt:
 * totalCycles, annulCycles, per-class count, cycles, memoSaved and
 * occupancy, the table statistics and the cache statistics, all
 * compared as exact integers (the closed-form differential's check,
 * CpuModel::evaluate against CpuModel::run).
 */
std::optional<std::string> simResultsDiffer(const SimResult &want,
                                            const SimResult &got);

/** MemoTable (any MemoConfig, including infinite) vs the oracle. */
class MemoTableChecker
{
  public:
    /**
     * @param inject_tag_bug mutation hook for the self-test: the real
     *        table sees operand A with its top 16 bits forced to zero
     *        (a broken tag comparator), the oracle sees the true
     *        operand. A correct harness MUST flag this configuration;
     *        see fuzz.hh mutationSelfTest and docs/TESTING.md.
     */
    MemoTableChecker(Operation op, const MemoConfig &cfg,
                     bool inject_tag_bug = false);

    /**
     * Present one access to both models and verify the invariants.
     *
     * @param true_result the bit pattern the computation unit produces
     *        for these operands
     * @return the first violated invariant, or nullopt
     */
    std::optional<std::string> step(uint64_t a_bits, uint64_t b_bits,
                                    uint64_t true_result);

    const MemoTable &real() const { return table; }
    const OracleTable &oracle() const { return shadow; }

  private:
    MemoTable table;
    OracleTable shadow;
    bool injectTagBug;
    uint64_t steps = 0;
};

/** SharedMemoTable (port conflicts force misses) vs the oracle. */
class SharedTableChecker
{
  public:
    SharedTableChecker(Operation op, const MemoConfig &cfg,
                       unsigned ports);

    /** One access issued by @p cu_id in cycle @p cycle. */
    std::optional<std::string> step(unsigned cu_id, uint64_t cycle,
                                    uint64_t a_bits, uint64_t b_bits,
                                    uint64_t true_result);

    const SharedMemoTable &real() const { return table; }

  private:
    SharedMemoTable table;
    OracleTable shadow;
    uint64_t steps = 0;
};

/** TieredMemoTable (L1 + L2, promotion on L2 hits) vs the oracle. */
class TieredTableChecker
{
  public:
    TieredTableChecker(Operation op, const MemoConfig &l1_cfg,
                       const MemoConfig &l2_cfg);

    std::optional<std::string> step(uint64_t a_bits, uint64_t b_bits,
                                    uint64_t true_result);

    const TieredMemoTable &real() const { return table; }

  private:
    TieredMemoTable table;
    OracleTable shadow;
    uint64_t steps = 0;
};

/**
 * ReuseBuffer vs an inline unbounded (pc, a, b) -> result oracle; the
 * PC is part of the identity, so the generic OracleTable does not
 * apply.
 */
class ReuseBufferChecker
{
  public:
    ReuseBufferChecker(unsigned entries, unsigned ways);

    std::optional<std::string> step(uint64_t pc, uint64_t a_bits,
                                    uint64_t b_bits,
                                    uint64_t true_result);

    const ReuseBuffer &real() const { return buffer; }

  private:
    struct Key
    {
        uint64_t pc, a, b;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            uint64_t h = (k.pc + 0x9e3779b97f4a7c15ULL) *
                         0xff51afd7ed558ccdULL;
            h ^= h >> 33;
            h += k.a * 0xc4ceb9fe1a85ec53ULL;
            h ^= h >> 29;
            h += k.b * 0x9e3779b97f4a7c15ULL;
            return static_cast<size_t>(h ^ (h >> 32));
        }
    };

    ReuseBuffer buffer;
    std::unordered_map<Key, uint64_t, KeyHash> shadow;
    uint64_t steps = 0;
};

/** ReciprocalCache vs an inline unbounded divisor -> 1/b oracle. */
class RecipCacheChecker
{
  public:
    RecipCacheChecker(unsigned entries, unsigned ways);

    /** One division by divisor @p b_bits; the driver computes 1/b. */
    std::optional<std::string> step(uint64_t b_bits,
                                    uint64_t true_recip_bits);

    const ReciprocalCache &real() const { return cache; }

  private:
    ReciprocalCache cache;
    std::unordered_map<uint64_t, uint64_t> shadow;
    uint64_t steps = 0;
};

} // namespace memo::check

#endif // MEMO_CHECK_DIFFER_HH
