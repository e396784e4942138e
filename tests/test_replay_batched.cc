/**
 * @file
 * Differential harness for the MEMO-TABLE probe kernel: replayMemo()
 * (blocked columnar passes + MemoTable::probeBlock), the
 * single-access lookup()/update() calls of replayMemoReference(), and
 * direct probeBlock() calls at block sizes from 1 to 4096 must be
 * bit-exact against check::ReferenceMemoTable, the independent naive
 * table — same statistics, same entry states, same subsequent
 * behaviour, same response to soft-error bit flips — for every table
 * mode, every Khoros kernel trace, odd trace lengths around the block
 * size, and adversarial FP operands. A recording TableHooks pins the
 * event stream: probeBlock() at any block size emits exactly the
 * (op, kind, set, stamp) sequence of per-access calls, and the
 * per-kind counts equal the statistics. The single-access halves are
 * also pinned out of pair, as the shared and tiered tables call them:
 * installs with no lookup, lookups with no install, port conflicts
 * and L2-to-L1 promotions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "check/fuzz.hh"
#include "check/reference.hh"
#include "core/bank.hh"
#include "core/shared_table.hh"
#include "core/tiered_table.hh"
#include "img/generate.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

void
expectStatsEq(const MemoStats &a, const MemoStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.lookups, b.lookups) << what << ": lookups";
    EXPECT_EQ(a.hits, b.hits) << what << ": hits";
    EXPECT_EQ(a.trivialHits, b.trivialHits) << what << ": trivialHits";
    EXPECT_EQ(a.misses, b.misses) << what << ": misses";
    EXPECT_EQ(a.insertions, b.insertions) << what << ": insertions";
    EXPECT_EQ(a.evictions, b.evictions) << what << ": evictions";
    EXPECT_EQ(a.trivialBypassed, b.trivialBypassed)
        << what << ": trivialBypassed";
    EXPECT_EQ(a.parityMisses, b.parityMisses)
        << what << ": parityMisses";
}

/** One ReferenceMemoTable per unit of MemoBank::standard(). */
std::map<Operation, check::ReferenceMemoTable>
referenceBank(const MemoConfig &cfg)
{
    std::map<Operation, check::ReferenceMemoTable> refs;
    for (Operation op :
         {Operation::IntMul, Operation::FpMul, Operation::FpDiv})
        refs.try_emplace(op, op, cfg);
    return refs;
}

/** Replay @p trace through the reference tables, in trace order. */
void
referenceReplay(const Trace &trace,
                std::map<Operation, check::ReferenceMemoTable> &refs)
{
    for (const Instruction &inst : trace) {
        auto op = memoOperation(inst.cls);
        if (!op)
            continue;
        auto it = refs.find(*op);
        if (it == refs.end())
            continue;
        if (!it->second.lookup(inst.a, inst.b))
            it->second.update(inst.a, inst.b, inst.result);
    }
}

/**
 * Replay @p trace twice through the batched path, the single-access
 * path and the reference on identically configured tables, requiring
 * equal statistics and entry counts after each pass; the second pass
 * runs on the state the first left behind, so a divergence in
 * *stored state* (not just counters) shows up as diverging counts.
 */
void
expectReplayEquivalent(const Trace &trace, const MemoConfig &cfg,
                       const std::string &what)
{
    MemoBank batched = MemoBank::standard(cfg);
    MemoBank scalar = MemoBank::standard(cfg);
    auto refs = referenceBank(cfg);
    for (int pass = 1; pass <= 2; pass++) {
        replayMemo(trace, batched);
        replayMemoReference(trace, scalar);
        referenceReplay(trace, refs);
        for (const auto &[op, ref] : refs) {
            std::string w = what + " pass" + std::to_string(pass) +
                            " " + std::string(operationName(op));
            expectStatsEq(batched.table(op)->stats(), ref.stats(),
                          w + " batched");
            expectStatsEq(scalar.table(op)->stats(), ref.stats(),
                          w + " scalar");
            EXPECT_EQ(batched.table(op)->validEntries(),
                      ref.validEntries())
                << w << ": batched validEntries";
            EXPECT_EQ(scalar.table(op)->validEntries(),
                      ref.validEntries())
                << w << ": scalar validEntries";
        }
    }
}

/** The table-mode matrix the differential runs under. */
std::vector<std::pair<std::string, MemoConfig>>
configMatrix()
{
    std::vector<std::pair<std::string, MemoConfig>> cfgs;
    MemoConfig base; // 32x4 LRU FullValue NonTrivialOnly
    cfgs.emplace_back("default", base);

    MemoConfig one = base;
    one.entries = 1;
    one.ways = 1;
    cfgs.emplace_back("1x1", one);

    MemoConfig mant = base;
    mant.tagMode = TagMode::MantissaOnly;
    cfgs.emplace_back("mantissa", mant);

    MemoConfig cache_all = base;
    cache_all.trivialMode = TrivialMode::CacheAll;
    cfgs.emplace_back("cache-all", cache_all);

    MemoConfig integrated = base;
    integrated.trivialMode = TrivialMode::Integrated;
    integrated.extendedTrivial = true;
    cfgs.emplace_back("integrated-ext", integrated);

    MemoConfig rnd = base;
    rnd.replacement = Replacement::Random;
    cfgs.emplace_back("random-repl", rnd);

    MemoConfig fifo = base;
    fifo.replacement = Replacement::Fifo;
    fifo.parityProtected = true;
    cfgs.emplace_back("fifo-parity", fifo);

    MemoConfig lru_parity = base;
    lru_parity.entries = 8;
    lru_parity.ways = 2;
    lru_parity.parityProtected = true;
    cfgs.emplace_back("lru-parity", lru_parity);

    MemoConfig rnd_mant = mant;
    rnd_mant.replacement = Replacement::Random;
    rnd_mant.entries = 16;
    cfgs.emplace_back("random-mantissa", rnd_mant);

    MemoConfig inf = base;
    inf.infinite = true;
    cfgs.emplace_back("infinite", inf);

    MemoConfig inf_mant = mant;
    inf_mant.infinite = true;
    cfgs.emplace_back("infinite-mantissa", inf_mant);

    MemoConfig add = base;
    add.hashScheme = HashScheme::PaperXor;
    cfgs.emplace_back("paper-xor", add);
    return cfgs;
}

/** Adversarial double bits: edge values plus heavy pooled reuse. */
uint64_t
edgeDoubleBits(check::FuzzRng &rng, std::vector<uint64_t> &pool)
{
    if (!pool.empty() && rng.chance(2, 5))
        return pool[rng.below(pool.size())];
    uint64_t v;
    switch (rng.below(8)) {
      case 0: { // signed zeros / trivial constants
        static constexpr double k[] = {0.0, -0.0, 1.0, -1.0,
                                       2.0, -2.0, 0.5, 4.0};
        v = fpBits(k[rng.below(8)]);
        break;
      }
      case 1: // NaN with payload (quiet and signalling)
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            (0x7ffULL << 52) | ((rng.next() & ((1ULL << 52) - 1)) | 1);
        break;
      case 2: // infinities
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            (0x7ffULL << 52);
        break;
      case 3: // denormals
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            ((rng.next() & ((1ULL << 52) - 1)) | 1);
        break;
      case 4: { // extreme exponents (mantissa-mode delta limits)
        uint64_t e = rng.chance(1, 2) ? 1 + rng.below(40)
                                      : 2006 + rng.below(40);
        v = (e << 52) | (rng.next() & ((1ULL << 52) - 1));
        break;
      }
      case 5: // small integers (kernel bread and butter)
        v = fpBits(static_cast<double>(rng.below(64)));
        break;
      default: { // mid-range normals
        uint64_t e = 512 + rng.below(1024);
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) | (e << 52) |
            (rng.next() & ((1ULL << 52) - 1));
        break;
      }
    }
    if (pool.size() < 48)
        pool.push_back(v);
    return v;
}

/**
 * A synthetic trace with exactly @p ops memoizable records (plus
 * interleaved non-memoizable noise), drawn from the edge-value
 * generator.
 */
Trace
syntheticTrace(size_t ops, uint64_t seed)
{
    static constexpr InstClass memo_classes[] = {
        InstClass::IntMul, InstClass::FpMul, InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpDiv, InstClass::FpSqrt,
        InstClass::FpLog,  InstClass::FpSin, InstClass::FpCos,
        InstClass::FpExp};
    check::FuzzRng rng(seed);
    std::vector<uint64_t> pool_a, pool_b;
    Trace trace;
    for (size_t i = 0; i < ops; i++) {
        // Interleave non-operand noise so the operand columns and the
        // record index diverge, as in real traces.
        if (rng.chance(1, 3)) {
            Instruction noise;
            noise.cls = rng.chance(1, 2) ? InstClass::IntAlu
                                         : InstClass::Branch;
            trace.push(noise);
        }
        Instruction inst;
        inst.cls = memo_classes[rng.below(std::size(memo_classes))];
        auto op = memoOperation(inst.cls);
        if (inst.cls == InstClass::IntMul) {
            inst.a = rng.below(1 << 12);
            inst.b = rng.chance(1, 4) ? inst.a : rng.below(1 << 12);
        } else {
            inst.a = edgeDoubleBits(rng, pool_a);
            inst.b = isUnary(*op)
                         ? 0
                         : edgeDoubleBits(rng, rng.chance(1, 3)
                                                   ? pool_a
                                                   : pool_b);
        }
        inst.result = check::computeResult(*op, inst.a, inst.b);
        trace.push(inst);
    }
    return trace;
}

TEST(ReplayBatched, MatchesReferenceOnAllKernelTraces)
{
    // All Khoros kernels, one representative image, every table mode.
    const auto &named = standardImages().front();
    auto cfgs = configMatrix();
    for (const MmKernel &k : mmKernels()) {
        auto trace = cachedMmKernelTrace(k, named, 48);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(*trace, cfg,
                                   k.name + "/" + cname);
        }
    }
}

TEST(ReplayBatched, MatchesReferenceAtBlockBoundaries)
{
    const std::array<size_t, 5> lens = {
        0, 1, kReplayBlock - 1, kReplayBlock, kReplayBlock + 1};
    auto cfgs = configMatrix();
    uint64_t seed = 7;
    for (size_t len : lens) {
        Trace trace = syntheticTrace(len, seed++);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(trace, cfg,
                                   "len" + std::to_string(len) + "/" +
                                       cname);
        }
    }
}

TEST(ReplayBatched, MatchesReferenceOnEdgeOperandStreams)
{
    // Longer adversarial streams: several seeds, two block's worth of
    // NaN/denormal/signed-zero-rich operands.
    auto cfgs = configMatrix();
    for (uint64_t seed = 100; seed < 104; seed++) {
        Trace trace = syntheticTrace(2 * kReplayBlock + 17, seed);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(trace, cfg,
                                   "seed" + std::to_string(seed) +
                                       "/" + cname);
        }
    }
}

TEST(ReplayBatched, EmptyAndTablelessBanksAreNoOps)
{
    Trace trace = syntheticTrace(64, 3);
    MemoBank empty_batched, empty_scalar; // no tables attached
    replayMemo(trace, empty_batched);
    replayMemoReference(trace, empty_scalar);
    for (Operation op :
         {Operation::IntMul, Operation::FpMul, Operation::FpDiv,
          Operation::FpSqrt, Operation::FpLog, Operation::FpSin,
          Operation::FpCos, Operation::FpExp}) {
        EXPECT_EQ(empty_batched.table(op), nullptr);
        EXPECT_EQ(empty_scalar.table(op), nullptr);
    }

    Trace none; // empty trace
    MemoBank bank = MemoBank::standard(MemoConfig{});
    replayMemo(none, bank);
    EXPECT_EQ(bank.table(Operation::FpMul)->stats().lookups, 0u);
}

/** One table's access stream: operands and unit results. */
struct OpStream
{
    std::vector<uint64_t> a, b, r;
};

OpStream
opStream(Operation op, size_t n, uint64_t seed)
{
    check::FuzzRng rng(seed);
    std::vector<uint64_t> pool_a, pool_b;
    OpStream s;
    for (size_t i = 0; i < n; i++) {
        uint64_t a, b;
        if (op == Operation::IntMul) {
            a = rng.below(1 << 8);
            b = rng.chance(1, 4) ? a : rng.below(1 << 8);
        } else {
            a = edgeDoubleBits(rng, pool_a);
            b = isUnary(op) ? 0
                            : edgeDoubleBits(rng, rng.chance(1, 3)
                                                      ? pool_a
                                                      : pool_b);
        }
        s.a.push_back(a);
        s.b.push_back(b);
        s.r.push_back(check::computeResult(op, a, b));
    }
    return s;
}

/**
 * Flip one stored bit in the same (set, way) of two tables — a soft
 * error both must respond to identically. Requires the entry's
 * validity to agree. @return whether an entry was hit.
 */
template <typename A, typename B>
bool
flipBoth(A &x, B &y, const MemoConfig &cfg, check::FuzzRng &rng)
{
    auto set = static_cast<unsigned>(rng.below(cfg.sets()));
    auto way = static_cast<unsigned>(rng.below(cfg.ways));
    auto bit = static_cast<unsigned>(rng.below(64));
    bool hit = x.injectBitFlip(set, way, bit);
    EXPECT_EQ(hit, y.injectBitFlip(set, way, bit))
        << "entry validity diverges at set " << set << " way " << way;
    return hit;
}

constexpr Operation stream_ops[] = {
    Operation::IntMul, Operation::FpMul, Operation::FpDiv,
    Operation::FpSqrt, Operation::FpLog};

TEST(ReplayBatched, ProbeBlockMatchesReferenceAtEveryBlockSize)
{
    const size_t blocks[] = {1, 2, 3, 7, 64, kReplayBlock, 4096};
    uint64_t parity_misses = 0;
    uint64_t seed = 300;
    for (Operation op : stream_ops) {
        OpStream s = opStream(op, 3 * kReplayBlock + 5, seed++);
        const size_t n = s.a.size();
        for (const auto &[cname, cfg] : configMatrix()) {
            for (size_t block : blocks) {
                std::string what = std::string(operationName(op)) +
                                   "/" + cname + "/block" +
                                   std::to_string(block);
                MemoTable kernel(op, cfg);
                check::ReferenceMemoTable ref(op, cfg);
                check::FuzzRng flips(seed * 31 + block);
                for (size_t base = 0; base < n; base += block) {
                    size_t m = std::min(block, n - base);
                    kernel.probeBlock(s.a.data() + base,
                                      s.b.data() + base,
                                      s.r.data() + base, m);
                    for (size_t i = base; i < base + m; i++)
                        if (!ref.lookup(s.a[i], s.b[i]))
                            ref.update(s.a[i], s.b[i], s.r[i]);
                    if (!cfg.infinite && flips.chance(1, 4))
                        flipBoth(kernel, ref, cfg, flips);
                }
                expectStatsEq(kernel.stats(), ref.stats(), what);
                EXPECT_EQ(kernel.validEntries(), ref.validEntries())
                    << what << ": validEntries";
                parity_misses += ref.stats().parityMisses;
            }
        }
    }
    // The flips must actually have exercised the parity path.
    EXPECT_GT(parity_misses, 0u);
}

/**
 * lookup() and update() are public halves of the kernel because the
 * shared and tiered tables call them out of pair: an install with no
 * lookup before it (a port conflict), a lookup with no install after
 * it (an L2 hit), and an install after another table's lookup (a
 * promotion). Any interleaving must match the reference access for
 * access, returned values included.
 */
TEST(ReplayBatched, SingleAccessHalvesMatchReferenceInAnyOrder)
{
    uint64_t seed = 700;
    for (Operation op : stream_ops) {
        OpStream s = opStream(op, 2 * kReplayBlock + 9, seed++);
        for (const auto &[cname, cfg] : configMatrix()) {
            std::string what =
                std::string(operationName(op)) + "/" + cname;
            MemoTable kernel(op, cfg);
            check::ReferenceMemoTable ref(op, cfg);
            check::FuzzRng order(seed * 17);
            uint64_t bare_updates = 0, bare_lookups = 0;
            for (size_t i = 0; i < s.a.size(); i++) {
                switch (order.below(4)) {
                case 0: // install without a lookup
                    kernel.update(s.a[i], s.b[i], s.r[i]);
                    ref.update(s.a[i], s.b[i], s.r[i]);
                    bare_updates++;
                    break;
                case 1: { // lookup without an install
                    auto got = kernel.lookup(s.a[i], s.b[i]);
                    ASSERT_EQ(got, ref.lookup(s.a[i], s.b[i]))
                        << what << " access " << i;
                    bare_lookups++;
                    break;
                }
                default: { // the paired access
                    auto got = kernel.lookup(s.a[i], s.b[i]);
                    ASSERT_EQ(got, ref.lookup(s.a[i], s.b[i]))
                        << what << " access " << i;
                    if (!got) {
                        kernel.update(s.a[i], s.b[i], s.r[i]);
                        ref.update(s.a[i], s.b[i], s.r[i]);
                    }
                    break;
                }
                }
            }
            expectStatsEq(kernel.stats(), ref.stats(), what);
            EXPECT_EQ(kernel.validEntries(), ref.validEntries())
                << what << ": validEntries";
            EXPECT_GT(bare_updates, 0u) << what;
            EXPECT_GT(bare_lookups, 0u) << what;
        }
    }
}

/**
 * SharedMemoTable rejects the lookups beyond its ports each cycle and
 * then installs the result regardless; its inner table must track a
 * reference driven by the same call pattern.
 */
TEST(ReplayBatched, SharedTableMatchesReferenceUnderPortConflicts)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{257}, size_t{1031}}) {
        // Accesses drawn from a small pool of operand pairs, so that
        // hits, and so the LRU order among them, matter.
        OpStream pool = opStream(Operation::FpMul, 24, 11 + n);
        check::FuzzRng sched(23 + n);
        MemoConfig cfg;
        cfg.entries = 8;
        cfg.ways = 2;
        SharedMemoTable shared(Operation::FpMul, cfg, 2);
        check::ReferenceMemoTable ref(Operation::FpMul, cfg);
        uint64_t cycle = 0;
        for (size_t i = 0; i < n; i++) {
            auto cu = static_cast<unsigned>(sched.below(3));
            cycle += sched.chance(1, 3) ? 0 : 1;
            size_t k = sched.below(pool.a.size());
            uint64_t a = pool.a[k], b = pool.b[k], r = pool.r[k];
            uint64_t conflicts = shared.portConflicts();
            auto got = shared.lookup(cu, cycle, a, b);
            if (shared.portConflicts() == conflicts) {
                ASSERT_EQ(got, ref.lookup(a, b))
                    << "n=" << n << " access " << i;
            }
            if (!got) {
                shared.update(cu, a, b, r);
                ref.update(a, b, r);
            }
        }
        expectStatsEq(shared.stats(), ref.stats(),
                      "shared n=" + std::to_string(n));
        EXPECT_LE(shared.crossUnitHits(), shared.stats().hits);
        if (n > 100) {
            EXPECT_GT(shared.portConflicts(), 0u) << "n=" << n;
            EXPECT_GT(shared.crossUnitHits(), 0u) << "n=" << n;
        }
    }
}

/**
 * TieredMemoTable promotes L2 hits into L1 and installs misses in
 * both levels; each level must track its own reference.
 */
TEST(ReplayBatched, TieredTableMatchesTwoReferenceLevels)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{257}, size_t{1031}}) {
        // A pool larger than L1 and about the size of L2, so that
        // L2 hits and promotions happen.
        OpStream pool = opStream(Operation::FpDiv, 20, 23 + n);
        check::FuzzRng sched(29 + n);
        MemoConfig l1;
        l1.entries = 4;
        l1.ways = 2;
        MemoConfig l2;
        l2.entries = 16;
        l2.ways = 4;
        TieredMemoTable tiered(Operation::FpDiv, l1, l2);
        check::ReferenceMemoTable ref1(Operation::FpDiv, l1);
        check::ReferenceMemoTable ref2(Operation::FpDiv, l2);
        uint64_t promotions = 0;
        for (size_t i = 0; i < n; i++) {
            size_t k = sched.below(pool.a.size());
            uint64_t a = pool.a[k], b = pool.b[k], r = pool.r[k];
            auto got = tiered.lookup(a, b);
            std::optional<uint64_t> want;
            unsigned level = 0;
            if ((want = ref1.lookup(a, b))) {
                level = 1;
            } else if ((want = ref2.lookup(a, b))) {
                ref1.update(a, b, *want);
                promotions++;
                level = 2;
            }
            ASSERT_EQ(got.has_value(), want.has_value())
                << "n=" << n << " access " << i;
            if (got) {
                EXPECT_EQ(got->resultBits, *want);
                EXPECT_EQ(got->level, level);
                continue;
            }
            tiered.update(a, b, r);
            ref1.update(a, b, r);
            ref2.update(a, b, r);
        }
        expectStatsEq(tiered.l1Stats(), ref1.stats(),
                      "tiered L1 n=" + std::to_string(n));
        expectStatsEq(tiered.l2Stats(), ref2.stats(),
                      "tiered L2 n=" + std::to_string(n));
        EXPECT_EQ(tiered.promotions(), promotions);
        if (n > 100) {
            EXPECT_GT(promotions, 0u) << "n=" << n;
        }
    }
}

/** A TableHooks observer that records every event it is offered. */
struct EventLog : TableHooks
{
    struct Event
    {
        Operation op;
        TableEventKind kind;
        uint32_t set;
        uint64_t stamp;
        bool operator==(const Event &) const = default;
    };

    void
    onTableEvent(Operation op, TableEventKind kind, uint32_t set,
                 uint64_t stamp) override
    {
        events.push_back({op, kind, set, stamp});
    }

    uint64_t
    count(TableEventKind kind) const
    {
        uint64_t n = 0;
        for (const Event &e : events)
            n += e.kind == kind;
        return n;
    }

    std::vector<Event> events;
};

/**
 * Drive @p s through @p table in blocks of @p block (0: per-access
 * lookup/update calls), flipping one bit in each of the first ways
 * at the stream's midpoint so parity-protected tables abort hits.
 */
void
driveHooked(MemoTable &table, const OpStream &s, size_t block)
{
    const size_t n = s.a.size();
    auto run = [&](size_t from, size_t to) {
        if (block == 0) {
            for (size_t i = from; i < to; i++)
                if (!table.lookup(s.a[i], s.b[i]))
                    table.update(s.a[i], s.b[i], s.r[i]);
            return;
        }
        for (size_t base = from; base < to; base += block)
            table.probeBlock(s.a.data() + base, s.b.data() + base,
                             s.r.data() + base,
                             std::min(block, to - base));
    };
    run(0, n / 2);
    const MemoConfig &cfg = table.config();
    if (!cfg.infinite)
        for (unsigned set = 0; set < cfg.sets(); set++)
            table.injectBitFlip(set, 0, (set * 7) % 64);
    run(n / 2, n);
}

TEST(ReplayBatched, HookEventStreamMatchesPerAccessCalls)
{
    uint64_t seed = 500;
    uint64_t parity_aborts = 0;
    for (Operation op : stream_ops) {
        OpStream s = opStream(op, 2 * kReplayBlock + 17, seed++);
        const size_t blocks[] = {1, 3, kReplayBlock, s.a.size() + 1};
        for (const auto &[cname, cfg] : configMatrix()) {
            std::string what =
                std::string(operationName(op)) + "/" + cname;
            MemoTable scalar(op, cfg);
            EventLog want;
            scalar.setHooks(&want);
            driveHooked(scalar, s, 0);

            // Every counter increment is reported exactly once.
            const MemoStats &st = scalar.stats();
            EXPECT_EQ(want.count(TableEventKind::Hit), st.hits) << what;
            EXPECT_EQ(want.count(TableEventKind::Miss),
                      st.misses - st.parityMisses)
                << what;
            EXPECT_EQ(want.count(TableEventKind::ParityAbort),
                      st.parityMisses)
                << what;
            EXPECT_EQ(want.count(TableEventKind::Insert), st.insertions)
                << what;
            EXPECT_EQ(want.count(TableEventKind::Evict), st.evictions)
                << what;
            EXPECT_EQ(want.count(TableEventKind::TrivialHit),
                      st.trivialHits)
                << what;
            EXPECT_EQ(want.count(TableEventKind::TrivialBypass),
                      st.trivialBypassed)
                << what;
            parity_aborts += st.parityMisses;

            for (size_t block : blocks) {
                MemoTable batched(op, cfg);
                EventLog got;
                batched.setHooks(&got);
                driveHooked(batched, s, block);
                EXPECT_TRUE(got.events == want.events)
                    << what << "/block" << block << ": "
                    << got.events.size() << " events vs "
                    << want.events.size();
                expectStatsEq(batched.stats(), st,
                              what + "/block" + std::to_string(block));
            }
        }
    }
    EXPECT_GT(parity_aborts, 0u);
}

} // anonymous namespace
} // namespace memo
