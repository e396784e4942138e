#include "fuzz.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <ostream>
#include <sstream>
#include <vector>

#include "arith/fp.hh"
#include "check/differ.hh"
#include "check/reference.hh"
#include "core/bank.hh"
#include "core/memo_table.hh"
#include "lint/analyzer.hh"
#include "lint/lexer.hh"
#include "sim/cpu.hh"
#include "trace/chunk_codec.hh"
#include "trace/trace.hh"

namespace memo::check
{

namespace
{

constexpr uint64_t fracMask = (uint64_t{1} << fpMantissaBits) - 1;
constexpr uint64_t signBit = uint64_t{1} << 63;

/** Derive an independent per-case RNG from the campaign seed. */
FuzzRng
caseRng(uint64_t seed, uint64_t case_index)
{
    uint64_t z = seed + case_index * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0x94d049bb133111ebULL;
    return FuzzRng(z ^ (z >> 31));
}

/** Small bounded pool of previously seen values, to force reuse. */
class ValuePool
{
  public:
    bool empty() const { return values.empty(); }

    uint64_t
    pick(FuzzRng &rng) const
    {
        return values[rng.below(values.size())];
    }

    void
    remember(FuzzRng &rng, uint64_t v)
    {
        if (values.size() < 48)
            values.push_back(v);
        else
            values[rng.below(values.size())] = v;
    }

  private:
    std::vector<uint64_t> values;
};

/**
 * An adversarial double, as raw bits: trivial operands, NaN payloads,
 * infinities, denormals, extreme exponents, and mutations of pooled
 * values that alias in tags (top-bit flips), mantissa-mode keys (same
 * fraction, new exponent) or sign.
 */
uint64_t
fuzzDoubleBits(FuzzRng &rng, ValuePool &pool)
{
    if (!pool.empty() && rng.chance(2, 5)) {
        uint64_t v = pool.pick(rng);
        switch (rng.below(4)) {
          case 0:
            return v; // exact reuse: the hit path
          case 1: {
            // High-bit alias: same low 48 bits, different top 16 —
            // bait for broken tag comparators (mutation self-test).
            uint64_t m = (rng.next() | 1) << 48;
            uint64_t w = v ^ m;
            pool.remember(rng, w);
            return w;
          }
          case 2: {
            // Same mantissa, different exponent: collides under
            // mantissa-only tags but must reconstruct correctly.
            uint64_t e = 1 + rng.below(2046);
            uint64_t w = (v & (signBit | fracMask)) | (e << 52);
            pool.remember(rng, w);
            return w;
          }
          default:
            return v ^ signBit; // sign flip
        }
    }

    uint64_t v;
    switch (rng.below(8)) {
      case 0: {
        // Trivial and near-trivial constants.
        static constexpr double k[] = {0.0, -0.0, 1.0, -1.0,
                                       2.0, 0.5,  4.0, -2.0};
        v = fpBits(k[rng.below(8)]);
        break;
      }
      case 1: {
        // NaN with a random (mostly quiet) payload.
        uint64_t payload = rng.next() & fracMask;
        if (rng.chance(7, 8))
            payload |= uint64_t{1} << 51; // quiet bit
        if ((payload & fracMask) == 0)
            payload = uint64_t{1} << 51;
        v = (rng.chance(1, 2) ? signBit : 0) | (0x7ffULL << 52) |
            payload;
        break;
      }
      case 2:
        v = (rng.chance(1, 2) ? signBit : 0) | (0x7ffULL << 52); // ±inf
        break;
      case 3: {
        // Denormal.
        uint64_t frac = rng.next() & fracMask;
        if (frac == 0)
            frac = 1;
        v = (rng.chance(1, 2) ? signBit : 0) | frac;
        break;
      }
      case 4: {
        // Extreme exponents: products/quotients overflow or go
        // subnormal, stressing mantissa-mode reconstruction limits.
        uint64_t e = rng.chance(1, 2) ? 1 + rng.below(60)
                                      : 1986 + rng.below(60);
        v = (rng.chance(1, 2) ? signBit : 0) | (e << 52) |
            (rng.next() & fracMask);
        break;
      }
      case 5:
        // Small integers, the bread and butter of image kernels.
        v = fpBits(static_cast<double>(rng.below(256)) *
                   (rng.chance(1, 4) ? -1.0 : 1.0));
        break;
      default: {
        // Random mid-range normal.
        uint64_t e = 512 + rng.below(1024);
        v = (rng.chance(1, 2) ? signBit : 0) | (e << 52) |
            (rng.next() & fracMask);
        break;
      }
    }
    pool.remember(rng, v);
    return v;
}

/** An adversarial integer operand. */
uint64_t
fuzzIntBits(FuzzRng &rng, ValuePool &pool)
{
    if (!pool.empty() && rng.chance(2, 5)) {
        uint64_t v = pool.pick(rng);
        if (rng.chance(1, 3)) {
            uint64_t w = v ^ ((rng.next() | 1) << 48); // high-bit alias
            pool.remember(rng, w);
            return w;
        }
        return v;
    }

    uint64_t v;
    switch (rng.below(6)) {
      case 0: {
        static constexpr int64_t k[] = {0, 1, -1, 2, -2, 255, 256, -256};
        v = static_cast<uint64_t>(k[rng.below(8)]);
        break;
      }
      case 1:
        v = static_cast<uint64_t>(INT64_MIN) + rng.below(4);
        break;
      case 2:
        v = uint64_t{1} << rng.below(63); // powers of two
        break;
      case 3:
        v = rng.below(1 << 16); // narrow operands (early-out range)
        break;
      default:
        v = rng.next();
        break;
    }
    pool.remember(rng, v);
    return v;
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** One generated table access (aux fields used by some harnesses). */
struct Access
{
    uint64_t a = 0;
    uint64_t b = 0;
    uint32_t aux = 0;  //!< shared: issuing unit; reuse buffer: PC
    uint32_t tick = 0; //!< shared: cycle advance (0 = same cycle)
};

std::vector<Access>
fuzzStream(FuzzRng &rng, Operation op, unsigned len)
{
    ValuePool pool_a, pool_b;
    std::vector<Access> stream;
    stream.reserve(len);
    bool fp = isFloat(op);
    for (unsigned i = 0; i < len; i++) {
        Access ac;
        // Sharing one pool across both operand slots produces squares
        // (a == b) and swapped pairs, the commutative edge cases.
        ValuePool &pb = rng.chance(1, 3) ? pool_a : pool_b;
        ac.a = fp ? fuzzDoubleBits(rng, pool_a)
                  : fuzzIntBits(rng, pool_a);
        if (!isUnary(op))
            ac.b = fp ? fuzzDoubleBits(rng, pb) : fuzzIntBits(rng, pb);
        ac.aux = static_cast<uint32_t>(rng.below(4));
        ac.tick = static_cast<uint32_t>(rng.chance(1, 3) ? 0 : 1);
        stream.push_back(ac);
    }
    return stream;
}

/**
 * Greedy chunk-removal shrink (ddmin-lite): repeatedly drop chunks
 * whose removal keeps the stream failing. The checkers are
 * deterministic, so any candidate replay is exact.
 */
template <typename Fails>
std::vector<Access>
shrinkStream(std::vector<Access> stream, Fails &&fails)
{
    size_t chunk = stream.size() / 2;
    while (chunk > 0) {
        bool removed = false;
        size_t i = 0;
        while (i + chunk <= stream.size() && stream.size() > 1) {
            std::vector<Access> cand;
            cand.reserve(stream.size() - chunk);
            cand.insert(cand.end(), stream.begin(),
                        stream.begin() + static_cast<long>(i));
            cand.insert(cand.end(),
                        stream.begin() + static_cast<long>(i + chunk),
                        stream.end());
            if (fails(cand)) {
                stream = std::move(cand);
                removed = true;
            } else {
                i += chunk;
            }
        }
        if (!removed)
            chunk /= 2;
    }
    return stream;
}

std::string
dumpStream(Operation op, const std::vector<Access> &stream)
{
    std::ostringstream os;
    os << "shrunk to " << stream.size() << " accesses:";
    size_t shown = std::min<size_t>(stream.size(), 16);
    for (size_t i = 0; i < shown; i++) {
        os << "\n    " << operationName(op) << " a=" << hex(stream[i].a)
           << " b=" << hex(stream[i].b);
    }
    if (shown < stream.size())
        os << "\n    ... (" << (stream.size() - shown) << " more)";
    return os.str();
}

/** Replay a stream through a fresh checker; first failure or nullopt. */
template <typename MakeChecker, typename Step>
std::optional<std::string>
replay(const std::vector<Access> &stream, MakeChecker &&make,
       Step &&step)
{
    auto checker = make();
    for (const Access &ac : stream) {
        if (auto e = step(checker, ac))
            return e;
    }
    return std::nullopt;
}

struct CaseSetup
{
    std::string kind;
    Operation op;
    MemoConfig cfg;
};

std::optional<FuzzFailure>
tableCase(FuzzRng &rng, uint64_t case_index, const FuzzOptions &opts,
          unsigned variant, bool inject_bug)
{
    Operation op = fuzzOperation(rng);
    MemoConfig cfg = fuzzConfig(rng);
    std::vector<Access> stream = fuzzStream(rng, op, opts.streamLen);

    std::string kind;
    std::function<std::optional<std::string>(
        const std::vector<Access> &)>
        fails;

    switch (variant) {
      case 0: { // plain MemoTable vs oracle
        kind = inject_bug ? "memo-table(+injected-tag-bug)"
                          : "memo-table";
        fails = [=](const std::vector<Access> &s) {
            return replay(
                s,
                [&] {
                    return MemoTableChecker(op, cfg, inject_bug);
                },
                [&](MemoTableChecker &c, const Access &ac) {
                    return c.step(ac.a, ac.b,
                                  computeResult(op, ac.a, ac.b));
                });
        };
        break;
      }
      case 1: { // shared multi-ported table
        kind = "shared-table";
        unsigned ports = 1 + static_cast<unsigned>(rng.below(3));
        fails = [=](const std::vector<Access> &s) {
            uint64_t cycle = 0;
            return replay(
                s,
                [&] { return SharedTableChecker(op, cfg, ports); },
                [&, ports](SharedTableChecker &c, const Access &ac) {
                    (void)ports;
                    cycle += ac.tick;
                    return c.step(ac.aux, cycle, ac.a, ac.b,
                                  computeResult(op, ac.a, ac.b));
                });
        };
        break;
      }
      case 2: { // tiered L1+L2 table
        kind = "tiered-table";
        MemoConfig l1 = cfg;
        l1.infinite = false;
        MemoConfig l2 = l1;
        l2.entries = l1.entries * 4;
        l2.ways = std::min(l2.entries, l1.ways * 2);
        fails = [=](const std::vector<Access> &s) {
            return replay(
                s, [&] { return TieredTableChecker(op, l1, l2); },
                [&](TieredTableChecker &c, const Access &ac) {
                    return c.step(ac.a, ac.b,
                                  computeResult(op, ac.a, ac.b));
                });
        };
        break;
      }
      default:
        return std::nullopt;
    }

    auto first = fails(stream);
    if (!first)
        return std::nullopt;

    stream = shrinkStream(std::move(stream),
                          [&](const std::vector<Access> &s) {
                              return fails(s).has_value();
                          });
    FuzzFailure f;
    f.caseIndex = case_index;
    f.kind = kind;
    f.what = *fails(stream);
    std::ostringstream repro;
    repro << "memo_fuzz --seed " << opts.seed << " --iters "
          << (case_index + 1) << " --stream " << opts.streamLen;
    f.repro = repro.str();
    f.detail = "op " + std::string(operationName(op)) + ", cfg " +
               cfg.describe() + "; " + dumpStream(op, stream);
    return f;
}

std::optional<FuzzFailure>
reuseBufferCase(FuzzRng &rng, uint64_t case_index,
                const FuzzOptions &opts)
{
    unsigned entries = 1u << (2 + rng.below(5));
    unsigned ways =
        1u << rng.below(std::min<uint64_t>(3, 2 + rng.below(5)) + 1);
    ways = std::min(ways, entries);
    std::vector<Access> stream = fuzzStream(rng, Operation::FpMul,
                                            opts.streamLen);
    // A handful of static PCs so unrolled-loop-style sharing and set
    // conflicts both occur; the PC selects the (fixed) operation, so
    // the instruction stream stays functional.
    static constexpr Operation pc_ops[] = {
        Operation::IntMul, Operation::FpMul, Operation::FpDiv,
        Operation::FpMul};
    for (Access &ac : stream)
        ac.aux = static_cast<uint32_t>(rng.below(24));

    auto fails = [&](const std::vector<Access> &s) {
        return replay(
            s, [&] { return ReuseBufferChecker(entries, ways); },
            [&](ReuseBufferChecker &c, const Access &ac) {
                Operation op = pc_ops[ac.aux % 4];
                return c.step(ac.aux, ac.a, ac.b,
                              computeResult(op, ac.a, ac.b));
            });
    };

    auto first = fails(stream);
    if (!first)
        return std::nullopt;
    stream = shrinkStream(std::move(stream),
                          [&](const std::vector<Access> &s) {
                              return fails(s).has_value();
                          });
    FuzzFailure f;
    f.caseIndex = case_index;
    f.kind = "reuse-buffer";
    f.what = *fails(stream);
    std::ostringstream repro;
    repro << "memo_fuzz --seed " << opts.seed << " --iters "
          << (case_index + 1) << " --stream " << opts.streamLen;
    f.repro = repro.str();
    f.detail = dumpStream(Operation::FpMul, stream);
    return f;
}

std::optional<FuzzFailure>
recipCacheCase(FuzzRng &rng, uint64_t case_index,
               const FuzzOptions &opts)
{
    unsigned entries = 1u << (2 + rng.below(5));
    unsigned ways = std::min(entries, 1u << rng.below(4));
    std::vector<Access> stream = fuzzStream(rng, Operation::FpDiv,
                                            opts.streamLen);

    auto fails = [&](const std::vector<Access> &s) {
        return replay(
            s, [&] { return RecipCacheChecker(entries, ways); },
            [&](RecipCacheChecker &c, const Access &ac) {
                uint64_t recip = fpBits(1.0 / fpFromBits(ac.b));
                return c.step(ac.b, recip);
            });
    };

    auto first = fails(stream);
    if (!first)
        return std::nullopt;
    stream = shrinkStream(std::move(stream),
                          [&](const std::vector<Access> &s) {
                              return fails(s).has_value();
                          });
    FuzzFailure f;
    f.caseIndex = case_index;
    f.kind = "recip-cache";
    f.what = *fails(stream);
    std::ostringstream repro;
    repro << "memo_fuzz --seed " << opts.seed << " --iters "
          << (case_index + 1) << " --stream " << opts.streamLen;
    f.repro = repro.str();
    f.detail = dumpStream(Operation::FpDiv, stream);
    return f;
}

/** A defect the kernel-vs-reference differential must catch. */
enum class ReplayFault
{
    None,
    /** The batched side drops the last access of every full block. */
    BlockOffByOne,
    /** The reference forgets to refresh an LRU entry on a hit. */
    LruRefreshDropped,
};

/**
 * Kernel-vs-reference differential: the same fuzzed access stream is
 * driven through MemoTable::probeBlock (in a fuzzed block size) and
 * through the independent ReferenceMemoTable, with the same
 * soft-error bit flips injected into both between blocks. Statistics,
 * valid-entry counts and the stored contents (checked by a second
 * pass of single-access lookup()/update() calls on both) must match
 * exactly across every mode combination fuzzConfig() can draw. Each
 * injected ReplayFault must make the harness report a divergence.
 */
std::optional<FuzzFailure>
batchedReplayCase(FuzzRng &rng, uint64_t case_index,
                  const FuzzOptions &opts, ReplayFault fault)
{
    Operation op = fuzzOperation(rng);
    MemoConfig cfg = fuzzConfig(rng);
    if (fault == ReplayFault::LruRefreshDropped) {
        // The only tables the fault can affect.
        cfg.replacement = Replacement::Lru;
        cfg.infinite = false;
    }
    std::vector<Access> stream = fuzzStream(rng, op, opts.streamLen);
    // Block sizes straddling the interesting boundaries: degenerate
    // single-access blocks, sizes that do not divide the stream, the
    // replay loop's own granularity, and larger-than-stream.
    static constexpr size_t block_sizes[] = {1,  2,   3,   7,
                                             64, 256, 512, 4096};
    const size_t block = block_sizes[rng.below(std::size(block_sizes))];
    const uint64_t flip_seed = rng.next();

    auto fails = [=](const std::vector<Access> &s)
        -> std::optional<std::string> {
        ReferenceMemoTable ref(op, cfg,
                               fault == ReplayFault::LruRefreshDropped);
        MemoTable kernel(op, cfg);
        FuzzRng flips(flip_seed);

        std::vector<uint64_t> a, b, r;
        for (const Access &ac : s) {
            a.push_back(ac.a);
            b.push_back(ac.b);
            r.push_back(computeResult(op, ac.a, ac.b));
        }
        auto compare = [&](const char *when)
            -> std::optional<std::string> {
            const MemoStats &x = ref.stats();
            const MemoStats &y = kernel.stats();
            const std::pair<const char *,
                            std::pair<uint64_t, uint64_t>>
                fields[] = {
                    {"lookups", {x.lookups, y.lookups}},
                    {"hits", {x.hits, y.hits}},
                    {"trivialHits", {x.trivialHits, y.trivialHits}},
                    {"misses", {x.misses, y.misses}},
                    {"insertions", {x.insertions, y.insertions}},
                    {"evictions", {x.evictions, y.evictions}},
                    {"trivialBypassed",
                     {x.trivialBypassed, y.trivialBypassed}},
                    {"parityMisses", {x.parityMisses, y.parityMisses}},
                };
            for (const auto &[name, v] : fields) {
                if (v.first != v.second)
                    return std::string("stats diverge ") + when + ": " +
                           name + " reference=" +
                           std::to_string(v.first) +
                           " kernel=" + std::to_string(v.second);
            }
            if (ref.validEntries() != kernel.validEntries())
                return std::string("valid entry counts diverge ") +
                       when + ": reference=" +
                       std::to_string(ref.validEntries()) +
                       " kernel=" +
                       std::to_string(kernel.validEntries());
            return std::nullopt;
        };

        for (size_t base = 0; base < a.size(); base += block) {
            size_t n = std::min(block, a.size() - base);
            for (size_t i = base; i < base + n; i++) {
                if (!ref.lookup(a[i], b[i]))
                    ref.update(a[i], b[i], r[i]);
            }
            if (fault == ReplayFault::BlockOffByOne && n == block &&
                n > 1)
                n--; // off-by-one: lose the block's last access
            kernel.probeBlock(a.data() + base, b.data() + base,
                              r.data() + base, n);
            // A soft error between blocks: both tables must hold the
            // same entry there, and parity protection must drop it
            // on both.
            if (!cfg.infinite && flips.chance(1, 4)) {
                auto set = static_cast<unsigned>(flips.below(cfg.sets()));
                auto way = static_cast<unsigned>(flips.below(cfg.ways));
                auto bit = static_cast<unsigned>(flips.below(64));
                if (ref.injectBitFlip(set, way, bit) !=
                    kernel.injectBitFlip(set, way, bit))
                    return "entry validity diverges at set " +
                           std::to_string(set) + " way " +
                           std::to_string(way);
            }
        }
        if (auto d = compare("after probeBlock"))
            return d;

        // Contents check: both tables, now in supposedly identical
        // states, must answer a second pass of single-access calls
        // with the same hit pattern and the same returned bits.
        for (size_t i = 0; i < a.size(); i++) {
            auto va = ref.lookup(a[i], b[i]);
            auto vb = kernel.lookup(a[i], b[i]);
            if (va != vb)
                return "stored contents diverge at readback " +
                       std::to_string(i) + ": reference " +
                       (va ? hex(*va) : std::string("miss")) +
                       ", kernel " +
                       (vb ? hex(*vb) : std::string("miss"));
            if (!va) {
                ref.update(a[i], b[i], r[i]);
                kernel.update(a[i], b[i], r[i]);
            }
        }
        return compare("after readback");
    };

    auto first = fails(stream);
    if (!first)
        return std::nullopt;
    stream = shrinkStream(std::move(stream),
                          [&](const std::vector<Access> &s) {
                              return fails(s).has_value();
                          });
    FuzzFailure f;
    f.caseIndex = case_index;
    f.kind = fault == ReplayFault::BlockOffByOne
                 ? "batched-replay(+injected-block-bug)"
             : fault == ReplayFault::LruRefreshDropped
                 ? "batched-replay(+injected-lru-bug)"
                 : "batched-replay";
    f.what = *fails(stream);
    std::ostringstream repro;
    repro << "memo_fuzz --seed " << opts.seed << " --iters "
          << (case_index + 1) << " --stream " << opts.streamLen;
    f.repro = repro.str();
    f.detail = "op " + std::string(operationName(op)) + ", cfg " +
               cfg.describe() + ", block " + std::to_string(block) +
               "; " + dumpStream(op, stream);
    return f;
}

/**
 * Whole-CPU differential: a random instruction trace replayed with
 * and without a random memo bank must retain instruction counts,
 * never get slower, and keep every table's statistics conserved
 * against the per-class dynamic counts. With MEMO_VERIFY the replay
 * additionally asserts bit transparency on every hit (sim/cpu.cc).
 */
std::optional<FuzzFailure>
cpuCase(FuzzRng &rng, uint64_t case_index, const FuzzOptions &opts)
{
    static constexpr InstClass classes[] = {
        InstClass::IntAlu, InstClass::IntAlu, InstClass::Load,
        InstClass::Store,  InstClass::Branch, InstClass::FpAdd,
        InstClass::IntMul, InstClass::FpMul,  InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpSqrt};

    ValuePool ipool, fpool_a, fpool_b;
    Trace trace;
    for (unsigned i = 0; i < opts.streamLen; i++) {
        Instruction inst;
        inst.cls = classes[rng.below(std::size(classes))];
        inst.pc = static_cast<uint32_t>(rng.below(64)) * 4;
        if (auto op = memoOperation(inst.cls)) {
            bool fp = isFloat(*op);
            inst.a = fp ? fuzzDoubleBits(rng, fpool_a)
                        : fuzzIntBits(rng, ipool);
            if (!isUnary(*op))
                inst.b = fp ? fuzzDoubleBits(rng, fpool_b)
                            : fuzzIntBits(rng, ipool);
            inst.result = computeResult(*op, inst.a, inst.b);
        } else if (inst.cls == InstClass::Load ||
                   inst.cls == InstClass::Store) {
            inst.addr = rng.below(1 << 20) * 8;
        }
        trace.push(inst);
    }

    CpuConfig ccfg;
    ccfg.earlyOutIntMul = rng.chance(1, 4);
    CpuModel cpu(ccfg);

    SimResult base = cpu.run(trace);
    SimResult again = cpu.run(trace);

    MemoBank bank;
    Operation memo_ops[] = {Operation::IntMul, Operation::FpMul,
                            Operation::FpDiv, Operation::FpSqrt};
    for (Operation op : memo_ops) {
        if (rng.chance(3, 4))
            bank.addTable(op, fuzzConfig(rng));
    }
    SimResult memod = cpu.run(trace, &bank);

    auto fail = [&](const std::string &what) {
        FuzzFailure f;
        f.caseIndex = case_index;
        f.kind = "cpu-differential";
        f.what = what;
        std::ostringstream repro;
        repro << "memo_fuzz --seed " << opts.seed << " --iters "
              << (case_index + 1) << " --stream " << opts.streamLen;
        f.repro = repro.str();
        f.detail = "trace of " + std::to_string(trace.size()) +
                   " instructions";
        return f;
    };

    if (base.totalCycles != again.totalCycles ||
        base.cycles != again.cycles)
        return fail("baseline replay is not deterministic");
    if (base.count != memod.count)
        return fail("memoization changed dynamic instruction counts");
    if (memod.totalCycles > base.totalCycles)
        return fail("memoized run slower than baseline: " +
                    std::to_string(memod.totalCycles) + " > " +
                    std::to_string(base.totalCycles) + " cycles");

    for (Operation op : memo_ops) {
        const MemoTable *t = bank.table(op);
        if (!t)
            continue;
        const MemoStats &s = t->stats();
        if (auto e = statsConserved(s, operationName(op).data()))
            return fail(*e);
        InstClass cls = instClassOf(op);
        uint64_t presented = s.lookups + s.trivialBypassed;
        if (presented != memod.countOf(cls))
            return fail(std::string(operationName(op)) +
                        ": lookups + bypassed (" +
                        std::to_string(presented) +
                        ") != dynamic count (" +
                        std::to_string(memod.countOf(cls)) + ")");
        // Exact cycle accounting: hits complete in 1 cycle, every
        // other presented operation pays the unit latency. (IntMul is
        // excluded when the early-out unit makes latency data
        // dependent.)
        if (op != Operation::IntMul || !ccfg.earlyOutIntMul) {
            uint64_t lat = ccfg.lat[cls];
            uint64_t expect = s.allHits() +
                              (memod.countOf(cls) - s.allHits()) * lat;
            if (memod.cyclesOf(cls) != expect)
                return fail(std::string(operationName(op)) +
                            " cycle accounting: got " +
                            std::to_string(memod.cyclesOf(cls)) +
                            ", expected " + std::to_string(expect));
        }
    }
    return std::nullopt;
}

/**
 * Chunk-codec differential (the spill tier's byte format,
 * trace/chunk_codec.hh): a random trace must survive
 * encode -> decode bit-exactly at an arbitrary chunk width — including
 * widths that do not divide the column lengths — and flipping any
 * single bit of any encoded chunk or of the manifest must be rejected
 * with SpillError, never silently decoded.
 */
std::optional<FuzzFailure>
chunkCodecCase(FuzzRng &rng, uint64_t case_index,
               const FuzzOptions &opts)
{
    static constexpr InstClass classes[] = {
        InstClass::IntAlu, InstClass::IntAlu, InstClass::Load,
        InstClass::Store,  InstClass::Branch, InstClass::FpAdd,
        InstClass::IntMul, InstClass::FpMul,  InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpSqrt, InstClass::FpLog,
        InstClass::FpSin,  InstClass::FpCos,  InstClass::FpExp};

    ValuePool ipool, fpool_a, fpool_b;
    Trace trace;
    // 0..streamLen records: short and empty traces are format edge
    // cases (zero-chunk columns) the round-trip must cover too.
    unsigned len = static_cast<unsigned>(rng.below(opts.streamLen + 1));
    for (unsigned i = 0; i < len; i++) {
        Instruction inst;
        inst.cls = classes[rng.below(std::size(classes))];
        inst.pc = static_cast<uint32_t>(rng.below(64)) * 4;
        if (auto op = memoOperation(inst.cls)) {
            bool fp = isFloat(*op);
            inst.a = fp ? fuzzDoubleBits(rng, fpool_a)
                        : fuzzIntBits(rng, ipool);
            if (!isUnary(*op))
                inst.b = fp ? fuzzDoubleBits(rng, fpool_b)
                            : fuzzIntBits(rng, ipool);
            inst.result = computeResult(*op, inst.a, inst.b);
        } else if (inst.cls == InstClass::Load ||
                   inst.cls == InstClass::Store) {
            inst.addr = rng.below(1 << 20) * 8;
        }
        trace.push(inst);
    }

    static constexpr uint32_t widths[] = {1, 2, 3, 7, 64, 1024, 65536};
    const uint32_t chunk_elems = widths[rng.below(std::size(widths))];

    auto fail = [&](const std::string &what) {
        FuzzFailure f;
        f.caseIndex = case_index;
        f.kind = "chunk-codec";
        f.what = what;
        std::ostringstream repro;
        repro << "memo_fuzz --seed " << opts.seed << " --iters "
              << (case_index + 1) << " --stream " << opts.streamLen;
        f.repro = repro.str();
        f.detail = "trace of " + std::to_string(trace.size()) +
                   " instructions, chunk width " +
                   std::to_string(chunk_elems);
        return f;
    };

    EncodedTrace enc = encodeTraceChunked(trace, chunk_elems);
    Trace back;
    try {
        back = decodeTraceChunked(enc);
    } catch (const SpillError &e) {
        return fail(std::string("clean decode rejected: ") + e.what());
    }
    if (back.size() != trace.size())
        return fail("decode changed record count: " +
                    std::to_string(trace.size()) + " -> " +
                    std::to_string(back.size()));
    for (size_t i = 0; i < trace.size(); i++) {
        Instruction x = trace[i], y = back[i];
        if (x.cls != y.cls || x.pc != y.pc || x.a != y.a ||
            x.b != y.b || x.result != y.result || x.addr != y.addr)
            return fail("decode not bit-exact at record " +
                        std::to_string(i));
    }

    // Manifest round-trip.
    TraceManifest m = manifestOf("fuzz|case", enc);
    std::string mbytes = encodeManifest(m);
    try {
        TraceManifest m2 = decodeManifest(mbytes);
        if (m2.key != m.key || m2.records != m.records ||
            m2.ops != m.ops || m2.addrs != m.addrs)
            return fail("manifest round-trip changed header fields");
        for (size_t c = 0; c < kNumTraceColumns; c++) {
            if (m2.cols[c].size() != m.cols[c].size())
                return fail("manifest round-trip changed chunk lists");
            for (size_t i = 0; i < m.cols[c].size(); i++)
                if (m2.cols[c][i].hash != m.cols[c][i].hash ||
                    m2.cols[c][i].elems != m.cols[c][i].elems)
                    return fail("manifest round-trip changed chunk " +
                                std::to_string(i));
        }
    } catch (const SpillError &e) {
        return fail(std::string("clean manifest rejected: ") +
                    e.what());
    }

    // Corruption detection: every bit of every artifact is load-
    // bearing (header fields are checked, payloads are hashed), so a
    // random single-bit flip must throw — reaching the element
    // comparison above would mean corruption decoded silently.
    std::vector<EncodedChunk *> chunks;
    for (EncodedColumn &col : enc.cols)
        for (EncodedChunk &ch : col.chunks)
            chunks.push_back(&ch);
    if (!chunks.empty()) {
        EncodedChunk *victim = chunks[rng.below(chunks.size())];
        size_t byte = rng.below(victim->bytes.size());
        victim->bytes[byte] = static_cast<char>(
            static_cast<uint8_t>(victim->bytes[byte]) ^
            (1u << rng.below(8)));
        try {
            decodeTraceChunked(enc);
            return fail("flipped bit " + std::to_string(byte * 8) +
                        " of a chunk decoded without error");
        } catch (const SpillError &) {
            // expected
        }
    }
    size_t mbit = rng.below(mbytes.size());
    mbytes[mbit] = static_cast<char>(
        static_cast<uint8_t>(mbytes[mbit]) ^ (1u << rng.below(8)));
    try {
        decodeManifest(mbytes);
        return fail("flipped manifest byte " + std::to_string(mbit) +
                    " parsed without error");
    } catch (const SpillError &) {
        // expected
    }
    return std::nullopt;
}

/**
 * Seed fragments for the memo-lint fuzz case: plausible C++ that
 * exercises the analyzer's passes (capability model, I/O rule,
 * determinism rules, suppressions, preprocessor and literal lexing).
 */
constexpr const char *lint_frags[] = {
    "class Box {\n  std::mutex m;\n  int v = 0;\n};\n",
    "class Reg {\n  memo::Mutex m_;\n  int n MEMO_GUARDED_BY(m_) = 0;"
    "\n  int get() const { return n; }\n};\n",
    "void spin(FILE *f, char *buf) {\n  fseek(f, 0, 2);\n"
    "  std::fread(buf, 1, 8, f);\n}\n",
    "double mix(double a, double b) {\n  if (a == b) return 0.0;\n"
    "  return a / b;\n}\n",
    "std::unordered_map<int, int> gmap;\nint fold() {\n  int s = 0;\n"
    "  for (auto &kv : gmap) s += kv.second;\n  return s;\n}\n",
    "static int counter = 0;\nvoid bump() { counter++; }\n",
    "void fanout() {\n  std::thread t([] {});\n  t.detach();\n}\n",
    "int Reg::bump() { return n++; }\n",
    "#define WIDGET(x) ((x) * 2)\n#include <vector>\n",
    "const char *s = \"/* not a comment */\";\nchar c = '\\n';\n",
    "/* block\n   comment */\n",
    "auto lam = [](int q) { return q ? 0x1p-3 : 2e+4; };\n",
    "// NOLINTNEXTLINE(memo-FP-001)\nbool z(double d) "
    "{ return d == 0.0; }\n",
};

/** Mutation dictionary biased toward lexer state machines. */
constexpr const char *lint_dict[] = {
    "/*", "*/", "//", "\"", "'", "R\"(", ")\"", "#", "\\\n", "\n",
    "{",  "}",  "(",  ")",  "::", "e+",  "'\\", "NOLINT(",
    "MEMO_GUARDED_BY(m)", "std::mutex mm;", "\x01", "\xff",
};

/** A mutated pseudo-C++ translation unit. */
std::string
fuzzLintSource(FuzzRng &rng)
{
    std::string s;
    unsigned frags = 2 + static_cast<unsigned>(rng.below(8));
    for (unsigned i = 0; i < frags; i++)
        s += lint_frags[rng.below(std::size(lint_frags))];

    unsigned muts = static_cast<unsigned>(rng.below(12));
    for (unsigned i = 0; i < muts && !s.empty(); i++) {
        size_t pos = rng.below(s.size() + 1);
        switch (rng.below(4)) {
          case 0: // splice a dictionary token
            s.insert(pos, lint_dict[rng.below(std::size(lint_dict))]);
            break;
          case 1: { // delete a short range
            size_t n = 1 + rng.below(8);
            if (pos < s.size())
                s.erase(pos, std::min(n, s.size() - pos));
            break;
          }
          case 2: // flip one byte
            if (pos < s.size())
                s[pos] = static_cast<char>(
                    static_cast<uint8_t>(s[pos]) ^
                    (1u << rng.below(8)));
            break;
          default: { // duplicate a short range (comment/quote nesting)
            size_t n = 1 + rng.below(16);
            if (pos < s.size())
                s.insert(pos,
                         s.substr(pos, std::min(n, s.size() - pos)));
            break;
          }
        }
    }
    return s;
}

/**
 * The memo-lint invariants one fuzzed source must satisfy: the lexer
 * and analyzer never crash, are deterministic, and keep positions
 * coherent — token (line, col) strictly increases, lines stay within
 * the file, and a comment spans exactly the newlines of its body
 * (±1 for an unterminated trailing comment). The position checks are
 * what the mutation self-test's injected lexer bug must trip.
 */
std::optional<std::string>
lintFuzzOracle(const std::string &source, bool with_header)
{
    lint::LexResult one = lint::lex(source);
    lint::LexResult two = lint::lex(source);
    if (one.tokens.size() != two.tokens.size() ||
        one.comments.size() != two.comments.size())
        return "lex not deterministic: token/comment counts differ";
    for (size_t i = 0; i < one.tokens.size(); i++) {
        const lint::Token &x = one.tokens[i];
        const lint::Token &y = two.tokens[i];
        if (x.kind != y.kind || x.text != y.text || x.line != y.line ||
            x.col != y.col)
            return "lex not deterministic at token " +
                   std::to_string(i);
    }

    int total_lines = 1;
    for (char c : source)
        total_lines += c == '\n';

    int prev_line = 1, prev_col = 0;
    for (size_t i = 0; i < one.tokens.size(); i++) {
        const lint::Token &t = one.tokens[i];
        if (t.line < 1 || t.col < 1 || t.line > total_lines)
            return "token " + std::to_string(i) +
                   " positioned outside the file: line " +
                   std::to_string(t.line) + " of " +
                   std::to_string(total_lines);
        if (t.line < prev_line ||
            (t.line == prev_line && t.col <= prev_col))
            return "token positions not strictly increasing at token " +
                   std::to_string(i);
        prev_line = t.line;
        prev_col = t.col;
    }
    for (size_t i = 0; i < one.comments.size(); i++) {
        const lint::Comment &c = one.comments[i];
        int body_newlines = 0;
        for (char ch : c.text)
            body_newlines += ch == '\n';
        if (c.line < 1 || c.endLine < c.line ||
            c.endLine > total_lines)
            return "comment " + std::to_string(i) +
                   " spans impossible lines " + std::to_string(c.line) +
                   ".." + std::to_string(c.endLine);
        int span = c.endLine - c.line;
        if (span < body_newlines || span > body_newlines + 1)
            return "comment " + std::to_string(i) + " spans " +
                   std::to_string(span) + " lines but its body has " +
                   std::to_string(body_newlines) + " newlines";
    }

    // The analyzer over the same mutated source (under a path that
    // arms every path-scoped rule) must not crash and must produce
    // the same findings twice.
    lint::AnalyzerOptions opt;
    opt.relPath = "src/trace/fuzzed.cc";
    if (with_header)
        opt.companionHeader = source;
    std::vector<lint::Finding> f1 = lint::analyzeFile(source, opt);
    std::vector<lint::Finding> f2 = lint::analyzeFile(source, opt);
    if (f1.size() != f2.size())
        return "analyzeFile not deterministic: finding counts differ";
    for (size_t i = 0; i < f1.size(); i++)
        if (std::string_view(f1[i].rule->id) != f2[i].rule->id ||
            f1[i].line != f2[i].line || f1[i].col != f2[i].col)
            return "analyzeFile not deterministic at finding " +
                   std::to_string(i);
    return std::nullopt;
}

/**
 * memo-lint robustness case: a mutated translation unit fed through
 * the lexer and the full analyzer. The linter runs in CI over
 * arbitrary future code, so it must hold lintFuzzOracle()'s
 * invariants on garbage input — under ASan/UBSan this is primarily a
 * never-crashes guarantee.
 */
std::optional<FuzzFailure>
lintCase(FuzzRng &rng, uint64_t case_index, const FuzzOptions &opts)
{
    std::string source = fuzzLintSource(rng);
    bool with_header = rng.chance(1, 3);
    auto violation = lintFuzzOracle(source, with_header);
    if (!violation)
        return std::nullopt;
    FuzzFailure f;
    f.caseIndex = case_index;
    f.kind = "lint-analyzer";
    f.what = *violation;
    std::ostringstream repro;
    repro << "memo_fuzz --seed " << opts.seed << " --iters "
          << (case_index + 1) << " --stream " << opts.streamLen;
    f.repro = repro.str();
    f.detail = "mutated source of " + std::to_string(source.size()) +
               " bytes" + (with_header ? " (also as header)" : "");
    return f;
}

} // anonymous namespace

MemoConfig
fuzzConfig(FuzzRng &rng)
{
    MemoConfig cfg;
    unsigned entries_log = static_cast<unsigned>(rng.below(9));
    unsigned max_ways_log = std::min(entries_log, 3u);
    cfg.entries = 1u << entries_log;
    cfg.ways = 1u << rng.below(max_ways_log + 1);
    cfg.infinite = rng.chance(1, 6);
    cfg.tagMode = rng.chance(1, 3) ? TagMode::MantissaOnly
                                   : TagMode::FullValue;
    static constexpr TrivialMode trivial[] = {
        TrivialMode::CacheAll, TrivialMode::NonTrivialOnly,
        TrivialMode::Integrated};
    cfg.trivialMode = trivial[rng.below(3)];
    static constexpr Replacement repl[] = {
        Replacement::Lru, Replacement::Fifo, Replacement::Random};
    cfg.replacement = repl[rng.below(3)];
    cfg.hashScheme = rng.chance(1, 3) ? HashScheme::PaperXor
                                      : HashScheme::Additive;
    cfg.extendedTrivial = rng.chance(1, 4);
    cfg.parityProtected = rng.chance(1, 4);
    return cfg;
}

Operation
fuzzOperation(FuzzRng &rng)
{
    static constexpr Operation ops[] = {
        Operation::IntMul, Operation::IntMul, Operation::FpMul,
        Operation::FpMul,  Operation::FpMul,  Operation::FpDiv,
        Operation::FpDiv,  Operation::FpSqrt, Operation::FpLog,
        Operation::FpSin,  Operation::FpCos,  Operation::FpExp};
    return ops[rng.below(std::size(ops))];
}

uint64_t
computeResult(Operation op, uint64_t a_bits, uint64_t b_bits)
{
    switch (op) {
      case Operation::IntMul:
        return a_bits * b_bits; // wrap-around product
      case Operation::FpMul:
        return fpBits(fpFromBits(a_bits) * fpFromBits(b_bits));
      case Operation::FpDiv:
        return fpBits(fpFromBits(a_bits) / fpFromBits(b_bits));
      case Operation::FpSqrt:
        return fpBits(std::sqrt(fpFromBits(a_bits)));
      case Operation::FpLog:
        return fpBits(std::log(fpFromBits(a_bits)));
      case Operation::FpSin:
        return fpBits(std::sin(fpFromBits(a_bits)));
      case Operation::FpCos:
        return fpBits(std::cos(fpFromBits(a_bits)));
      case Operation::FpExp:
        return fpBits(std::exp(fpFromBits(a_bits)));
    }
    return 0;
}

std::optional<FuzzFailure>
runFuzzCase(uint64_t case_index, const FuzzOptions &opts)
{
    FuzzRng rng = caseRng(opts.seed, case_index);
    switch (rng.below(11)) {
      case 0:
      case 1:
      case 2:
        return tableCase(rng, case_index, opts, 0, false);
      case 3:
        return tableCase(rng, case_index, opts, 1, false);
      case 4:
        return tableCase(rng, case_index, opts, 2, false);
      case 5:
        return reuseBufferCase(rng, case_index, opts);
      case 6:
        return recipCacheCase(rng, case_index, opts);
      case 7:
        return batchedReplayCase(rng, case_index, opts, ReplayFault::None);
      case 8:
        return chunkCodecCase(rng, case_index, opts);
      case 9:
        return lintCase(rng, case_index, opts);
      default:
        return cpuCase(rng, case_index, opts);
    }
}

std::optional<FuzzFailure>
fuzz(const FuzzOptions &opts, std::ostream *log)
{
    for (uint64_t i = 0; i < opts.iters; i++) {
        if (auto f = runFuzzCase(i, opts)) {
            if (log) {
                *log << "FAIL case " << f->caseIndex << " [" << f->kind
                     << "]\n  " << f->what << "\n  " << f->detail
                     << "\n  repro: " << f->repro << "\n";
            }
            return f;
        }
        if (opts.progress)
            opts.progress->fetch_add(1, std::memory_order_relaxed);
        if (log && opts.verbose && (i + 1) % 1000 == 0)
            *log << "  ..." << (i + 1) << "/" << opts.iters
                 << " cases ok\n";
    }
    if (log)
        *log << "ok: " << opts.iters << " fuzz cases, seed "
             << opts.seed << ", no invariant violations\n";
    return std::nullopt;
}

bool
mutationSelfTest(const FuzzOptions &opts, std::ostream *log)
{
    bool tag_caught = false;
    for (uint64_t i = 0; i < opts.iters; i++) {
        FuzzRng rng = caseRng(opts.seed, i);
        if (auto f = tableCase(rng, i, opts, 0, true)) {
            if (log)
                *log << "tag mutation caught at case " << i << ": "
                     << f->what << "\n  " << f->detail << "\n";
            tag_caught = true;
            break;
        }
    }
    if (!tag_caught && log)
        *log << "MUTATION MISSED: injected tag-comparison bug "
                "survived "
             << opts.iters << " cases (seed " << opts.seed << ")\n";

    // The kernel-vs-reference differential must catch a fault on
    // either side of it.
    auto replay_caught = [&](ReplayFault fault, const char *what) {
        for (uint64_t i = 0; i < opts.iters; i++) {
            FuzzRng rng = caseRng(opts.seed, i);
            if (auto f = batchedReplayCase(rng, i, opts, fault)) {
                if (log)
                    *log << what << " mutation caught at case " << i
                         << ": " << f->what << "\n  " << f->detail
                         << "\n";
                return true;
            }
        }
        if (log)
            *log << "MUTATION MISSED: injected " << what
                 << " fault survived " << opts.iters << " cases (seed "
                 << opts.seed << ")\n";
        return false;
    };
    bool block_caught =
        replay_caught(ReplayFault::BlockOffByOne, "block-boundary");
    bool lru_caught =
        replay_caught(ReplayFault::LruRefreshDropped, "LRU-refresh");

    // Last leg: break the lexer's block-comment newline accounting
    // and require the lint oracle's position invariants to notice.
    // Deterministic — one canonical multi-line comment suffices.
    lint::setLexerFaultInjection(true);
    bool lexer_caught =
        lintFuzzOracle("/* a\n b */ int x;\n", false).has_value();
    lint::setLexerFaultInjection(false);
    if (log) {
        if (lexer_caught)
            *log << "lexer mutation caught: block-comment newline "
                    "accounting bug tripped the lint oracle\n";
        else
            *log << "MUTATION MISSED: injected lexer newline bug "
                    "survived the lint oracle\n";
    }

    return tag_caught && block_caught && lru_caught && lexer_caught;
}

} // namespace memo::check
