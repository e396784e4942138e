#include "differ.hh"

#include <cassert>
#include <sstream>

namespace memo::check
{

namespace
{

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
describeAccess(uint64_t step, Operation op, uint64_t a, uint64_t b,
               uint64_t r)
{
    std::ostringstream os;
    os << " [step " << step << ", op " << operationName(op) << ", a "
       << hex(a) << ", b " << hex(b) << ", result " << hex(r) << "]";
    return os.str();
}

} // anonymous namespace

std::optional<std::string>
statsConserved(const MemoStats &s, const char *who)
{
    if (s.allHits() + s.misses == s.lookups)
        return std::nullopt;
    std::ostringstream os;
    os << who << " stats not conserved: hits " << s.hits
       << " + trivialHits " << s.trivialHits << " + misses " << s.misses
       << " != lookups " << s.lookups;
    return os.str();
}

std::optional<std::string>
simResultsDiffer(const SimResult &want, const SimResult &got)
{
    auto differ = [](const std::string &field, uint64_t w, uint64_t g)
        -> std::optional<std::string> {
        if (w == g)
            return std::nullopt;
        return field + ": want " + std::to_string(w) + ", got " +
               std::to_string(g);
    };
    std::optional<std::string> d;
    if ((d = differ("totalCycles", want.totalCycles, got.totalCycles)) ||
        (d = differ("annulCycles", want.annulCycles, got.annulCycles)))
        return d;
    for (unsigned c = 0; c < numInstClasses; c++) {
        std::string cls(instClassName(static_cast<InstClass>(c)));
        const obs::Histogram &wo = want.occupancy[c];
        const obs::Histogram &go = got.occupancy[c];
        if ((d = differ("count." + cls, want.count[c], got.count[c])) ||
            (d = differ("cycles." + cls, want.cycles[c],
                        got.cycles[c])) ||
            (d = differ("memoSaved." + cls, want.memoSaved[c],
                        got.memoSaved[c])))
            return d;
        if (wo.counts() != go.counts() || wo.sum() != go.sum())
            return "occupancy." + cls + ": want " + wo.serialize() +
                   ", got " + go.serialize();
    }
    if (want.memo.size() != got.memo.size())
        return std::string("memo: table sets differ");
    for (const auto &[op, st] : want.memo) {
        auto it = got.memo.find(op);
        if (it == got.memo.end() || !(it->second == st))
            return "memo." + std::string(operationName(op)) +
                   ": statistics differ";
    }
    if ((d = differ("l1.accesses", want.l1.accesses, got.l1.accesses)) ||
        (d = differ("l1.hits", want.l1.hits, got.l1.hits)) ||
        (d = differ("l2.accesses", want.l2.accesses, got.l2.accesses)) ||
        (d = differ("l2.hits", want.l2.hits, got.l2.hits)))
        return d;
    return std::nullopt;
}

MemoTableChecker::MemoTableChecker(Operation op, const MemoConfig &cfg,
                                   bool inject_tag_bug)
    : table(op, cfg), shadow(op, cfg), injectTagBug(inject_tag_bug)
{
}

std::optional<std::string>
MemoTableChecker::step(uint64_t a_bits, uint64_t b_bits,
                       uint64_t true_result)
{
    steps++;
    // Mutation self-test hook: a tag comparator that ignores the top
    // 16 bits of operand A. Operands that differ only there collide in
    // the real table and must be flagged by the invariants below.
    uint64_t real_a =
        injectTagBug ? a_bits & 0x0000ffffffffffffULL : a_bits;
    auto rv = table.lookup(real_a, b_bits);
    auto ov = shadow.lookup(a_bits, b_bits);
    auto where = [&] {
        return describeAccess(steps, table.operation(), a_bits, b_bits,
                              true_result) +
               " cfg " + table.config().describe();
    };

    if (rv && *rv != true_result)
        return "transparency violated: table hit returned " + hex(*rv) +
               ", computation unit produces " + hex(true_result) +
               where();
    if (ov && *ov != true_result)
        return "oracle self-check failed: oracle hit returned " +
               hex(*ov) + ", expected " + hex(true_result) + where();
    if (rv && !ov)
        return "containment violated: finite table hit where the "
               "unbounded oracle missed (tag aliasing)" +
               where();
    if (table.config().infinite && rv.has_value() != ov.has_value())
        return std::string("infinite-table equivalence violated: real ") +
               (rv ? "hit" : "miss") + " vs oracle " +
               (ov ? "hit" : "miss") + where();
    if (auto e = statsConserved(table.stats(), "real table"))
        return *e + where();
    if (auto e = statsConserved(shadow.stats(), "oracle"))
        return *e + where();
    if (!table.config().infinite &&
        table.validEntries() > table.config().entries)
        return "geometry violated: more valid entries than the table "
               "holds" +
               where();

    if (!rv)
        table.update(real_a, b_bits, true_result);
    if (!ov)
        shadow.update(a_bits, b_bits, true_result);
    return std::nullopt;
}

SharedTableChecker::SharedTableChecker(Operation op,
                                       const MemoConfig &cfg,
                                       unsigned ports)
    : table(op, cfg, ports), shadow(op, cfg)
{
}

std::optional<std::string>
SharedTableChecker::step(unsigned cu_id, uint64_t cycle, uint64_t a_bits,
                         uint64_t b_bits, uint64_t true_result)
{
    steps++;
    auto rv = table.lookup(cu_id, cycle, a_bits, b_bits);
    auto ov = shadow.lookup(a_bits, b_bits);
    auto where = [&] {
        return describeAccess(steps, shadow.operation(), a_bits, b_bits,
                              true_result);
    };

    if (rv && *rv != true_result)
        return "shared-table transparency violated: hit returned " +
               hex(*rv) + ", expected " + hex(true_result) + where();
    if (ov && *ov != true_result)
        return "oracle self-check failed: hit returned " + hex(*ov) +
               ", expected " + hex(true_result) + where();
    if (rv && !ov)
        return "shared-table containment violated: hit where the "
               "unbounded oracle missed" +
               where();
    if (auto e = statsConserved(table.stats(), "shared table"))
        return *e + where();

    // A port conflict is a forced miss: the unit computes and, like
    // any missing access, installs the result.
    if (!rv)
        table.update(cu_id, a_bits, b_bits, true_result);
    if (!ov)
        shadow.update(a_bits, b_bits, true_result);
    return std::nullopt;
}

TieredTableChecker::TieredTableChecker(Operation op,
                                       const MemoConfig &l1_cfg,
                                       const MemoConfig &l2_cfg)
    : table(op, l1_cfg, l2_cfg), shadow(op, l1_cfg)
{
    // The oracle models policy, not geometry: both levels must agree
    // on the policy knobs for the comparison to be meaningful.
    assert(l1_cfg.tagMode == l2_cfg.tagMode &&
           l1_cfg.trivialMode == l2_cfg.trivialMode &&
           l1_cfg.extendedTrivial == l2_cfg.extendedTrivial);
}

std::optional<std::string>
TieredTableChecker::step(uint64_t a_bits, uint64_t b_bits,
                         uint64_t true_result)
{
    steps++;
    auto rv = table.lookup(a_bits, b_bits);
    auto ov = shadow.lookup(a_bits, b_bits);
    auto where = [&] {
        return describeAccess(steps, shadow.operation(), a_bits, b_bits,
                              true_result);
    };

    if (rv && rv->resultBits != true_result) {
        std::ostringstream os;
        os << "tiered-table transparency violated: L" << rv->level
           << " hit returned " << hex(rv->resultBits) << ", expected "
           << hex(true_result) << where();
        return os.str();
    }
    if (ov && *ov != true_result)
        return "oracle self-check failed: hit returned " + hex(*ov) +
               ", expected " + hex(true_result) + where();
    if (rv && !ov)
        return "tiered-table containment violated: hit where the "
               "unbounded oracle missed" +
               where();
    if (auto e = statsConserved(table.l1Stats(), "tiered L1"))
        return *e + where();
    if (auto e = statsConserved(table.l2Stats(), "tiered L2"))
        return *e + where();

    if (!rv)
        table.update(a_bits, b_bits, true_result);
    if (!ov)
        shadow.update(a_bits, b_bits, true_result);
    return std::nullopt;
}

ReuseBufferChecker::ReuseBufferChecker(unsigned entries, unsigned ways)
    : buffer(entries, ways)
{
}

std::optional<std::string>
ReuseBufferChecker::step(uint64_t pc, uint64_t a_bits, uint64_t b_bits,
                         uint64_t true_result)
{
    steps++;
    auto rv = buffer.lookup(pc, a_bits, b_bits);
    auto where = [&] {
        std::ostringstream os;
        os << " [step " << steps << ", pc " << hex(pc) << ", a "
           << hex(a_bits) << ", b " << hex(b_bits) << ", result "
           << hex(true_result) << "]";
        return os.str();
    };

    auto it = shadow.find(Key{pc, a_bits, b_bits});
    if (rv) {
        if (*rv != true_result)
            return "reuse-buffer transparency violated: hit returned " +
                   hex(*rv) + ", expected " + hex(true_result) + where();
        if (it == shadow.end())
            return "reuse-buffer containment violated: hit on a "
                   "(pc, operands) instance never executed" +
                   where();
    }
    if (auto e = statsConserved(buffer.stats(), "reuse buffer"))
        return *e + where();

    if (!rv)
        buffer.update(pc, a_bits, b_bits, true_result);
    if (it == shadow.end())
        shadow.emplace(Key{pc, a_bits, b_bits}, true_result);
    return std::nullopt;
}

RecipCacheChecker::RecipCacheChecker(unsigned entries, unsigned ways)
    : cache(entries, ways)
{
}

std::optional<std::string>
RecipCacheChecker::step(uint64_t b_bits, uint64_t true_recip_bits)
{
    steps++;
    auto rv = cache.lookup(b_bits);
    auto where = [&] {
        std::ostringstream os;
        os << " [step " << steps << ", divisor " << hex(b_bits)
           << ", 1/b " << hex(true_recip_bits) << "]";
        return os.str();
    };

    auto it = shadow.find(b_bits);
    if (rv) {
        if (*rv != true_recip_bits)
            return "reciprocal-cache transparency violated: hit "
                   "returned " +
                   hex(*rv) + ", expected " + hex(true_recip_bits) +
                   where();
        if (it == shadow.end())
            return "reciprocal-cache containment violated: hit on a "
                   "divisor never installed" +
                   where();
    }
    if (auto e = statsConserved(cache.stats(), "reciprocal cache"))
        return *e + where();

    if (!rv)
        cache.update(b_bits, true_recip_bits);
    if (it == shadow.end())
        shadow.emplace(b_bits, true_recip_bits);
    return std::nullopt;
}

} // namespace memo::check
