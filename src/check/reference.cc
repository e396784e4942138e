#include "reference.hh"

#include <bit>

#include "core/operand.hh"

namespace memo::check
{

namespace
{

/** Parity over tags and value: the parity of their XOR. */
bool
parityOf(uint64_t tag_a, uint64_t tag_b, uint64_t value)
{
    return std::popcount(tag_a ^ tag_b ^ value) & 1;
}

} // anonymous namespace

ReferenceMemoTable::ReferenceMemoTable(Operation op, const MemoConfig &cfg,
                                       bool drop_lru_refresh)
    : op(op), cfg(cfg), mantissa(operand::mantissaTags(op, cfg.tagMode)),
      dropLruRefresh(drop_lru_refresh)
{
    if (!cfg.infinite)
        sets.assign(cfg.sets(), std::vector<Way>(cfg.ways));
}

ReferenceMemoTable::Slot
ReferenceMemoTable::locate(uint64_t a_bits, uint64_t b_bits)
{
    Slot s{operand::tag(op, mantissa, a_bits),
           isUnary(op) ? 0 : operand::tag(op, mantissa, b_bits), nullptr,
           nullptr};
    bool swap = operand::swappable(op, a_bits, b_bits);
    if (cfg.infinite) {
        if (swap && s.tagB < s.tagA)
            std::swap(s.tagA, s.tagB);
        auto it = unbounded.find({s.tagA, s.tagB});
        s.way = it == unbounded.end() ? nullptr : &it->second;
        return s;
    }
    unsigned index_bits =
        static_cast<unsigned>(std::countr_zero(cfg.sets()));
    s.set = &sets[operand::setIndex(op, cfg.hashScheme, index_bits,
                                    a_bits, b_bits)];
    for (Way &w : *s.set) {
        if (w.valid && ((w.tagA == s.tagA && w.tagB == s.tagB) ||
                        (swap && w.tagA == s.tagB && w.tagB == s.tagA))) {
            s.way = &w;
            break;
        }
    }
    return s;
}

std::optional<uint64_t>
ReferenceMemoTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    uint64_t result;
    if (cfg.trivialMode != TrivialMode::CacheAll &&
        operand::trivial(op, cfg.extendedTrivial, a_bits, b_bits, result)) {
        if (cfg.trivialMode == TrivialMode::NonTrivialOnly) {
            stats_.trivialBypassed++;
            return std::nullopt;
        }
        stats_.lookups++;
        stats_.trivialHits++;
        return result;
    }

    stats_.lookups++;
    Way *w = operand::taggable(op, mantissa, a_bits, b_bits)
                 ? locate(a_bits, b_bits).way
                 : nullptr;
    if (w && cfg.parityProtected && !cfg.infinite &&
        parityOf(w->tagA, w->tagB, w->value) != w->parity) {
        // A soft error: the entry is dropped and the access misses.
        w->valid = false;
        stats_.parityMisses++;
        w = nullptr;
    } else if (w) {
        result = w->value;
        if (!mantissa || operand::reconstruct(op, a_bits, b_bits, w->value,
                                              w->delta, result)) {
            if (cfg.replacement == Replacement::Lru && !dropLruRefresh)
                w->tick = ++tick;
            stats_.hits++;
            return result;
        }
    }
    stats_.misses++;
    return std::nullopt;
}

void
ReferenceMemoTable::update(uint64_t a_bits, uint64_t b_bits,
                           uint64_t result_bits)
{
    uint64_t trivial_result;
    if ((cfg.trivialMode != TrivialMode::CacheAll &&
         operand::trivial(op, cfg.extendedTrivial, a_bits, b_bits,
                          trivial_result)) ||
        !operand::taggable(op, mantissa, a_bits, b_bits))
        return;
    Way fresh{true, false, 0, 0, result_bits, 0, 0};
    if (mantissa && !operand::payload(op, a_bits, b_bits, result_bits,
                                      fresh.value, fresh.delta))
        return;

    Slot s = locate(a_bits, b_bits);
    if (s.way) {
        // Already present: rewrite the payload in place.
        s.way->value = fresh.value;
        s.way->delta = fresh.delta;
        s.way->parity = parityOf(s.way->tagA, s.way->tagB, fresh.value);
        if (cfg.replacement == Replacement::Lru)
            s.way->tick = ++tick;
        return;
    }
    fresh.tagA = s.tagA;
    fresh.tagB = s.tagB;
    fresh.parity = parityOf(s.tagA, s.tagB, fresh.value);
    fresh.tick = ++tick;
    stats_.insertions++;
    if (!s.set) {
        unbounded[{s.tagA, s.tagB}] = fresh;
        return;
    }

    Way *victim = nullptr;
    for (Way &w : *s.set) {
        if (!w.valid) {
            victim = &w;
            break;
        }
    }
    if (!victim) {
        if (cfg.replacement == Replacement::Random) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            victim = &(*s.set)[rng % s.set->size()];
        } else {
            // LRU and FIFO evict the smallest tick, first way on ties.
            victim = &s.set->front();
            for (Way &w : *s.set)
                if (w.tick < victim->tick)
                    victim = &w;
        }
        stats_.evictions++;
    }
    *victim = fresh;
}

bool
ReferenceMemoTable::injectBitFlip(unsigned set, unsigned way, unsigned bit)
{
    Way &w = sets.at(set).at(way);
    if (!w.valid)
        return false;
    w.value ^= uint64_t{1} << bit;
    return true;
}

unsigned
ReferenceMemoTable::validEntries() const
{
    if (cfg.infinite)
        return static_cast<unsigned>(unbounded.size());
    unsigned n = 0;
    for (const auto &set : sets)
        for (const Way &w : set)
            n += w.valid;
    return n;
}

} // namespace memo::check
