#include "memo_table.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <type_traits>

#include "arith/hash.hh"
#include "core/operand.hh"

namespace memo
{

MemoTable::MemoTable(Operation operation, const MemoConfig &config)
    : op(operation), cfg(config)
{
    assert(cfg.validate().empty());
    const bool finite = !cfg.infinite;
    shape_ = Shape{
        .op = op,
        .hash = cfg.hashScheme,
        .ways = cfg.ways,
        .indexBits = finite ? log2Exact(cfg.sets()) : 0,
        .filterTrivial = cfg.trivialMode != TrivialMode::CacheAll,
        .bypassTrivial = cfg.trivialMode == TrivialMode::NonTrivialOnly,
        .extended = cfg.extendedTrivial,
        .mantissa = operand::mantissaTags(op, cfg.tagMode),
        .unary = isUnary(op),
        .lru = finite && cfg.replacement == Replacement::Lru,
        .randomVictim = cfg.replacement == Replacement::Random,
        .parity = finite && cfg.parityProtected,
        .infinite = cfg.infinite,
    };
    if (finite)
        entries.resize(cfg.entries);
}

void
MemoTable::reset()
{
    flush();
    stats_.reset();
    tick = 0;
}

void
MemoTable::flush()
{
    for (auto &e : entries)
        e.valid = false;
    infTable.clear();
}

namespace
{

/** Parity over the protected entry fields. */
inline bool
entryParity(uint64_t tag_a, uint64_t tag_b, uint64_t value)
{
    return (std::popcount(tag_a) + std::popcount(tag_b) +
            std::popcount(value)) &
           1;
}

/**
 * Branch-free trivial pre-filter: false when the operands cannot be
 * trivial, because no zero / one / extended-set constant is involved.
 * Only the rare candidates take the full detector
 * (operand::trivial), which remains the single source of truth.
 * NaN/inf operands need no test here: the detectors classify them
 * non-trivial anyway.
 */
inline bool
mayBeTrivial(Operation op, bool ext, uint64_t a, uint64_t b)
{
    constexpr uint64_t kOneBits = 0x3ff0000000000000ULL;
    constexpr uint64_t kNegOneBits = 0xbff0000000000000ULL;
    bool rare = false;
    switch (op) {
      case Operation::IntMul:
        rare = (a == 0) | (b == 0) | (a == 1) | (b == 1);
        if (ext)
            rare |= (a == ~uint64_t{0}) | (b == ~uint64_t{0});
        break;
      case Operation::FpMul:
        rare = ((a << 1) == 0) | ((b << 1) == 0) | (a == kOneBits) |
               (b == kOneBits);
        if (ext)
            rare |= (a == kNegOneBits) | (b == kNegOneBits);
        break;
      case Operation::FpDiv:
        // b == ±0 / NaN / inf are non-trivial; a == b (the ext
        // DivBySelf test) compares equal as doubles iff the bits
        // match, zeros and NaNs having been ruled out by the detector.
        rare = ((a << 1) == 0) | (b == kOneBits);
        if (ext)
            rare |= (b == kNegOneBits) | (a == b);
        break;
      case Operation::FpSqrt:
        rare = ext & (((a << 1) == 0) | (a == kOneBits));
        break;
      default:
        break;
    }
    return rare;
}

/** setPhaseBoundaryFault() state; read once per boundary decision. */
std::atomic<bool> phase_boundary_fault{false};

} // anonymous namespace

void
setPhaseBoundaryFault(bool enabled)
{
    phase_boundary_fault.store(enabled, std::memory_order_relaxed);
}

void
MemoTable::phaseFlush()
{
    uint64_t stamp = accessStamp();
    uint64_t len = stamp - phase_->flushedThrough;
    if (len == 0)
        return;
    PhaseWindow row;
    row.start = phase_->flushedThrough;
    row.length = len;
    row.stats = statsDelta(stats_, phase_->last);
    row.occupancy = validEntries();
    unsigned sets = cfg.infinite ? 0 : cfg.sets();
    if (uint32_t *occ = phase_->push(row, sets)) {
        for (unsigned s = 0; s < sets; s++) {
            const Entry *set = &entries[static_cast<size_t>(s) *
                                        cfg.ways];
            uint32_t c = 0;
            for (unsigned w = 0; w < cfg.ways; w++)
                c += set[w].valid;
            occ[s] = c;
        }
    }
    phase_->last = stats_;
    phase_->flushedThrough = stamp;
}

void
MemoTable::finalizePhases()
{
    if (phase_)
        phaseFlush();
}

bool
MemoTable::injectBitFlip(unsigned set, unsigned way, unsigned bit)
{
    assert(!cfg.infinite);
    assert(set < cfg.sets() && way < cfg.ways && bit < 64);
    Entry &e = entries[static_cast<size_t>(set) * cfg.ways + way];
    if (!e.valid)
        return false;
    e.value ^= uint64_t{1} << bit;
    return true;
}

unsigned
MemoTable::validEntries() const
{
    if (cfg.infinite)
        return static_cast<unsigned>(infTable.size());
    unsigned n = 0;
    for (const auto &e : entries)
        n += e.valid;
    return n;
}

template <bool Hooked, unsigned Halves>
[[gnu::always_inline]] inline bool
MemoTable::kernel(const Shape &k, Entry *ents, MemoStats &st,
                  uint64_t &t, uint64_t a, uint64_t b, uint64_t r,
                  uint64_t &out)
{
    constexpr bool probe = Halves & kProbe;
    constexpr bool install = Halves & kInstall;

    // Decode. The set index is also every event's set field (0 for
    // infinite and single-set tables).
    const uint64_t set =
        operand::setIndex(k.op, k.hash, k.indexBits, a, b);
    auto emit = [&]([[maybe_unused]] TableEventKind kind) {
        if constexpr (Hooked)
            hooks_->onTableEvent(k.op, kind, static_cast<uint32_t>(set),
                                 st.lookups +
                                     st.trivialBypassed);
    };

    uint64_t trivial_result;
    if (k.filterTrivial && mayBeTrivial(k.op, k.extended, a, b) &&
        operand::trivial(k.op, k.extended, a, b, trivial_result)) {
        if constexpr (!probe) {
            return false; // never installed
        } else if (k.bypassTrivial) {
            // Filtered before the table.
            st.trivialBypassed++;
            emit(TableEventKind::TrivialBypass);
            return false;
        } else {
            // Integrated: the in-table detector supplies the result.
            st.lookups++;
            st.trivialHits++;
            emit(TableEventKind::TrivialHit);
            out = trivial_result;
            return true;
        }
    }
    if constexpr (probe)
        st.lookups++;
    if (k.mantissa && !operand::taggable(k.op, true, a, b)) {
        if constexpr (probe) {
            st.misses++;
            emit(TableEventKind::Miss);
        }
        return false;
    }
    const uint64_t tag_a = operand::tag(k.op, k.mantissa, a);
    const uint64_t tag_b =
        k.unary ? 0 : operand::tag(k.op, k.mantissa, b);
    const bool swap = operand::swappable(k.op, a, b);

    // Way search: the entry holding this pair, in either operand
    // order for commutative units (section 2.2).
    Entry *e = nullptr;
    InfKey key{tag_a, tag_b};
    Entry *const ways = ents + set * k.ways;
    if (k.infinite) {
        if (swap && key.b < key.a)
            std::swap(key.a, key.b);
        auto it = infTable.find(key);
        if (it != infTable.end())
            e = &it->second;
    } else {
        for (unsigned w = 0; w < k.ways; w++) {
            Entry &c = ways[w];
            if (c.valid &&
                ((c.tagA == tag_a && c.tagB == tag_b) ||
                 (swap && c.tagA == tag_b && c.tagB == tag_a))) {
                e = &c;
                break;
            }
        }
    }

    if constexpr (probe) {
        if (e && k.parity &&
            entryParity(e->tagA, e->tagB, e->value) != e->parity) {
            // Soft error detected: drop the entry, take the miss.
            e->valid = false;
            e = nullptr;
            st.parityMisses++;
            st.misses++;
            emit(TableEventKind::ParityAbort);
        } else {
            if (e) {
                out = e->value;
                if (!k.mantissa ||
                    operand::reconstruct(k.op, a, b, e->value, e->delta,
                                         out)) {
                    if (k.lru)
                        e->tick = ++t;
                    st.hits++;
                    emit(TableEventKind::Hit);
                    return true;
                }
                // Unrepresentable reconstruction: a miss, and the
                // install below rewrites this same entry.
            }
            st.misses++;
            emit(TableEventKind::Miss);
        }
    }

    if constexpr (install) {
        uint64_t value = r;
        int8_t delta = 0;
        if (k.mantissa &&
            !operand::payload(k.op, a, b, r, value, delta))
            return false;
        if (e) {
            // Already present: rewrite in place.
            if (k.lru)
                e->tick = ++t;
        } else {
            if (k.infinite) {
                e = &infTable[key];
            } else {
                // Victim: the first invalid way, else the policy's
                // choice (the rng is drawn only for a full set).
                for (unsigned w = 0; w < k.ways && !e; w++)
                    if (!ways[w].valid)
                        e = &ways[w];
                if (!e) {
                    if (k.randomVictim) {
                        // xorshift64 keeps runs deterministic.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        e = &ways[rng % k.ways];
                    } else {
                        // LRU and FIFO both evict the oldest tick;
                        // only LRU refreshes it on a hit.
                        e = &ways[0];
                        for (unsigned w = 1; w < k.ways; w++)
                            if (ways[w].tick < e->tick)
                                e = &ways[w];
                    }
                    st.evictions++;
                    emit(TableEventKind::Evict);
                }
            }
            e->valid = true;
            e->tagA = tag_a;
            e->tagB = tag_b;
            e->tick = ++t;
            st.insertions++;
            emit(TableEventKind::Insert);
        }
        e->value = value;
        e->delta = delta;
        e->parity = entryParity(e->tagA, e->tagB, value);
    }
    return false;
}

template <bool Hooked, unsigned Halves>
std::optional<uint64_t>
MemoTable::run(const uint64_t *a, const uint64_t *b, const uint64_t *r,
               size_t n)
{
    // A fused block keeps its counters in registers and folds them
    // back at the end and before each phase close; a single-half call
    // counts in place, as copying the counters in and out would cost
    // more than the access itself.
    constexpr bool block = Halves == (kProbe | kInstall);
    std::conditional_t<block, MemoStats, MemoStats &> st = stats_;
    std::conditional_t<block, uint64_t, uint64_t &> t = tick;
    auto fold = [&] {
        if constexpr (block) {
            stats_ = st;
            tick = t;
        }
    };
    const Shape k = shape_;
    Entry *const ents = entries.data();
    bool hit = false;
    uint64_t out = 0;

    // Phase windows (core/phase.hh) close at the start of the first
    // access past a boundary, so only calls that begin accesses can
    // close one. The accesses strip-mine into segments ending at
    // boundaries; the close is a cold per-window step that folds the
    // registers back first so stats_ is current for the row's deltas.
    PhaseAccum *const phase = (Halves & kProbe) ? phase_ : nullptr;
    uint64_t s = st.lookups + st.trivialBypassed;
    uint64_t next = 0;
    if (phase) {
        // The injected fault sees every boundary one access late.
        next = phase_->flushedThrough + phase_->window() +
               (phase_boundary_fault.load(std::memory_order_relaxed) ? 1
                                                                     : 0);
    }
    size_t i = 0;
    while (i < n) {
        size_t stop = n;
        if (phase) {
            if (s == next) {
                fold();
                phaseFlush();
                next += phase_->window();
            }
            // The close uses exact equality, so when s has already
            // passed next (only under the injected boundary fault)
            // the unsigned underflow makes the segment run to the end.
            uint64_t seg = std::min<uint64_t>(next - s, n - i);
            stop = i + static_cast<size_t>(seg);
            s += seg;
        }
        for (; i < stop; i++)
            hit = kernel<Hooked, Halves>(k, ents, st, t, a[i], b[i],
                                         (Halves & kInstall) ? r[i] : 0,
                                         out);
    }
    fold();
    if (!hit)
        return std::nullopt;
    return out;
}

std::optional<uint64_t>
MemoTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    return hooks_ ? run<true, kProbe>(&a_bits, &b_bits, nullptr, 1)
                  : run<false, kProbe>(&a_bits, &b_bits, nullptr, 1);
}

void
MemoTable::update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits)
{
    if (hooks_)
        run<true, kInstall>(&a_bits, &b_bits, &result_bits, 1);
    else
        run<false, kInstall>(&a_bits, &b_bits, &result_bits, 1);
}

void
MemoTable::probeBlock(const uint64_t *a_bits, const uint64_t *b_bits,
                      const uint64_t *result_bits, size_t n)
{
    if (hooks_)
        run<true, kProbe | kInstall>(a_bits, b_bits, result_bits, n);
    else
        run<false, kProbe | kInstall>(a_bits, b_bits, result_bits, n);
}

} // namespace memo
