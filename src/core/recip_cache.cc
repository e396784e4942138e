#include "recip_cache.hh"

#include <bit>
#include <cassert>

#include "arith/hash.hh"

namespace memo
{

ReciprocalCache::ReciprocalCache(unsigned entries_, unsigned ways_)
    : ways(ways_)
{
    assert(entries_ != 0 && std::has_single_bit(entries_));
    assert(ways_ != 0 && std::has_single_bit(ways_) && ways_ <= entries_);
    indexBits = log2Exact(entries_ / ways_);
    entries.resize(entries_);
}

void
ReciprocalCache::reset()
{
    for (auto &e : entries)
        e.valid = false;
    stats_.reset();
    tick = 0;
}

std::optional<uint64_t>
ReciprocalCache::lookup(uint64_t b_bits)
{
    stats_.lookups++;
    uint64_t index = indexFpUnary(b_bits, indexBits);
    Entry *set = &entries[index * ways];
    for (unsigned w = 0; w < ways; w++) {
        Entry &e = set[w];
        if (e.valid && e.divisor == b_bits) {
            e.tick = ++tick;
            stats_.hits++;
            return e.recip;
        }
    }
    stats_.misses++;
    return std::nullopt;
}

void
ReciprocalCache::update(uint64_t b_bits, uint64_t recip_bits)
{
    uint64_t index = indexFpUnary(b_bits, indexBits);
    Entry *set = &entries[index * ways];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < ways; w++) {
        Entry &e = set[w];
        if (e.valid && e.divisor == b_bits) {
            e.recip = recip_bits;
            e.tick = ++tick;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].tick < victim->tick)
            victim = &set[w];
    }
    if (victim->valid)
        stats_.evictions++;
    *victim = Entry{true, b_bits, recip_bits, ++tick};
    stats_.insertions++;
}

} // namespace memo
