#include "shared_table.hh"

namespace memo
{

SharedMemoTable::SharedMemoTable(Operation op, const MemoConfig &cfg,
                                 unsigned ports_)
    : inner(op, cfg), ports(ports_)
{
}

std::pair<uint64_t, uint64_t>
SharedMemoTable::canonical(uint64_t a, uint64_t b) const
{
    if (isCommutative(inner.operation()) && b < a)
        std::swap(a, b);
    return {a, b};
}

std::optional<uint64_t>
SharedMemoTable::lookup(unsigned cu_id, uint64_t cycle, uint64_t a_bits,
                        uint64_t b_bits)
{
    if (cycle != currentCycle) {
        currentCycle = cycle;
        accessesThisCycle = 0;
    }
    if (++accessesThisCycle > ports) {
        conflicts++;
        return std::nullopt;
    }
    auto result = inner.lookup(a_bits, b_bits);
    if (result) {
        auto it = writers.find(canonical(a_bits, b_bits));
        if (it != writers.end() && it->second != cu_id)
            crossHits++;
    }
    return result;
}

void
SharedMemoTable::update(unsigned cu_id, uint64_t a_bits, uint64_t b_bits,
                        uint64_t result_bits)
{
    inner.update(a_bits, b_bits, result_bits);
    writers[canonical(a_bits, b_bits)] = cu_id;
}

void
SharedMemoTable::reset()
{
    inner.reset();
    writers.clear();
    currentCycle = ~uint64_t{0};
    accessesThisCycle = 0;
    crossHits = 0;
    conflicts = 0;
}

} // namespace memo
