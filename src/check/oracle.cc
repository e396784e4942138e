#include "oracle.hh"

#include "arith/fp.hh"
#include "arith/trivial.hh"

namespace memo::check
{

OracleTable::OracleTable(Operation op, const MemoConfig &cfg)
    : op(op), cfg(cfg)
{
}

void
OracleTable::reset()
{
    table.clear();
    stats_.reset();
}

bool
OracleTable::trivialResult(uint64_t a_bits, uint64_t b_bits,
                           uint64_t &result) const
{
    bool ext = cfg.extendedTrivial;
    switch (op) {
      case Operation::IntMul:
        if (auto t = trivialIntMul(static_cast<int64_t>(a_bits),
                                   static_cast<int64_t>(b_bits), ext)) {
            result = static_cast<uint64_t>(t->result);
            return true;
        }
        return false;
      case Operation::FpMul:
        if (auto t = trivialFpMul(fpFromBits(a_bits),
                                  fpFromBits(b_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      case Operation::FpDiv:
        if (auto t = trivialFpDiv(fpFromBits(a_bits),
                                  fpFromBits(b_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      case Operation::FpSqrt:
        if (auto t = trivialFpSqrt(fpFromBits(a_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      default:
        return false;
    }
}

bool
OracleTable::mantissaMode() const
{
    return cfg.tagMode == TagMode::MantissaOnly &&
           (op == Operation::FpMul || op == Operation::FpDiv ||
            op == Operation::FpSqrt);
}

bool
OracleTable::taggable(uint64_t a_bits, uint64_t b_bits) const
{
    if (!mantissaMode())
        return true;
    return fpIsNormal(fpFromBits(a_bits)) &&
           (isUnary(op) || fpIsNormal(fpFromBits(b_bits)));
}

OracleTable::Key
OracleTable::keyOf(uint64_t a_bits, uint64_t b_bits) const
{
    constexpr uint64_t frac_mask = (uint64_t{1} << fpMantissaBits) - 1;
    uint64_t ta = a_bits;
    uint64_t tb = isUnary(op) ? 0 : b_bits;
    if (mantissaMode()) {
        ta = a_bits & frac_mask;
        if (op == Operation::FpSqrt) {
            // sqrt(m) and sqrt(2m) differ in mantissa: the exponent's
            // parity is part of the tag identity.
            int e = static_cast<int>((a_bits >> fpMantissaBits) & 0x7ff) -
                    fpExponentBias;
            ta |= static_cast<uint64_t>(e & 1) << fpMantissaBits;
        } else {
            tb = b_bits & frac_mask;
        }
    }
    Key k{ta, tb};
    // Commutative canonical order — except both-NaN fp pairs, whose
    // products are not bit-commutative (the unit propagates the first
    // operand's payload); those keep exact operand order, mirroring
    // operand::swappable (core/operand.hh).
    bool swap_ok = isCommutative(op) &&
                   !(op == Operation::FpMul && fpIsNaNBits(a_bits) &&
                     fpIsNaNBits(b_bits));
    if (swap_ok && k.b < k.a)
        std::swap(k.a, k.b);
    return k;
}

int
OracleTable::resultExponent(uint64_t a_bits, uint64_t b_bits,
                            int delta) const
{
    int ea = static_cast<int>((a_bits >> fpMantissaBits) & 0x7ff);
    if (op == Operation::FpSqrt) {
        int ea_u = ea - fpExponentBias;
        return (ea_u - (ea_u & 1)) / 2 + delta + fpExponentBias;
    }
    int eb = static_cast<int>((b_bits >> fpMantissaBits) & 0x7ff);
    return op == Operation::FpMul ? ea + eb - fpExponentBias + delta
                                  : ea - eb + fpExponentBias + delta;
}

std::optional<uint64_t>
OracleTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    uint64_t trivial;
    if (cfg.trivialMode != TrivialMode::CacheAll &&
        trivialResult(a_bits, b_bits, trivial)) {
        if (cfg.trivialMode == TrivialMode::NonTrivialOnly) {
            stats_.trivialBypassed++;
            return std::nullopt;
        }
        stats_.lookups++;
        stats_.trivialHits++;
        return trivial;
    }

    stats_.lookups++;
    if (!taggable(a_bits, b_bits)) {
        stats_.misses++;
        return std::nullopt;
    }

    auto it = table.find(keyOf(a_bits, b_bits));
    if (it == table.end()) {
        stats_.misses++;
        return std::nullopt;
    }

    uint64_t result = it->second.value;
    if (mantissaMode()) {
        unsigned sign = 0;
        if (op == Operation::FpSqrt) {
            if (a_bits >> 63) {
                // sqrt of a negative: the entry (keyed on the
                // mantissa) cannot represent the NaN result.
                stats_.misses++;
                return std::nullopt;
            }
        } else {
            sign = static_cast<unsigned>((a_bits >> 63) ^
                                         (b_bits >> 63));
        }
        int e = resultExponent(a_bits, b_bits, it->second.delta);
        if (e < 1 || e > 2046) {
            stats_.misses++;
            return std::nullopt;
        }
        result = fpBits(fpCompose(sign, static_cast<unsigned>(e),
                                  it->second.value));
    }
    stats_.hits++;
    return result;
}

void
OracleTable::update(uint64_t a_bits, uint64_t b_bits,
                    uint64_t result_bits)
{
    uint64_t trivial;
    if (cfg.trivialMode != TrivialMode::CacheAll &&
        trivialResult(a_bits, b_bits, trivial))
        return;
    if (!taggable(a_bits, b_bits))
        return;

    Payload p{result_bits, 0};
    if (mantissaMode()) {
        double r = fpFromBits(result_bits);
        if (!fpIsNormal(r))
            return;
        if (op == Operation::FpSqrt && (a_bits >> 63))
            return;
        int er = static_cast<int>(fpBiasedExponent(r));
        int d = er - resultExponent(a_bits, b_bits, 0);
        // The stored delta is a narrow field: results whose
        // normalization shifted further are not representable.
        if (d < -2 || d > 2)
            return;
        // The payload must reproduce the exact result, including the
        // sign the table will reconstruct.
        unsigned sign = op == Operation::FpSqrt
                            ? 0u
                            : static_cast<unsigned>((a_bits >> 63) ^
                                                    (b_bits >> 63));
        if (er < 1 || er > 2046 ||
            fpBits(fpCompose(sign, static_cast<unsigned>(er),
                             fpFraction(r))) != result_bits)
            return;
        p = Payload{fpFraction(r), d};
    }

    auto [it, inserted] = table.insert_or_assign(keyOf(a_bits, b_bits),
                                                 p);
    (void)it;
    if (inserted)
        stats_.insertions++;
}

} // namespace memo::check
