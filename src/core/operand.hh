/**
 * @file
 * Per-operand MEMO-TABLE semantics: everything one access derives from
 * its operand pair alone, independent of any table state.
 *
 *  - trivial-operation detection (Table 9);
 *  - taggability and the tag of each operand (full value, or mantissa
 *    only for Table 10);
 *  - the commutative swap rule (section 2.2);
 *  - the set index (section 3.1);
 *  - the mantissa-mode payload and the reconstruction of the full
 *    result from it.
 *
 * MemoTable's probe kernel and the independent check::ReferenceMemoTable
 * oracle both build on these helpers; storage, replacement, parity and
 * counters are implemented separately in each, so a differential
 * between the two checks the table state machine.
 */

#ifndef MEMO_CORE_OPERAND_HH
#define MEMO_CORE_OPERAND_HH

#include <cstdint>
#include <optional>

#include "arith/fp.hh"
#include "arith/hash.hh"
#include "arith/trivial.hh"
#include "core/config.hh"
#include "core/op.hh"

namespace memo::operand
{

/**
 * Trivial-operation detection: true when @p op on these operands is
 * trivial (x*0, x*1, x/1, 0/x, plus the extended set when
 * @p extended), with the result bits in @p result.
 */
inline bool
trivial(Operation op, bool extended, uint64_t a_bits, uint64_t b_bits,
        uint64_t &result)
{
    auto fp = [&](const std::optional<Trivial> &t) {
        if (t)
            result = fpBits(t->result);
        return t.has_value();
    };
    switch (op) {
      case Operation::IntMul: {
        auto t = trivialIntMul(static_cast<int64_t>(a_bits),
                               static_cast<int64_t>(b_bits), extended);
        if (t)
            result = static_cast<uint64_t>(t->result);
        return t.has_value();
      }
      case Operation::FpMul:
        return fp(trivialFpMul(fpFromBits(a_bits), fpFromBits(b_bits),
                               extended));
      case Operation::FpDiv:
        return fp(trivialFpDiv(fpFromBits(a_bits), fpFromBits(b_bits),
                               extended));
      case Operation::FpSqrt:
        return fp(trivialFpSqrt(fpFromBits(a_bits), extended));
      default:
        return false;
    }
}

/**
 * True iff a table for @p op under @p mode uses mantissa-only tags.
 * The mantissa-only design covers the operations whose result
 * exponent is a simple function of the operand exponents:
 * multiply/divide (sum/difference) and square root (halving, with the
 * exponent's parity folded into the tag since sqrt(m) and sqrt(2m)
 * have different mantissas).
 */
constexpr bool
mantissaTags(Operation op, TagMode mode)
{
    return mode == TagMode::MantissaOnly &&
           (op == Operation::FpMul || op == Operation::FpDiv ||
            op == Operation::FpSqrt);
}

/**
 * True when this access can be tagged. Mantissa tags collide across
 * numbers with equal fractions (that is the point), but
 * zero/subnormal/inf/NaN have no meaningful mantissa identity; those
 * accesses bypass a mantissa-mode table.
 */
inline bool
taggable(Operation op, bool mantissa, uint64_t a_bits, uint64_t b_bits)
{
    if (!mantissa)
        return true;
    return fpIsNormal(fpFromBits(a_bits)) &&
           (isUnary(op) || fpIsNormal(fpFromBits(b_bits)));
}

/** Tag of one operand: its full bits, or its mantissa (+ sqrt parity). */
inline uint64_t
tag(Operation op, bool mantissa, uint64_t operand_bits)
{
    if (!mantissa)
        return operand_bits;
    uint64_t frac = operand_bits & ((uint64_t{1} << fpMantissaBits) - 1);
    if (op == Operation::FpSqrt) {
        // Fold the exponent's parity into the tag: the result
        // mantissa depends on it.
        int e = static_cast<int>((operand_bits >> fpMantissaBits) &
                                 0x7ff) -
                fpExponentBias;
        frac |= static_cast<uint64_t>(e & 1) << fpMantissaBits;
    }
    return frac;
}

/**
 * True when swapped-order (commutative) matching preserves bit
 * transparency for this operand pair. a*b and b*a are bit-identical
 * except when both operands are NaN: the unit then propagates the
 * *first* operand's payload, so the swapped-order result differs and
 * those accesses must match in exact order only.
 */
inline bool
swappable(Operation op, uint64_t a_bits, uint64_t b_bits)
{
    if (!isCommutative(op))
        return false;
    return !(op == Operation::FpMul && fpIsNaNBits(a_bits) &&
             fpIsNaNBits(b_bits));
}

/** Set index of an access in a table with 2^@p index_bits sets. */
inline uint64_t
setIndex(Operation op, HashScheme hash, unsigned index_bits,
         uint64_t a_bits, uint64_t b_bits)
{
    if (index_bits == 0)
        return 0;
    if (op == Operation::IntMul)
        return indexInt(a_bits, b_bits, index_bits);
    if (isUnary(op))
        return indexFpUnary(a_bits, index_bits);
    if (hash == HashScheme::Additive)
        return indexFpSum(a_bits, b_bits, index_bits);
    return indexFp(a_bits, b_bits, index_bits);
}

/**
 * The biased result exponent the operand exponents predict for a
 * mantissa-mode table, before the payload's adjustment. @return false
 * for the square root of a negative, which has no mantissa payload.
 */
inline bool
baseExponent(Operation op, uint64_t a_bits, uint64_t b_bits, int &e)
{
    double a = fpFromBits(a_bits);
    int ea = static_cast<int>(fpBiasedExponent(a));
    if (op == Operation::FpSqrt) {
        if (fpSign(a))
            return false;
        int ea_u = ea - fpExponentBias;
        e = (ea_u - (ea_u & 1)) / 2 + fpExponentBias;
        return true;
    }
    int eb = static_cast<int>(fpBiasedExponent(fpFromBits(b_bits)));
    e = op == Operation::FpMul ? ea + eb - fpExponentBias
                               : ea - eb + fpExponentBias;
    return true;
}

/**
 * Reconstruct the full result from a mantissa-mode payload (result
 * fraction @p frac and exponent adjustment @p delta).
 * @return false when the reconstructed exponent is unrepresentable.
 */
inline bool
reconstruct(Operation op, uint64_t a_bits, uint64_t b_bits, uint64_t frac,
            int delta, uint64_t &result)
{
    int e;
    if (!baseExponent(op, a_bits, b_bits, e))
        return false;
    e += delta;
    if (e < 1 || e > 2046)
        return false;
    unsigned sign = op == Operation::FpSqrt
                        ? 0
                        : fpSign(fpFromBits(a_bits)) ^
                              fpSign(fpFromBits(b_bits));
    result = fpBits(fpCompose(sign, static_cast<unsigned>(e), frac));
    return true;
}

/**
 * Derive the mantissa-mode payload (result fraction and exponent
 * delta) of @p result_bits. @return false when the result cannot be
 * represented, or would not reconstruct bit-exactly.
 */
inline bool
payload(Operation op, uint64_t a_bits, uint64_t b_bits,
        uint64_t result_bits, uint64_t &frac, int8_t &delta)
{
    double r = fpFromBits(result_bits);
    int e;
    if (!fpIsNormal(r) || !baseExponent(op, a_bits, b_bits, e))
        return false;
    int d = static_cast<int>(fpBiasedExponent(r)) - e;
    if (d < -2 || d > 2)
        return false;
    frac = fpFraction(r);
    delta = static_cast<int8_t>(d);
    // Safety: the payload must reproduce the exact result.
    uint64_t check;
    return reconstruct(op, a_bits, b_bits, frac, d, check) &&
           check == result_bits;
}

} // namespace memo::operand

#endif // MEMO_CORE_OPERAND_HH
