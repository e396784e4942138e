/**
 * @file
 * Compact structure-of-arrays storage for dynamic instruction traces.
 *
 * The AoS layout (vector<Instruction>, 40 bytes per record after
 * padding) stores four 64-bit payload words for every instruction,
 * but most of a trace is IntAlu/Branch (no payload at all) and
 * Load/Store (address only). The store keeps per-instruction columns
 * for the fields every record has — class, synthetic PC, and a payload
 * index — and stores each payload word once: operand/result words in
 * the columns of the record's class, addresses in one address column.
 *
 *   IntAlu/Branch   9 bytes/record   (vs 40)
 *   Load/Store     17 bytes/record   (vs 40)
 *   mul/div/...    33 bytes/record   (vs 40)
 *
 * which streams ~2-3x less memory per instruction through the replay
 * loops (CpuModel::run, OpMix counting). Iteration materializes
 * lightweight Instruction values through a forward iterator, so replay
 * code is written exactly as before; batched replay (replayMemo)
 * streams the per-class operand columns directly.
 *
 * push() keeps only the fields meaningful for the instruction's
 * class: operand/result words of non-computational classes and
 * addresses of non-memory classes are dropped (the Recorder never
 * sets them).
 */

#ifndef MEMO_TRACE_TRACE_STORE_HH
#define MEMO_TRACE_TRACE_STORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "trace/instruction.hh"

namespace memo
{

/** Column-oriented trace storage; records are append-only. */
class TraceStore
{
  public:
    /** The operand words of one class, in trace order. */
    struct ClassColumns
    {
        std::vector<uint64_t> a, b, r;
    };

    /** True for classes carrying operand/result payload words. */
    static constexpr bool
    hasOperands(InstClass cls)
    {
        switch (cls) {
          case InstClass::IntMul:
          case InstClass::FpAdd:
          case InstClass::FpMul:
          case InstClass::FpDiv:
          case InstClass::FpSqrt:
          case InstClass::FpLog:
          case InstClass::FpSin:
          case InstClass::FpCos:
          case InstClass::FpExp:
            return true;
          default:
            return false;
        }
    }

    /** True for classes carrying an effective address. */
    static constexpr bool
    hasAddress(InstClass cls)
    {
        return cls == InstClass::Load || cls == InstClass::Store;
    }

    void
    push(const Instruction &inst)
    {
        cls_.push_back(static_cast<uint8_t>(inst.cls));
        pc_.push_back(inst.pc);
        if (hasOperands(inst.cls)) {
            ClassColumns &c = ops_[static_cast<uint8_t>(inst.cls)];
            payload_.push_back(static_cast<uint32_t>(c.a.size()));
            c.a.push_back(inst.a);
            c.b.push_back(inst.b);
            c.r.push_back(inst.result);
        } else if (hasAddress(inst.cls)) {
            payload_.push_back(static_cast<uint32_t>(addr_.size()));
            addr_.push_back(inst.addr);
        } else {
            payload_.push_back(0);
        }
    }

    /** Materialize record @p i. */
    Instruction
    get(size_t i) const
    {
        Instruction inst;
        inst.cls = static_cast<InstClass>(cls_[i]);
        inst.pc = pc_[i];
        if (hasOperands(inst.cls)) {
            const ClassColumns &c = ops_[cls_[i]];
            uint32_t p = payload_[i];
            inst.a = c.a[p];
            inst.b = c.b[p];
            inst.result = c.r[p];
        } else if (hasAddress(inst.cls)) {
            inst.addr = addr_[payload_[i]];
        }
        return inst;
    }

    size_t size() const { return cls_.size(); }
    bool empty() const { return cls_.empty(); }

    /**
     * Raw per-record class and address columns, for consumers that
     * walk a trace column-wise (the CPU cost pass in sim/cpu.cc).
     */
    const uint8_t *clsData() const { return cls_.data(); }
    const uint64_t *addrData() const { return addr_.data(); }

    /**
     * The a/b/result words of every record of class @p cls, contiguous
     * and in trace order (empty for classes without operands). Batched
     * replay streams these columns directly. The reference stays valid
     * while the store exists; push() may reallocate the vectors.
     */
    const ClassColumns &
    classColumns(InstClass cls) const
    {
        return ops_[static_cast<uint8_t>(cls)];
    }

    void
    clear()
    {
        cls_.clear();
        pc_.clear();
        payload_.clear();
        for (ClassColumns &c : ops_) {
            c.a.clear();
            c.b.clear();
            c.r.clear();
        }
        addr_.clear();
    }

    /**
     * Reserve the per-record columns for @p n records. The operand and
     * address columns grow on demand: their share of a trace depends
     * on the workload's class mix.
     */
    void
    reserve(size_t n)
    {
        cls_.reserve(n);
        pc_.reserve(n);
        payload_.reserve(n);
    }

    /** Bytes held by the record data (excluding slack capacity). */
    size_t
    memoryBytes() const
    {
        size_t operands = 0;
        for (const ClassColumns &c : ops_)
            operands += c.a.size();
        return cls_.size() * (sizeof(uint8_t) + sizeof(uint32_t) * 2) +
               operands * sizeof(uint64_t) * 3 +
               addr_.size() * sizeof(uint64_t);
    }

    /** Per-class record counts, computed from the class column. */
    std::vector<uint64_t> classCounts() const;

    /** Forward iterator materializing Instruction values. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Instruction;
        using difference_type = ptrdiff_t;
        using pointer = const Instruction *;
        using reference = Instruction;

        const_iterator() = default;
        const_iterator(const TraceStore *s, size_t i)
            : store(s), idx(i)
        {
        }

        Instruction operator*() const { return store->get(idx); }

        const_iterator &
        operator++()
        {
            idx++;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            idx++;
            return tmp;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return idx == o.idx;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return idx != o.idx;
        }

      private:
        const TraceStore *store = nullptr;
        size_t idx = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    // Per-record columns.
    std::vector<uint8_t> cls_;
    std::vector<uint32_t> pc_;
    std::vector<uint32_t> payload_; //!< index into ops_[cls] or addr_

    // Side columns, indexed by payload_.
    std::array<ClassColumns, numInstClasses> ops_;
    std::vector<uint64_t> addr_;
};

} // namespace memo

#endif // MEMO_TRACE_TRACE_STORE_HH
