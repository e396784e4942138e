/**
 * @file
 * Tests for the trace container and its column store, the Recorder
 * instrumentation facade and the Traced value wrapper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arith/fp.hh"
#include "core/aligned.hh"
#include "trace/recorder.hh"
#include "trace/trace_store.hh"
#include "trace/traced.hh"

namespace memo
{
namespace
{

TEST(Trace, OpMixCountsClasses)
{
    Trace trace;
    Recorder rec(trace);
    rec.mul(2.0, 3.0);
    rec.mul(4.0, 5.0);
    rec.div(6.0, 3.0);
    rec.alu(3);
    rec.branch();

    OpMix mix = trace.mix();
    EXPECT_EQ(mix[InstClass::FpMul], 2u);
    EXPECT_EQ(mix[InstClass::FpDiv], 1u);
    EXPECT_EQ(mix[InstClass::IntAlu], 3u);
    EXPECT_EQ(mix[InstClass::Branch], 1u);
    EXPECT_EQ(mix.total(), 7u);
    EXPECT_DOUBLE_EQ(mix.fraction(InstClass::FpDiv), 1.0 / 7.0);
}

/**
 * Record @p i of a hand-built trace that cycles through every class,
 * with only the fields push() keeps for that class set, so get() must
 * return it unchanged.
 */
Instruction
storeRecord(size_t i)
{
    Instruction inst;
    inst.cls = static_cast<InstClass>((i * 5) % numInstClasses);
    inst.pc = static_cast<uint32_t>(0x400 + 4 * i);
    if (TraceStore::hasOperands(inst.cls)) {
        inst.a = 0x1000 + i;
        inst.b = ~uint64_t(i);
        inst.result = i * 0x9e3779b97f4a7c15ull;
    } else if (TraceStore::hasAddress(inst.cls)) {
        inst.addr = 0x8000 + 32 * i;
    }
    return inst;
}

bool
sameInst(const Instruction &x, const Instruction &y)
{
    return x.cls == y.cls && x.pc == y.pc && x.a == y.a && x.b == y.b &&
           x.result == y.result && x.addr == y.addr;
}

/** Every class's column equals the per-class filter of iteration. */
void
expectColumnsMatchIteration(const TraceStore &store)
{
    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto cls = static_cast<InstClass>(c);
        TraceStore::ClassColumns want;
        for (const Instruction &inst : store) {
            if (inst.cls == cls && TraceStore::hasOperands(cls)) {
                want.a.push_back(inst.a);
                want.b.push_back(inst.b);
                want.r.push_back(inst.result);
            }
        }
        const TraceStore::ClassColumns &got = store.classColumns(cls);
        EXPECT_EQ(got.a, want.a) << instClassName(cls);
        EXPECT_EQ(got.b, want.b) << instClassName(cls);
        EXPECT_EQ(got.r, want.r) << instClassName(cls);
    }
}

TEST(TraceStore, ClassColumnsHoldEachClassInTraceOrder)
{
    constexpr size_t n = 10 * numInstClasses + 3;
    TraceStore store;
    for (size_t i = 0; i < n; i++)
        store.push(storeRecord(i));
    ASSERT_EQ(store.size(), n);

    for (size_t i = 0; i < n; i++)
        EXPECT_TRUE(sameInst(store.get(i), storeRecord(i))) << i;
    expectColumnsMatchIteration(store);
    EXPECT_TRUE(store.classColumns(InstClass::IntAlu).a.empty());
    EXPECT_TRUE(store.classColumns(InstClass::Load).a.empty());

    // A column read once keeps growing with the store.
    const TraceStore::ClassColumns &fpmul =
        store.classColumns(InstClass::FpMul);
    const size_t fpmul_before = fpmul.a.size();
    for (size_t i = n; i < 2 * n; i++)
        store.push(storeRecord(i));
    EXPECT_GT(fpmul.a.size(), fpmul_before);
    EXPECT_EQ(fpmul.a.size(),
              store.classCounts()[static_cast<size_t>(InstClass::FpMul)]);
    for (size_t i = 0; i < 2 * n; i++)
        EXPECT_TRUE(sameInst(store.get(i), storeRecord(i))) << i;
    expectColumnsMatchIteration(store);

    TraceStore copied(store);
    TraceStore assigned;
    assigned.push(storeRecord(1));
    assigned = store;
    for (const TraceStore *s : {&copied, &assigned}) {
        ASSERT_EQ(s->size(), store.size());
        for (unsigned c = 0; c < numInstClasses; c++) {
            const auto cls = static_cast<InstClass>(c);
            EXPECT_EQ(s->classColumns(cls).a, store.classColumns(cls).a);
            EXPECT_EQ(s->classColumns(cls).b, store.classColumns(cls).b);
            EXPECT_EQ(s->classColumns(cls).r, store.classColumns(cls).r);
        }
        for (size_t i = 0; i < store.size(); i++)
            EXPECT_TRUE(sameInst(s->get(i), store.get(i))) << i;
    }

    store.clear();
    EXPECT_TRUE(store.empty());
    EXPECT_EQ(store.memoryBytes(), 0u);
    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto &col = store.classColumns(static_cast<InstClass>(c));
        EXPECT_TRUE(col.a.empty() && col.b.empty() && col.r.empty());
    }
    EXPECT_EQ(copied.size(), 2 * n); // copies own their columns
}

TEST(TraceStore, MemoryBytesCountsEveryColumn)
{
    TraceStore store;
    size_t ops = 0, addrs = 0;
    constexpr size_t n = 1000;
    for (size_t i = 0; i < n; i++) {
        Instruction inst = storeRecord(i);
        ops += TraceStore::hasOperands(inst.cls);
        addrs += TraceStore::hasAddress(inst.cls);
        store.push(inst);
    }
    ASSERT_GT(ops, 0u);
    ASSERT_GT(addrs, 0u);
    // class + pc + payload index per record, a/b/result words per
    // operand record, one address word per Load/Store.
    EXPECT_EQ(store.memoryBytes(), 9 * n + 24 * ops + 8 * addrs);
}

TEST(Recorder, OperationsComputeCorrectly)
{
    Trace trace;
    Recorder rec(trace);
    EXPECT_EQ(rec.mul(2.5, 4.0), 10.0);
    EXPECT_EQ(rec.div(10.0, 4.0), 2.5);
    EXPECT_EQ(rec.sqrt(9.0), 3.0);
    EXPECT_EQ(rec.imul(6, 7), 42);
    EXPECT_EQ(rec.fadd(1.0, 2.0), 3.0);
    EXPECT_EQ(rec.fsub(1.0, 2.0), -1.0);
    EXPECT_EQ(rec.exp(0.0), 1.0);
    EXPECT_EQ(rec.log(1.0), 0.0);
    EXPECT_EQ(rec.sin(0.0), 0.0);
    EXPECT_EQ(rec.cos(0.0), 1.0);
}

TEST(Recorder, OperandsAndResultsRecorded)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 4.0);

    ASSERT_EQ(trace.size(), 1u);
    const Instruction &inst = trace[0];
    EXPECT_EQ(inst.cls, InstClass::FpDiv);
    EXPECT_EQ(inst.a, fpBits(10.0));
    EXPECT_EQ(inst.b, fpBits(4.0));
    EXPECT_EQ(inst.result, fpBits(2.5));
}

TEST(Recorder, LoadStoreRecordAddresses)
{
    Trace trace;
    Recorder rec(trace);
    alignas(kRecordedLineBytes) double data[16] = {};
    data[2] = 7.5;

    double v = rec.load(data[2]);
    EXPECT_EQ(v, 7.5);
    rec.store(data[3], 9.0);
    EXPECT_EQ(data[3], 9.0);

    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].cls, InstClass::Load);
    EXPECT_EQ(trace[1].cls, InstClass::Store);
    // data[2] and data[3] share one 32-byte modeled line (bytes
    // 16..31 of the aligned buffer): remapped line must agree, and
    // the intra-line offsets must survive the remap.
    EXPECT_EQ(trace[0].addr >> 5, trace[1].addr >> 5);
    EXPECT_EQ(trace[0].addr & 31u, 16u);
    EXPECT_EQ(trace[1].addr & 31u, 24u);
}

TEST(Recorder, AddressRemappingIsFirstTouchOrdered)
{
    // The first line touched maps to line 0, the second to line 1 ...
    Trace trace;
    Recorder rec(trace);
    AlignedVec<double> data(64, 0.0); // several 32-byte cache lines

    rec.load(data[0]);  // line A
    rec.load(data[32]); // line B (256 bytes away)
    rec.load(data[0]);  // line A again

    auto line = [&](int i) { return trace[i].addr >> 5; };
    EXPECT_EQ(line(0), 0u);
    EXPECT_EQ(line(1), 1u);
    EXPECT_EQ(line(2), line(0));
}

TEST(Recorder, PcStablePerCallSite)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 0; i < 3; i++)
        rec.mul(1.5 + i, 2.0); // one call site
    rec.mul(9.0, 2.0);         // a different call site

    uint32_t pc0 = trace[0].pc;
    EXPECT_EQ(trace[1].pc, pc0);
    EXPECT_EQ(trace[2].pc, pc0);
    EXPECT_NE(trace[3].pc, pc0);
}

TEST(Recorder, DeterministicAcrossRuns)
{
    auto make = [] {
        Trace trace;
        Recorder rec(trace);
        std::vector<double> buf(128, 1.0);
        for (int i = 0; i < 100; i++) {
            double v = rec.load(buf[(i * 7) % 128]);
            rec.mul(v, 1.5);
        }
        return trace;
    };
    Trace t1 = make();
    Trace t2 = make();
    ASSERT_EQ(t1.size(), t2.size());
    for (size_t i = 0; i < t1.size(); i++) {
        EXPECT_EQ(t1[i].addr, t2[i].addr);
        EXPECT_EQ(t1[i].a, t2[i].a);
        EXPECT_EQ(t1[i].pc, t2[i].pc);
    }
}

TEST(Traced, OperatorsRecord)
{
    Trace trace;
    Recorder rec(trace);
    TracedScope scope(rec);

    Traced a = 3.0, b = 4.0;
    Traced c = memo::sqrt(a * a + b * b);
    EXPECT_EQ(c.value(), 5.0);

    OpMix mix = trace.mix();
    EXPECT_EQ(mix[InstClass::FpMul], 2u);
    EXPECT_EQ(mix[InstClass::FpAdd], 1u);
    EXPECT_EQ(mix[InstClass::FpSqrt], 1u);
}

TEST(Traced, DivisionAndCompound)
{
    Trace trace;
    Recorder rec(trace);
    TracedScope scope(rec);

    Traced x = 10.0;
    x /= Traced(4.0);
    EXPECT_EQ(x.value(), 2.5);
    x *= Traced(2.0);
    EXPECT_EQ(x.value(), 5.0);
    EXPECT_TRUE(x > Traced(4.9));
    EXPECT_EQ(trace.mix()[InstClass::FpDiv], 1u);
}

TEST(Traced, ScopesNest)
{
    Trace outer_trace, inner_trace;
    Recorder outer(outer_trace), inner(inner_trace);

    TracedScope outer_scope(outer);
    { // inner scope temporarily rebinds
        TracedScope inner_scope(inner);
        Traced a = 2.0;
        (void)(a * a);
        EXPECT_EQ(TracedScope::current(), &inner);
    }
    EXPECT_EQ(TracedScope::current(), &outer);
    Traced b = 3.0;
    (void)(b * b);

    EXPECT_EQ(inner_trace.mix()[InstClass::FpMul], 1u);
    EXPECT_EQ(outer_trace.mix()[InstClass::FpMul], 1u);
}

} // anonymous namespace
} // namespace memo
