/**
 * @file
 * Exactness of the closed-form cycle accounting (CostVector,
 * CpuModel::evaluate, check::speedupCycles) against the replaying
 * CpuModel::run it replaces in the speedup tables.
 *
 * Every (app, image) speedup trace, at a reduced crop, must give the
 * same SimResult under both FPUs and all three memo variants; the
 * per-app AppCycles (cycle sums and pooled hit ratios) must equal
 * what replaying the traces measures; and the statistics registry
 * must receive exactly the sim.cpu fold of the twelve replayed runs
 * per trace, and no table or replay counters. The full-scale form of
 * the same claim is the report_drift check of the committed
 * EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "check/differ.hh"
#include "check/measure.hh"
#include "img/generate.hh"
#include "obs/stats.hh"
#include "sim/cpu.hh"
#include "trace/recorder.hh"

namespace memo
{
namespace
{

using check::AppCycles;
using check::SpeedupCycles;
using check::SpeedupUnit;

/** Small enough to sweep all 126 speedup traces in a few seconds. */
constexpr int kCrop = 24;

const std::vector<SpeedupUnit> kUnits = {
    SpeedupUnit::FpDiv, SpeedupUnit::FpMul, SpeedupUnit::Both};

CpuModel
cpuFor(SpeedupUnit unit, bool slow)
{
    CpuConfig cfg;
    cfg.lat = check::speedupLatency(unit, slow);
    return CpuModel(cfg);
}

/** The memoized 32/4 bank of one speedup table. */
MemoBank
bankFor(SpeedupUnit unit)
{
    MemoBank bank;
    if (unit != SpeedupUnit::FpDiv)
        bank.addTable(Operation::FpMul, MemoConfig{});
    if (unit != SpeedupUnit::FpMul)
        bank.addTable(Operation::FpDiv, MemoConfig{});
    return bank;
}

std::map<Operation, MemoStats>
statsOf(const MemoBank &bank)
{
    std::map<Operation, MemoStats> out;
    for (Operation op : {Operation::FpMul, Operation::FpDiv})
        if (const MemoTable *t = bank.table(op))
            out[op] = t->stats();
    return out;
}

/**
 * One speedup cell of one app by replay: per image, a baseline run
 * and a memoized run on one bank flushed between images, cycles
 * summed and hits pooled over the images.
 */
AppCycles
replayAppCycles(const std::string &app, SpeedupUnit unit, bool slow)
{
    CpuModel cpu = cpuFor(unit, slow);
    MemoBank bank = bankFor(unit);
    AppCycles acc;
    for (const NamedImage &img : standardImages()) {
        auto trace =
            cachedMmKernelTrace(mmKernelByName(app), img, kCrop);
        SimResult base = cpu.run(*trace);
        acc.totalCycles += base.totalCycles;
        acc.fpDivCycles += base.cyclesOf(InstClass::FpDiv);
        acc.fpMulCycles += base.cyclesOf(InstClass::FpMul);
        if (MemoTable *t = bank.table(Operation::FpMul))
            t->flush();
        if (MemoTable *t = bank.table(Operation::FpDiv))
            t->flush();
        acc.memoTotalCycles += cpu.run(*trace, &bank).totalCycles;
    }
    if (const MemoTable *t = bank.table(Operation::FpDiv))
        if (t->stats().lookups)
            acc.hitRatioFpDiv = t->stats().hitRatio();
    if (const MemoTable *t = bank.table(Operation::FpMul))
        if (t->stats().lookups)
            acc.hitRatioFpMul = t->stats().hitRatio();
    return acc;
}

void
expectSameCycles(const AppCycles &want, const AppCycles &got,
                 const std::string &where)
{
    EXPECT_EQ(want.totalCycles, got.totalCycles) << where;
    EXPECT_EQ(want.fpDivCycles, got.fpDivCycles) << where;
    EXPECT_EQ(want.fpMulCycles, got.fpMulCycles) << where;
    EXPECT_EQ(want.memoTotalCycles, got.memoTotalCycles) << where;
    EXPECT_EQ(want.hitRatioFpDiv, got.hitRatioFpDiv) << where;
    EXPECT_EQ(want.hitRatioFpMul, got.hitRatioFpMul) << where;
}

/** The sim.cpu part of a registry snapshot, serialized. */
std::string
simCpuFold(const obs::Snapshot &snap)
{
    obs::Snapshot part;
    for (const auto &[name, v] : snap.counters)
        if (name.rfind("sim.cpu.", 0) == 0)
            part.counters[name] = v;
    for (const auto &[name, h] : snap.histograms)
        if (name.rfind("sim.cpu.", 0) == 0)
            part.histograms.emplace(name, h);
    return part.serialize();
}

TEST(CostVector, EvaluateMatchesRunOnEverySpeedupTrace)
{
    for (const std::string &app : check::speedupApps()) {
        for (const NamedImage &img : standardImages()) {
            auto trace =
                cachedMmKernelTrace(mmKernelByName(app), img, kCrop);
            const CostVector cv = CpuModel().costs(*trace);
            EXPECT_EQ(cv.instructions(), trace->size());
            for (SpeedupUnit unit : kUnits) {
                MemoBank probed = bankFor(unit);
                probeMemo(*trace, probed);
                for (bool slow : {false, true}) {
                    std::string where = app + "/" + img.name + " unit " +
                                        std::to_string(
                                            static_cast<int>(unit)) +
                                        (slow ? " slow" : " fast");
                    CpuModel cpu = cpuFor(unit, slow);
                    auto d = check::simResultsDiffer(cpu.run(*trace),
                                                     cpu.evaluate(cv));
                    EXPECT_FALSE(d) << where << " baseline: " << *d;
                    MemoBank replayed = bankFor(unit);
                    SimResult want = cpu.run(*trace, &replayed);
                    d = check::simResultsDiffer(
                        want, cpu.evaluate(cv, statsOf(probed)));
                    EXPECT_FALSE(d) << where << " memoized: " << *d;
                }
            }
        }
    }
}

TEST(CostVector, AppCyclesMatchTheReplayLoop)
{
    std::vector<SpeedupCycles> apps = check::measureSpeedupCycles(
        check::speedupApps(), kUnits, kCrop);
    ASSERT_EQ(apps.size(), check::speedupApps().size());
    for (size_t i = 0; i < apps.size(); i++) {
        const std::string &app = check::speedupApps()[i];
        for (SpeedupUnit unit : kUnits)
            for (bool slow : {false, true})
                expectSameCycles(replayAppCycles(app, unit, slow),
                                 apps[i].cell(unit, slow),
                                 app + " unit " +
                                     std::to_string(
                                         static_cast<int>(unit)) +
                                     (slow ? " slow" : " fast"));
    }
}

TEST(CostVector, RegistryFoldEqualsTheTwelveRunFold)
{
    auto &reg = obs::StatsRegistry::global();
    const std::string app = "vbrf";

    reg.reset();
    check::measureSpeedupCycles({app}, kUnits, kCrop);
    obs::Snapshot closed = reg.snapshot();

    reg.reset();
    for (SpeedupUnit unit : kUnits)
        for (bool slow : {false, true})
            replayAppCycles(app, unit, slow);
    obs::Snapshot replayed = reg.snapshot();
    reg.reset();

    EXPECT_EQ(replayed.counter("sim.cpu.runs"),
              12 * standardImages().size());
    EXPECT_EQ(simCpuFold(replayed), simCpuFold(closed));
    // The closed form probes its tables without replayMemo's fold.
    for (const auto &[name, v] : closed.counters) {
        EXPECT_NE(name.rfind("analysis.replay.", 0), 0u) << name;
        EXPECT_NE(name.rfind("core.table.", 0), 0u) << name;
    }
}

TEST(CostVector, ReferenceCellsEqualClosedForm)
{
    auto trace = cachedMmKernelTrace(mmKernelByName("vgauss"),
                                     imageByName("chroms"), kCrop);
    SpeedupCycles closed = check::speedupCycles(*trace, kUnits);
    SpeedupCycles ref = check::speedupCyclesReference(*trace, kUnits);
    EXPECT_EQ(closed.fpMul, ref.fpMul);
    EXPECT_EQ(closed.fpDiv, ref.fpDiv);
    for (SpeedupUnit unit : kUnits)
        for (bool slow : {false, true})
            expectSameCycles(ref.cell(unit, slow),
                             closed.cell(unit, slow),
                             "unit " +
                                 std::to_string(static_cast<int>(unit)));
}

TEST(CostVector, RejectsEarlyOutAndForeignStatistics)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 0; i < 8; i++) {
        rec.div(10.0, 4.0);
        rec.alu(1);
    }
    CpuConfig early;
    early.earlyOutIntMul = true;
    EXPECT_THROW(CpuModel(early).costs(trace), std::invalid_argument);
    EXPECT_THROW(CpuModel(early).evaluate(CostVector{}),
                 std::invalid_argument);

    // Statistics of a table that saw some other stream.
    CpuModel cpu;
    MemoStats other;
    other.lookups = 3;
    EXPECT_THROW(cpu.evaluate(cpu.costs(trace),
                              {{Operation::FpDiv, other}}),
                 std::invalid_argument);
}

TEST(CostVector, HistogramRecordsWithMultiplicity)
{
    obs::Histogram once, many;
    for (int i = 0; i < 5; i++)
        once.record(13);
    many.record(13, 5);
    many.record(40, 0);
    EXPECT_EQ(once.counts(), many.counts());
    EXPECT_EQ(once.total(), many.total());
    EXPECT_EQ(once.sum(), many.sum());
}

} // anonymous namespace
} // namespace memo
