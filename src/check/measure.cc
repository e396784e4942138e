#include "measure.hh"

#include "check/plan.hh"
#include "sim/amdahl.hh"
#include "sim/cpu.hh"

namespace memo::check
{

const std::vector<std::string> &
speedupApps()
{
    // The nine applications of Tables 11 and 12.
    static const std::vector<std::string> apps = {
        "venhance", "vbrf", "vsqrt", "vslope", "vbpf",
        "vkmeans", "vspatial", "vgauss", "vgpwl",
    };
    return apps;
}

MmSuiteResult
measureMmSuite()
{
    PlanRequest req;
    req.mmSuite = true;
    return runPlan(req).mmSuite;
}

LatencyConfig
speedupLatency(SpeedupUnit unit, bool slow)
{
    if (!slow)
        return LatencyConfig::custom(3, 13);
    switch (unit) {
      case SpeedupUnit::FpDiv:
        return LatencyConfig::custom(3, 39);
      case SpeedupUnit::FpMul:
        return LatencyConfig::custom(5, 13);
      case SpeedupUnit::Both:
      default:
        return LatencyConfig::custom(5, 39);
    }
}

namespace
{

bool
memoizesMul(SpeedupUnit unit)
{
    return unit != SpeedupUnit::FpDiv;
}

bool
memoizesDiv(SpeedupUnit unit)
{
    return unit != SpeedupUnit::FpMul;
}

/** One trace's cycle totals from a baseline and a memoized result. */
AppCycles
cyclesOf(const SimResult &base, const SimResult &memo)
{
    AppCycles c;
    c.totalCycles = base.totalCycles;
    c.fpDivCycles = base.cyclesOf(InstClass::FpDiv);
    c.fpMulCycles = base.cyclesOf(InstClass::FpMul);
    c.memoTotalCycles = memo.totalCycles;
    return c;
}

CpuModel
speedupCpu(SpeedupUnit unit, bool slow)
{
    CpuConfig cfg;
    cfg.lat = speedupLatency(unit, slow);
    return CpuModel(cfg);
}

/** The 32/4 tables of @p unit's memoized run (section 3.3). */
MemoBank
speedupBank(SpeedupUnit unit)
{
    MemoBank bank;
    if (memoizesMul(unit))
        bank.addTable(Operation::FpMul, MemoConfig{});
    if (memoizesDiv(unit))
        bank.addTable(Operation::FpDiv, MemoConfig{});
    return bank;
}

/** The fast/slow memoized unit latencies of a single-unit table. */
unsigned
unitLatency(SpeedupUnit unit, bool slow)
{
    LatencyConfig lat = speedupLatency(unit, slow);
    return unit == SpeedupUnit::FpDiv ? lat[InstClass::FpDiv]
                                      : lat[InstClass::FpMul];
}

/** One scenario of a division- or multiplication-only row. */
SpeedupCell
singleUnitCell(const AppCycles &c, SpeedupUnit unit, unsigned unit_lat,
               double hit)
{
    SpeedupCell cell;
    uint64_t unit_cycles = unit == SpeedupUnit::FpDiv ? c.fpDivCycles
                                                      : c.fpMulCycles;
    cell.fe = static_cast<double>(unit_cycles) / c.totalCycles;
    cell.se = speedupEnhanced(unit_lat, hit);
    cell.speedup = amdahlSpeedup(cell.fe, cell.se);
    cell.measured = static_cast<double>(c.totalCycles) /
                    c.memoTotalCycles;
    return cell;
}

/** One scenario of a both-units row (Table 13's combined Amdahl). */
SpeedupCell
combinedCell(const AppCycles &c, unsigned mul_lat, unsigned div_lat)
{
    double hit_m = c.hitRatioFpMul < 0 ? 0.0 : c.hitRatioFpMul;
    double hit_d = c.hitRatioFpDiv < 0 ? 0.0 : c.hitRatioFpDiv;
    std::vector<EnhancedUnit> units = {
        {static_cast<double>(c.fpMulCycles) / c.totalCycles,
         speedupEnhanced(mul_lat, hit_m)},
        {static_cast<double>(c.fpDivCycles) / c.totalCycles,
         speedupEnhanced(div_lat, hit_d)},
    };
    SpeedupCell cell;
    cell.fe = units[0].fe + units[1].fe;
    cell.se = combinedSe(units);
    cell.speedup = amdahlSpeedupMulti(units);
    cell.measured = static_cast<double>(c.totalCycles) /
                    c.memoTotalCycles;
    return cell;
}

/** One speedup table from the per-app cycles of speedupApps(). */
SpeedupResult
speedupTable(SpeedupUnit unit, const std::vector<SpeedupCycles> &apps)
{
    SpeedupResult out;
    for (size_t i = 0; i < apps.size(); i++) {
        const AppCycles &fast = apps[i].cell(unit, false);
        const AppCycles &slow = apps[i].cell(unit, true);
        SpeedupRow row;
        row.app = speedupApps()[i];
        if (unit == SpeedupUnit::Both) {
            row.fast = combinedCell(fast, 3, 13);
            row.slow = combinedCell(slow, 5, 39);
        } else {
            // The hit ratio is latency-independent; take the fast run's.
            double raw = unit == SpeedupUnit::FpDiv
                             ? fast.hitRatioFpDiv
                             : fast.hitRatioFpMul;
            row.hit = raw < 0 ? 0.0 : raw;
            row.fast = singleUnitCell(fast, unit,
                                      unitLatency(unit, false), row.hit);
            row.slow = singleUnitCell(slow, unit,
                                      unitLatency(unit, true), row.hit);
        }
        out.rows.push_back(std::move(row));
    }

    double sum_hit = 0.0, sum_fast = 0.0, sum_slow = 0.0;
    for (const SpeedupRow &row : out.rows) {
        sum_hit += row.hit < 0 ? 0.0 : row.hit;
        sum_fast += row.fast.speedup;
        sum_slow += row.slow.speedup;
    }
    double n = static_cast<double>(out.rows.size());
    if (unit != SpeedupUnit::Both)
        out.avgHit = sum_hit / n;
    out.avgFast = sum_fast / n;
    out.avgSlow = sum_slow / n;
    return out;
}

} // anonymous namespace

SpeedupCycles
speedupCycles(const Trace &trace, const std::vector<SpeedupUnit> &units)
{
    // Hits do not depend on latency: one probe per unit serves the
    // memoized run of every table and FPU.
    MemoBank bank = speedupBank(SpeedupUnit::Both);
    probeMemo(trace, bank);
    SpeedupCycles out;
    out.fpMul = bank.table(Operation::FpMul)->stats();
    out.fpDiv = bank.table(Operation::FpDiv)->stats();

    const CostVector cv = CpuModel().costs(trace);
    for (SpeedupUnit u : units) {
        std::map<Operation, MemoStats> memo;
        if (memoizesMul(u))
            memo[Operation::FpMul] = out.fpMul;
        if (memoizesDiv(u))
            memo[Operation::FpDiv] = out.fpDiv;
        for (bool slow : {false, true}) {
            CpuModel cpu = speedupCpu(u, slow);
            out.cell(u, slow) =
                cyclesOf(cpu.evaluate(cv), cpu.evaluate(cv, memo));
        }
    }
    return out;
}

SpeedupCycles
speedupCyclesReference(const Trace &trace,
                       const std::vector<SpeedupUnit> &units)
{
    SpeedupCycles out;
    for (SpeedupUnit u : units) {
        for (bool slow : {false, true}) {
            CpuModel cpu = speedupCpu(u, slow);
            MemoBank bank = speedupBank(u);
            SimResult base = cpu.run(trace);
            SimResult memo = cpu.run(trace, &bank);
            out.cell(u, slow) = cyclesOf(base, memo);
            if (const MemoTable *t = bank.table(Operation::FpMul))
                out.fpMul = t->stats();
            if (const MemoTable *t = bank.table(Operation::FpDiv))
                out.fpDiv = t->stats();
        }
    }
    return out;
}

std::vector<SpeedupCycles>
measureSpeedupCycles(const std::vector<std::string> &apps,
                     const std::vector<SpeedupUnit> &units, int max_dim)
{
    PlanRequest req;
    req.crop = max_dim;
    req.speedupApps = apps;
    req.speedupUnits = units;
    return runPlan(req).speedups;
}

SpeedupTables
speedupTables(const std::vector<SpeedupCycles> &apps)
{
    return {speedupTable(SpeedupUnit::FpDiv, apps),
            speedupTable(SpeedupUnit::FpMul, apps),
            speedupTable(SpeedupUnit::Both, apps)};
}

SpeedupTables
measureSpeedupTables()
{
    return speedupTables(measureSpeedupCycles(
        speedupApps(),
        {SpeedupUnit::FpDiv, SpeedupUnit::FpMul, SpeedupUnit::Both},
        goldenCrop));
}

SpeedupResult
measureSpeedups(SpeedupUnit unit)
{
    return speedupTable(
        unit, measureSpeedupCycles(speedupApps(), {unit}, goldenCrop));
}

EntropyResult
measureEntropy()
{
    PlanRequest req;
    req.entropy = true;
    return runPlan(req).entropy;
}

} // namespace memo::check
