#include "measure.hh"

#include <cmath>

#include "check/golden.hh"
#include "exec/parallel.hh"
#include "img/entropy.hh"
#include "img/generate.hh"
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
    MemoConfig c32;
    MemoConfig cinf;
    cinf.infinite = true;

    MmSuiteResult out;
    double s32[3] = {}, sinf[3] = {};
    int n32[3] = {}, ninf[3] = {};
    for (const auto &k : mmKernels()) {
        if (k.name == "vsqrt")
            continue; // not part of Table 7
        auto hits = measureMmKernelConfigs(k, {c32, cinf}, goldenCrop);
        MmRow row{k.name, hits[0], hits[1]};
        double h32v[3] = {row.h32.intMul, row.h32.fpMul, row.h32.fpDiv};
        double hinfv[3] = {row.hinf.intMul, row.hinf.fpMul,
                           row.hinf.fpDiv};
        for (int j = 0; j < 3; j++) {
            if (h32v[j] >= 0) {
                s32[j] += h32v[j];
                n32[j]++;
            }
            if (hinfv[j] >= 0) {
                sinf[j] += hinfv[j];
                ninf[j]++;
            }
        }
        out.rows.push_back(std::move(row));
    }
    auto avg = [](double s, int n) { return n ? s / n : -1.0; };
    out.avg32 = {avg(s32[0], n32[0]), avg(s32[1], n32[1]),
                 avg(s32[2], n32[2])};
    out.avgInf = {avg(sinf[0], ninf[0]), avg(sinf[1], ninf[1]),
                  avg(sinf[2], ninf[2])};
    return out;
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
    // Trace-major: one work item per (app, image) trace, fetched once
    // for every table it contributes to.
    const auto &images = standardImages();
    const size_t n_img = images.size();
    std::vector<SpeedupCycles> per_trace =
        exec::sweep(apps.size() * n_img, [&](size_t idx) {
            auto trace =
                cachedMmKernelTrace(mmKernelByName(apps[idx / n_img]),
                                    images[idx % n_img], max_dim);
            return speedupCycles(*trace, units);
        });

    // Pool each app's images in image order: integer sums, so the
    // result is independent of scheduling.
    std::vector<SpeedupCycles> out(apps.size());
    for (size_t idx = 0; idx < per_trace.size(); idx++) {
        SpeedupCycles &app = out[idx / n_img];
        const SpeedupCycles &tr = per_trace[idx];
        for (unsigned u = 0; u < numSpeedupUnits; u++) {
            for (unsigned f = 0; f < 2; f++) {
                AppCycles &acc = app.cells[u][f];
                const AppCycles &c = tr.cells[u][f];
                acc.totalCycles += c.totalCycles;
                acc.fpDivCycles += c.fpDivCycles;
                acc.fpMulCycles += c.fpMulCycles;
                acc.memoTotalCycles += c.memoTotalCycles;
            }
        }
        app.fpMul.merge(tr.fpMul);
        app.fpDiv.merge(tr.fpDiv);
    }
    for (SpeedupCycles &app : out) {
        for (SpeedupUnit u : units) {
            for (bool slow : {false, true}) {
                AppCycles &c = app.cell(u, slow);
                if (memoizesMul(u) && app.fpMul.lookups)
                    c.hitRatioFpMul = app.fpMul.hitRatio();
                if (memoizesDiv(u) && app.fpDiv.lookups)
                    c.hitRatioFpDiv = app.fpDiv.hitRatio();
            }
        }
    }
    return out;
}

SpeedupTables
measureSpeedupTables()
{
    std::vector<SpeedupCycles> apps = measureSpeedupCycles(
        speedupApps(),
        {SpeedupUnit::FpDiv, SpeedupUnit::FpMul, SpeedupUnit::Both},
        goldenCrop);
    return {speedupTable(SpeedupUnit::FpDiv, apps),
            speedupTable(SpeedupUnit::FpMul, apps),
            speedupTable(SpeedupUnit::Both, apps)};
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
    // One work item per standard image; inputs whose entropy is
    // undefined (the FLOAT images, Table 8 "-") come back invalid.
    struct Sample
    {
        bool valid = false;
        EntropyPoint point;
    };
    std::vector<Sample> samples =
        exec::sweep(standardImages(), [&](const NamedImage &ni) {
            Sample s;
            double ef = imageEntropy(ni.image);
            if (std::isnan(ef))
                return s;
            s.valid = true;
            s.point.image = ni.name;
            s.point.entropyFull = ef;
            s.point.entropyWin = windowEntropy(ni.image, 8);

            // Pool both fp units' hits over every MM kernel (tables
            // flushed between kernels, statistics accumulated).
            MemoBank bank = MemoBank::standard(MemoConfig{});
            for (const auto &k : mmKernels()) {
                if (k.name == "vsqrt")
                    continue;
                auto trace = cachedMmKernelTrace(k, ni, goldenCrop);
                bank.table(Operation::FpMul)->flush();
                bank.table(Operation::FpDiv)->flush();
                replayMemo(*trace, bank);
            }
            s.point.fpMulHit =
                bank.table(Operation::FpMul)->stats().hitRatio();
            s.point.fpDivHit =
                bank.table(Operation::FpDiv)->stats().hitRatio();
            return s;
        });

    EntropyResult out;
    std::vector<double> e_full, e_win, mul_hr, div_hr;
    for (const Sample &s : samples) {
        if (!s.valid)
            continue;
        out.points.push_back(s.point);
        e_full.push_back(s.point.entropyFull);
        e_win.push_back(s.point.entropyWin);
        mul_hr.push_back(s.point.fpMulHit);
        div_hr.push_back(s.point.fpDivHit);
    }
    out.divFull = fitLine(e_full, div_hr);
    out.divWin = fitLine(e_win, div_hr);
    out.mulFull = fitLine(e_full, mul_hr);
    out.mulWin = fitLine(e_win, mul_hr);
    return out;
}

} // namespace memo::check
