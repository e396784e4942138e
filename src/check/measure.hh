/**
 * @file
 * Shared measurement entry points for the speedup/entropy experiments.
 *
 * The golden layer (golden.hh) covers the hit-ratio tables and the
 * geometry sweeps; this file covers the remaining EXPERIMENTS.md
 * content — the Multi-Media hit-ratio suite (Table 7), the Amdahl
 * speedup tables (Tables 11-13) and the entropy regressions
 * (Table 8 / Figure 2). The bench_* binaries and the memo-report
 * renderer both call these, so the committed EXPERIMENTS.md and the
 * interactive bench output can never disagree: they are two
 * pretty-printers over the same computation.
 *
 * The speedup tables use closed-form cycle accounting: each (app,
 * image) trace is generated once, reduced to a CostVector
 * (sim/cpu.hh) and probed once per memoized fp unit, and every cell
 * of all three tables is then a dot product of counts and latencies
 * (CpuModel::evaluate) instead of a replay. speedupCyclesReference()
 * keeps the replaying form as the oracle.
 *
 * The measure* entry points are selectors over the measurement plan
 * (plan.hh) restricted to their own stage, so everything here is
 * deterministic for the same reasons the goldens are: each trace is
 * generated once per plan and all aggregation is integer folds of
 * per-input replays in canonical order, at any thread count.
 */

#ifndef MEMO_CHECK_MEASURE_HH
#define MEMO_CHECK_MEASURE_HH

#include <array>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/lmfit.hh"
#include "core/stats.hh"
#include "sim/latency.hh"
#include "workloads/workload.hh"

namespace memo::check
{

/** The nine applications of the speedup tables (Tables 11-13). */
const std::vector<std::string> &speedupApps();

/** One Table 7 row: an MM kernel at 32/4 and infinite. */
struct MmRow
{
    std::string name;
    UnitHits h32;
    UnitHits hinf;
    bool operator==(const MmRow &) const = default; //!< Field-wise.
};

/** Table 7: all MM kernels plus per-unit averages (absent skipped). */
struct MmSuiteResult
{
    std::vector<MmRow> rows;
    UnitHits avg32;
    UnitHits avgInf;
    bool operator==(const MmSuiteResult &) const = default; //!< Field-wise.
};

/** Measure the Multi-Media suite, 32/4 vs infinite (Table 7). */
MmSuiteResult measureMmSuite();

/** Which unit(s) a speedup experiment memoizes. */
enum class SpeedupUnit
{
    FpDiv, //!< Table 11: division only, divider at 13 / 39 cycles
    FpMul, //!< Table 12: multiplication only, multiplier at 3 / 5
    Both,  //!< Table 13: both units, 3/13 (fast) and 5/39 (slow) FPUs
};

/** Number of SpeedupUnit values (the three speedup tables). */
constexpr unsigned numSpeedupUnits = 3;

/**
 * The fast (@p slow false) or slow FPU of one speedup table: Table 11
 * slows the divider to 39 cycles, Table 12 the multiplier to 5, and
 * Table 13 both; the fast FPU is 3/13 in all three.
 */
LatencyConfig speedupLatency(SpeedupUnit unit, bool slow);

/**
 * Cycle totals of one speedup variant (a table's unit(s) under one
 * FPU) over one trace, or summed over an application's images, plus
 * the memoized units' fp hit ratios (32/4 tables, hits and lookups
 * pooled over the images).
 */
struct AppCycles
{
    double hitRatioFpDiv = -1.0;  //!< -1 when the unit is not memoized
    double hitRatioFpMul = -1.0;
    uint64_t totalCycles = 0;     //!< baseline (no memo) cycles
    uint64_t fpDivCycles = 0;
    uint64_t fpMulCycles = 0;
    uint64_t memoTotalCycles = 0; //!< cycles with the unit(s) memoized
    bool operator==(const AppCycles &) const = default; //!< Field-wise.
};

/**
 * Every requested speedup variant of one trace or application:
 * cells[unit][0] is the fast FPU, cells[unit][1] the slow one. fpMul
 * and fpDiv are the 32/4 tables' statistics over the same trace(s).
 */
struct SpeedupCycles
{
    std::array<std::array<AppCycles, 2>, numSpeedupUnits> cells{};
    MemoStats fpMul;
    MemoStats fpDiv;

    AppCycles &
    cell(SpeedupUnit unit, bool slow)
    {
        return cells[static_cast<unsigned>(unit)][slow];
    }

    const AppCycles &
    cell(SpeedupUnit unit, bool slow) const
    {
        return cells[static_cast<unsigned>(unit)][slow];
    }
    bool operator==(const SpeedupCycles &) const = default; //!< Field-wise.
};

/**
 * The speedup variants of @p units over one trace, in closed form: one
 * CpuModel::costs() pass, one probe of fresh 32/4 fp-mul and fp-div
 * tables (hits do not depend on latency, so one count per unit serves
 * every variant), and a CpuModel::evaluate() per cell.
 * Hit ratios are left at -1; the statistics registry receives exactly
 * what speedupCyclesReference() folds (four sim.cpu runs per unit)
 * and no table or replay counters.
 */
SpeedupCycles speedupCycles(const Trace &trace,
                            const std::vector<SpeedupUnit> &units);

/**
 * The same cells by replay: per unit, a baseline and a memoized
 * CpuModel::run under each FPU, every memoized run on a fresh 32/4
 * bank. The oracle of the closed form (tests, the
 * closed_form_speed_gate denominator); do not optimize it.
 */
SpeedupCycles
speedupCyclesReference(const Trace &trace,
                       const std::vector<SpeedupUnit> &units);

/**
 * speedupCycles() over every (app, standard image) trace of @p apps at
 * @p max_dim, one work item per trace, pooled per app in image order
 * with the hit ratios filled in. Index-aligned with @p apps.
 */
std::vector<SpeedupCycles>
measureSpeedupCycles(const std::vector<std::string> &apps,
                     const std::vector<SpeedupUnit> &units, int max_dim);

/** One latency scenario of a speedup row (the fast or slow column). */
struct SpeedupCell
{
    double fe = 0.0;       //!< Amdahl Fraction Enhanced
    double se = 0.0;       //!< Speedup Enhanced of the memoized unit(s)
    double speedup = 0.0;  //!< analytic (Amdahl) speedup
    double measured = 0.0; //!< cycle-model speedup, baseline/memo
    bool operator==(const SpeedupCell &) const = default; //!< Field-wise.
};

/** One application's speedups under the fast and slow scenario. */
struct SpeedupRow
{
    std::string app;
    double hit = -1.0; //!< memoized unit's hit ratio (-1 for Both)
    SpeedupCell fast;
    SpeedupCell slow;
    bool operator==(const SpeedupRow &) const = default; //!< Field-wise.
};

/** A whole speedup table plus the paper-style averages. */
struct SpeedupResult
{
    std::vector<SpeedupRow> rows;
    double avgHit = -1.0; //!< average hit ratio (-1 for Both)
    double avgFast = 0.0; //!< average analytic speedup, fast scenario
    double avgSlow = 0.0;
    bool operator==(const SpeedupResult &) const = default; //!< Field-wise.
};

/** Tables 11, 12 and 13. */
struct SpeedupTables
{
    SpeedupResult fpDiv;
    SpeedupResult fpMul;
    SpeedupResult both;
    bool operator==(const SpeedupTables &) const = default; //!< Field-wise.
};

/**
 * Tables 11-13 from the per-app cycles of speedupApps(), measured
 * with all three units.
 */
SpeedupTables speedupTables(const std::vector<SpeedupCycles> &apps);

/**
 * Measure Tables 11-13 over the nine speedup apps from one pass over
 * their traces (measureSpeedupCycles with all three units).
 */
SpeedupTables measureSpeedupTables();

/** Measure one of Tables 11/12/13 (only @p unit's variants). */
SpeedupResult measureSpeedups(SpeedupUnit unit);

/** One image's entropy/hit-ratio sample (Table 8 / Figure 2). */
struct EntropyPoint
{
    std::string image;
    double entropyFull = 0.0; //!< whole-image entropy, bits
    double entropyWin = 0.0;  //!< mean 8x8-window entropy, bits
    double fpMulHit = 0.0;    //!< pooled over all MM kernels
    double fpDivHit = 0.0;
    bool operator==(const EntropyPoint &) const = default; //!< Field-wise.
};

/**
 * The four Figure 2 regressions: per-image points plus the
 * Marquardt-Levenberg best-fit line of each (unit x entropy kind).
 */
struct EntropyResult
{
    std::vector<EntropyPoint> points;
    FitResult divFull; //!< fp div vs whole-image entropy
    FitResult divWin;  //!< fp div vs 8x8 window entropy
    FitResult mulFull;
    FitResult mulWin;
    bool operator==(const EntropyResult &) const = default; //!< Field-wise.
};

/** Measure hit ratio vs image entropy (Table 8 / Figure 2). */
EntropyResult measureEntropy();

} // namespace memo::check

#endif // MEMO_CHECK_MEASURE_HH
