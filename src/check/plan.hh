/**
 * @file
 * The measurement plan: every paper measurement from one trace-major
 * pass.
 *
 * MEMO-TABLEs start empty for every input, so each (kernel, image) or
 * scientific trace is an independent unit whose statistics fold by
 * addition. runPlan() exploits that: it enumerates the trace keys the
 * requested stages need, runs one exec::sweep over work items that
 * each generate their own trace (no TraceCache), replay it through
 * every consumer of that key into fresh banks, and return a small
 * record of MemoStats and SpeedupCycles before dropping the trace.
 * The main thread then folds the records in canonical (kernel, image)
 * order into the result structs of golden.hh and measure.hh.
 *
 * Every trace is generated exactly once per plan, and peak memory is
 * about one trace per worker (a phase item also holds its concatenated
 * stream). Replays and registry folds are the same per-input integer
 * deltas the stage-by-stage measurements produced, so results and the
 * StatsRegistry snapshot are bit-identical at any thread count.
 *
 * The public check::measure* entry points are selectors over a plan
 * restricted to their own stage; buildExperimentsReport() and
 * memo-golden run one plan for everything they render.
 */

#ifndef MEMO_CHECK_PLAN_HH
#define MEMO_CHECK_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reuse.hh"
#include "check/golden.hh"
#include "check/measure.hh"
#include "obs/phase.hh"

namespace memo::check
{

/** Phase-chapter window length, in table accesses. */
constexpr uint64_t kPhaseWindow = 2048;

/** Standard images concatenated into each kernel's phased stream. */
constexpr size_t kPhaseImages = 4;

/** One application's phase measurement (the phase chapter). */
struct PhaseCell
{
    std::vector<obs::PhaseProfile> full; //!< default 32/4 config
    std::vector<obs::PhaseProfile> mant; //!< Table 10 mantissa-only
    std::vector<ReuseWindow> reuse;      //!< fp div windowed reuse
    bool partitionOk = true;  //!< window rows sum to the final stats
    bool reuseAligned = true; //!< reuse windows match table windows
};

/** What one plan measures; empty or false fields are skipped. */
struct PlanRequest
{
    int crop = goldenCrop; //!< crop of every MM kernel trace

    /** Tables 5/6: each suite at 32/4 and infinite. */
    std::vector<const std::vector<SciWorkload> *> sciSuites;
    bool mmSuite = false;  //!< Table 7
    bool entropy = false;  //!< Table 8 / Figure 2
    bool tagModes = false; //!< Table 10

    /** Table 9: these apps' units under the three trivial modes. */
    std::vector<std::string> trivialApps;
    std::vector<Operation> trivialOps;

    /** Figures 3/4: each sweep's configs over sweepKernelNames(). */
    std::vector<std::vector<MemoConfig>> sweeps;

    /** Tables 11-13: the closed-form cycles of these apps. */
    std::vector<std::string> speedupApps;
    std::vector<SpeedupUnit> speedupUnits;

    /** Phase chapter: each app's first kPhaseImages images. */
    std::vector<std::string> phaseApps;
};

/** Everything a plan measured, index-aligned with its request. */
struct PlanResult
{
    std::vector<SciSuiteResult> sciSuites;
    MmSuiteResult mmSuite;
    EntropyResult entropy;
    TagModeResult tagModes;
    /** trivial[app][op], in the request's app and op order. */
    std::vector<std::vector<TrivialModeRow>> trivial;
    std::vector<SweepBands> sweeps;
    std::vector<SpeedupCycles> speedups; //!< pooled per app
    std::vector<PhaseCell> phases;
};

/** Run @p req as one trace-major pass (see the file comment). */
PlanResult runPlan(const PlanRequest &req);

/** Slots of paperRequest()'s suites and sweeps. */
constexpr size_t kPerfectSuite = 0, kSpecSuite = 1;
constexpr size_t kFig3Sweep = 0, kFig4Sweep = 1;

/**
 * Every paper stage: Tables 5-13, Figures 2-4 and the phase chapter,
 * as buildExperimentsReport() renders them.
 */
PlanRequest paperRequest();

/** Process-wide plan totals since start-up (monotone). */
struct PlanTotals
{
    uint64_t runs = 0;       //!< runPlan() calls
    uint64_t items = 0;      //!< work items swept
    uint64_t generated = 0;  //!< traces the items generated
    uint64_t uniqueKeys = 0; //!< distinct trace keys the runs needed
};

/** The totals so far; callers diff two reads around a run. */
PlanTotals planTotals();

} // namespace memo::check

#endif // MEMO_CHECK_PLAN_HH
