/**
 * @file
 * Golden regression layer: the paper-table metrics as reusable
 * computations plus canonical JSON snapshots of their results.
 *
 * The hit-ratio/latency numbers behind Tables 1, 5, 6, 9 and 10 and
 * Figures 3 and 4 are computed here, once, and consumed by two kinds
 * of caller:
 *
 *  - the bench_* reproduction binaries, which pretty-print them next
 *    to the paper's reference values;
 *  - the memo-golden tool, which serializes them as canonical JSON and
 *    diffs them against the checked-in snapshots in tests/golden/
 *    (ctest `golden_diff`). Any change to table geometry, replacement,
 *    trivial-op handling, workload code or image generation that moves
 *    a reproduced paper value shows up as a failing diff that must be
 *    acknowledged by regenerating the snapshots (memo-golden --regen).
 *
 * The measurements run as a measurement plan (plan.hh): each entry
 * point below is that plan restricted to its own stage, and the golden
 * documents are projections of one plan over every stage they show.
 * Everything is deterministic: each trace is generated once per plan,
 * its per-input statistics fold in canonical order at any thread
 * count, and doubles are printed with %.17g (exact round trip).
 */

#ifndef MEMO_CHECK_GOLDEN_HH
#define MEMO_CHECK_GOLDEN_HH

#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "workloads/workload.hh"

namespace memo::check
{

struct PlanRequest;
struct PlanResult;

/**
 * Crop size all hit-ratio measurements use (bench::benchCrop aliases
 * this; see DESIGN.md for the 96-pixel rationale).
 */
constexpr int goldenCrop = 96;

/** One scientific workload measured at 32/4 and infinite (Tables 5/6). */
struct SciRow
{
    std::string name;
    UnitHits h32;
    UnitHits hinf;
    bool operator==(const SciRow &) const = default; //!< Field-wise.
};

/** A whole suite plus its per-unit averages (absent units skipped). */
struct SciSuiteResult
{
    std::vector<SciRow> rows;
    UnitHits avg32;
    UnitHits avgInf;
    bool operator==(const SciSuiteResult &) const = default; //!< Field-wise.
};

/** Measure a Perfect/SPEC suite, fanned out over the executor. */
SciSuiteResult measureSciSuite(const std::vector<SciWorkload> &suite);

/** One unit's Table 9 row: trivial fraction and per-policy hit ratios. */
struct TrivialModeRow
{
    double trv = -1.0;   //!< fraction of operations that are trivial
    double all = -1.0;   //!< hit ratio, trivial ops cached
    double non = -1.0;   //!< hit ratio, trivial ops bypassed
    double intgr = -1.0; //!< hit ratio, integrated trivial detection
    bool operator==(const TrivialModeRow &) const = default; //!< Field-wise.
};

/** Measure one kernel/unit pair over the standard images (Table 9). */
TrivialModeRow measureTrivialModes(const MmKernel &kernel, Operation op);

/** The eight applications of Table 9. */
const std::vector<std::string> &table9Apps();

/** Suite-average fp hit ratios of one tag mode (Table 10). */
struct SuiteAvg
{
    double fpMul = 0.0;
    double fpDiv = 0.0;
    bool operator==(const SuiteAvg &) const = default; //!< Field-wise.
};

/** Full-value vs mantissa-only averages for both suites (Table 10). */
struct TagModeResult
{
    SuiteAvg perfectFull, perfectMant;
    SuiteAvg mmFull, mmMant;
    bool operator==(const TagModeResult &) const = default; //!< Field-wise.
};

TagModeResult measureTagModes();

/** min/avg/max hit ratio across the sweep kernels for one config. */
struct BandRow
{
    double avg = -1.0;
    double lo = -1.0;
    double hi = -1.0;
    bool operator==(const BandRow &) const = default; //!< Field-wise.
};

/** Per-config bands for both fp units, index-aligned with the input. */
struct SweepBands
{
    std::vector<BandRow> fpDiv;
    std::vector<BandRow> fpMul;
    bool operator==(const SweepBands &) const = default; //!< Field-wise.
};

/** Sweep the five Figure 3/4 kernels over @p cfgs. */
SweepBands measureSweepBands(const std::vector<MemoConfig> &cfgs);

/**
 * The bands of a sweep from each sweep kernel's per-config hit ratios
 * (per_kernel[kernel][config], kernels in sweepKernelNames() order).
 */
SweepBands
foldSweepBands(const std::vector<std::vector<UnitHits>> &per_kernel);

/** The table sizes of Figure 3 (entries, 4-way). */
const std::vector<unsigned> &fig3Sizes();

/** The associativities of Figure 4 (ways, 32 entries). */
const std::vector<unsigned> &fig4Ways();

/** Figure 3's configurations: fig3Sizes() entries, 4-way. */
std::vector<MemoConfig> fig3Configs();

/** Figure 4's configurations: 32 entries, fig4Ways() ways. */
std::vector<MemoConfig> fig4Configs();

/** One golden document: a name and its canonical JSON projection. */
struct GoldenDoc
{
    std::string name; //!< snapshot file stem (tests/golden/<name>.json)
    /** Serialize this document's values from goldenRequest()'s plan. */
    std::string (*render)(const PlanResult &);
};

/** All golden documents, in canonical order. */
const std::vector<GoldenDoc> &goldenDocs();

/**
 * The stages the golden documents project (Tables 5, 6, 9, 10 and
 * Figures 3/4), with paperRequest()'s suite and sweep slots.
 */
PlanRequest goldenRequest();

} // namespace memo::check

#endif // MEMO_CHECK_GOLDEN_HH
