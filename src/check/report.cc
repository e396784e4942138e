#include "report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/reuse.hh"
#include "analysis/table.hh"
#include "check/golden.hh"
#include "check/measure.hh"
#include "exec/parallel.hh"
#include "img/generate.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "workloads/workload.hh"

namespace memo::check
{

namespace
{

using obs::Report;
using obs::ReportSection;
using obs::ReportTable;
using obs::ShapeClaim;

std::string
ratio(double v)
{
    return TextTable::ratio(v);
}

std::string
fixed(double v, int decimals)
{
    return TextTable::fixed(v, decimals);
}

/** "i/m/d" triple the paper tables use for per-unit hit ratios. */
std::string
imd(double i, double m, double d)
{
    return ratio(i) + "/" + ratio(m) + "/" + ratio(d);
}

ShapeClaim
claim(std::string text, bool pass, std::string detail)
{
    return ShapeClaim{std::move(text), pass, std::move(detail)};
}

/** Hit ratio of one sci-suite row by workload name, -1 if absent. */
const SciRow &
sciRow(const SciSuiteResult &r, std::string_view name)
{
    for (const SciRow &row : r.rows)
        if (row.name == name)
            return row;
    static const SciRow none{};
    return none;
}

ReportTable
sciTable(const std::vector<SciWorkload> &suite, const SciSuiteResult &r)
{
    ReportTable t;
    t.header = {"application", "measured 32 (i/m/d)",
                "measured inf (i/m/d)", "paper 32 (i/m/d)",
                "paper inf (i/m/d)"};
    for (size_t wi = 0; wi < suite.size(); wi++) {
        const SciWorkload &w = suite[wi];
        const UnitHits &h32 = r.rows[wi].h32;
        const UnitHits &hinf = r.rows[wi].hinf;
        t.rows.push_back(
            {w.name, imd(h32.intMul, h32.fpMul, h32.fpDiv),
             imd(hinf.intMul, hinf.fpMul, hinf.fpDiv),
             imd(w.paper.intMul32, w.paper.fpMul32, w.paper.fpDiv32),
             imd(w.paper.intMulInf, w.paper.fpMulInf,
                 w.paper.fpDivInf)});
    }
    t.rows.push_back({"**average**",
                      imd(r.avg32.intMul, r.avg32.fpMul, r.avg32.fpDiv),
                      imd(r.avgInf.intMul, r.avgInf.fpMul,
                          r.avgInf.fpDiv),
                      "", ""});
    return t;
}

ReportSection
table1Section()
{
    ReportSection sec;
    sec.title = "Table 1 — unit latencies (`bench_table1`)";
    sec.anchor = "table-1";
    sec.prose = {
        "Reference data reproduced verbatim as latency presets "
        "(Pentium Pro 3/39, Alpha 21164 4/31, R10000 2/40, PPC 604e "
        "5/31, UltraSparc-II 3/22, PA 8000 5/31). Grounding: our "
        "radix-4 SRT divider model retires 54 quotient bits at 2 "
        "bits/cycle + 3 cycles overhead = **30 cycles**, inside Table "
        "1's 22–40 band; the tree multiplier (18 bits/cycle) gives "
        "**4 cycles**, matching the 2–5 cycle multipliers. The models "
        "are bit-exact against IEEE-754 RNE (verified by ~60k "
        "randomized tests)."};
    return sec;
}

ReportSection
table5Section(const SciSuiteResult &r)
{
    ReportSection sec;
    sec.title = "Table 5 — Perfect suite hit ratios (`bench_table5`)";
    sec.anchor = "table-5";
    sec.prose = {"Hit ratios per application (int mult / fp mult / fp "
                 "div), 32-entry 4-way MEMO-TABLE vs infinite."};
    sec.tables = {sciTable(perfectWorkloads(), r)};

    const SciRow &adm = sciRow(r, "ADM");
    const SciRow &arc2d = sciRow(r, "ARC2D");
    const SciRow &flo52 = sciRow(r, "FLO52");
    bool regular = adm.h32.intMul >= 0.9 && arc2d.h32.intMul >= 0.9 &&
                   flo52.h32.intMul >= 0.9;
    sec.claims.push_back(claim(
        "High int-mult reuse in the regular codes (ADM, ARC2D, FLO52 "
        "at or above .90 with 32 entries)",
        regular,
        "measured " + ratio(adm.h32.intMul) + ", " +
            ratio(arc2d.h32.intMul) + ", " + ratio(flo52.h32.intMul)));

    const SciRow *top = nullptr;
    for (const SciRow &row : r.rows)
        if (!top || row.h32.fpDiv > top->h32.fpDiv)
            top = &row;
    bool trfd_top = top && top->name == "TRFD";
    sec.claims.push_back(claim(
        "TRFD is the lone high-fp-div outlier at 32 entries",
        trfd_top,
        top ? "highest fp div: " + top->name + " at " +
                  ratio(top->h32.fpDiv)
            : "no rows"));
    return sec;
}

ReportSection
table6Section(const SciSuiteResult &r)
{
    ReportSection sec;
    sec.title = "Table 6 — SPEC CFP95 hit ratios (`bench_table6`)";
    sec.anchor = "table-6";
    sec.prose = {"Same measurement over the SPEC CFP95 analogues."};
    sec.tables = {sciTable(specWorkloads(), r)};

    const SciRow *top = nullptr;
    for (const SciRow &row : r.rows)
        if (!top || row.h32.fpMul > top->h32.fpMul)
            top = &row;
    bool hydro = top && top->name == "hydro2d";
    sec.claims.push_back(claim(
        "hydro2d is the outlier with high fp hits even at 32 entries",
        hydro,
        top ? "highest fp mult: " + top->name + " at " +
                  ratio(top->h32.fpMul)
            : "no rows"));

    const SciRow &applu = sciRow(r, "applu");
    const SciRow &apsi = sciRow(r, "apsi");
    const SciRow &mgrid = sciRow(r, "mgrid");
    bool ints = applu.h32.intMul >= 0.8 && apsi.h32.intMul >= 0.8 &&
                mgrid.h32.intMul >= 0.8;
    sec.claims.push_back(
        claim("int-mult ratios track the paper closely (applu, apsi, "
              "mgrid at or above .80)",
              ints,
              "measured " + ratio(applu.h32.intMul) + ", " +
                  ratio(apsi.h32.intMul) + ", " +
                  ratio(mgrid.h32.intMul)));
    return sec;
}

ReportSection
table7Section(const MmSuiteResult &mm, const SciSuiteResult &perfect,
              const SciSuiteResult &spec)
{
    ReportSection sec;
    sec.title = "Table 7 — Multi-Media hit ratios (`bench_table7`)";
    sec.anchor = "table-7";
    sec.prose = {"The paper's central result: the Khoros Multi-Media "
                 "kernels over the 14 standard inputs."};

    ReportTable t;
    t.header = {"application", "measured 32 (i/m/d)",
                "measured inf (i/m/d)", "paper 32 (i/m/d)",
                "paper inf (i/m/d)"};
    for (const MmRow &row : mm.rows) {
        const MmKernel &k = mmKernelByName(row.name);
        t.rows.push_back(
            {row.name, imd(row.h32.intMul, row.h32.fpMul, row.h32.fpDiv),
             imd(row.hinf.intMul, row.hinf.fpMul, row.hinf.fpDiv),
             imd(k.paper.intMul32, k.paper.fpMul32, k.paper.fpDiv32),
             imd(k.paper.intMulInf, k.paper.fpMulInf,
                 k.paper.fpDivInf)});
    }
    t.rows.push_back(
        {"**average**", imd(mm.avg32.intMul, mm.avg32.fpMul,
                            mm.avg32.fpDiv),
         imd(mm.avgInf.intMul, mm.avgInf.fpMul, mm.avgInf.fpDiv),
         imd(.59, .39, .47), imd(.95, .82, .85)});
    sec.tables = {t};

    double sci_mul = std::max(perfect.avg32.fpMul, spec.avg32.fpMul);
    double sci_div = std::max(perfect.avg32.fpDiv, spec.avg32.fpDiv);
    bool central = mm.avg32.fpMul >= 1.8 * sci_mul &&
                   mm.avg32.fpDiv >= 1.8 * sci_div;
    sec.claims.push_back(claim(
        "At 32 entries the MM suite's fp hit ratios are a multiple "
        "(roughly 2–3x) of the scientific suites'",
        central,
        "fp mult " + ratio(mm.avg32.fpMul) + " vs " + ratio(sci_mul) +
            "; fp div " + ratio(mm.avg32.fpDiv) + " vs " +
            ratio(sci_div)));
    bool scales = mm.avgInf.fpMul >= 0.7 && mm.avgInf.fpDiv >= 0.7;
    sec.claims.push_back(
        claim("MM ratios scale toward the infinite bound instead of "
              "collapsing",
              scales,
              "infinite fp mult " + ratio(mm.avgInf.fpMul) +
                  ", fp div " + ratio(mm.avgInf.fpDiv)));
    return sec;
}

ReportSection
table8Section(const EntropyResult &ent)
{
    ReportSection sec;
    sec.title = "Table 8 — images and per-image hit ratios "
                "(`bench_table8`)";
    sec.anchor = "table-8";
    sec.prose = {
        "Synthetic stand-ins for the paper's 14 inputs, generated to "
        "its entropy profiles. FLOAT inputs (head, spine) carry no "
        "entropy, as in the paper, and are absent here. The fp hit "
        "ratios are pooled over all MM kernels per image."};

    ReportTable t;
    t.header = {"image",          "entropy",    "paper",
                "entropy 8x8",    "paper 8x8",  "fp mult hit",
                "fp div hit"};
    double max_dev = 0.0;
    for (const EntropyPoint &p : ent.points) {
        const NamedImage &ni = imageByName(p.image);
        max_dev = std::max(
            max_dev, std::fabs(p.entropyFull - ni.paperEntropyFull));
        t.rows.push_back({p.image, fixed(p.entropyFull, 2),
                          fixed(ni.paperEntropyFull, 2),
                          fixed(p.entropyWin, 2),
                          fixed(ni.paperEntropy8, 2),
                          ratio(p.fpMulHit), ratio(p.fpDivHit)});
    }
    sec.tables = {t};

    sec.claims.push_back(
        claim("Full-image entropies match the paper within half a bit",
              max_dev <= 0.5,
              "largest deviation " + fixed(max_dev, 2) + " bits"));

    const EntropyPoint *lo = nullptr, *hi = nullptr;
    for (const EntropyPoint &p : ent.points) {
        if (!lo || p.entropyFull < lo->entropyFull)
            lo = &p;
        if (!hi || p.entropyFull > hi->entropyFull)
            hi = &p;
    }
    bool monotone = lo && hi && lo->fpMulHit > hi->fpMulHit &&
                    lo->fpDivHit > hi->fpDivHit;
    sec.claims.push_back(claim(
        "Low-entropy images hit more than high-entropy ones",
        monotone,
        lo && hi ? lo->image + " (" + fixed(lo->entropyFull, 2) +
                       " bits) " + ratio(lo->fpMulHit) + "/" +
                       ratio(lo->fpDivHit) + " vs " + hi->image +
                       " (" + fixed(hi->entropyFull, 2) + " bits) " +
                       ratio(hi->fpMulHit) + "/" + ratio(hi->fpDivHit)
                 : "no points"));
    return sec;
}

ReportSection
table9Section()
{
    ReportSection sec;
    sec.title = "Table 9 — trivial operations (`bench_table9`)";
    sec.anchor = "table-9";
    sec.prose = {
        "Per application and unit: the fraction of trivial operations "
        "(trv) and the hit ratio when all operations are cached (all), "
        "only non-trivial ones (non), or trivial detection is "
        "integrated into the MEMO-TABLE (intgr)."};

    struct Cell
    {
        std::string app;
        Operation op;
        TrivialModeRow row;
    };
    struct AppRows
    {
        TrivialModeRow im, fm, fd;
    };
    const std::vector<std::string> &apps = table9Apps();
    // One executor job per application, as in bench_table9.
    std::vector<AppRows> rows =
        exec::sweep(apps, [](const std::string &name) {
            const MmKernel &k = mmKernelByName(name);
            return AppRows{
                measureTrivialModes(k, Operation::IntMul),
                measureTrivialModes(k, Operation::FpMul),
                measureTrivialModes(k, Operation::FpDiv)};
        });

    std::vector<Cell> cells;
    ReportTable t;
    t.header = {"application", "im trv/all/non/intgr",
                "fm trv/all/non/intgr", "fd trv/all/non/intgr"};
    for (size_t ai = 0; ai < apps.size(); ai++) {
        const std::string &name = apps[ai];
        cells.push_back({name, Operation::IntMul, rows[ai].im});
        cells.push_back({name, Operation::FpMul, rows[ai].fm});
        cells.push_back({name, Operation::FpDiv, rows[ai].fd});
        auto quad = [](const TrivialModeRow &r) {
            return ratio(r.trv) + "/" + ratio(r.all) + "/" +
                   ratio(r.non) + "/" + ratio(r.intgr);
        };
        t.rows.push_back({name, quad(rows[ai].im), quad(rows[ai].fm),
                          quad(rows[ai].fd)});
    }
    sec.tables = {t};

    bool intgr_best = true;
    std::string worst;
    for (const Cell &c : cells) {
        if (c.row.intgr < 0)
            continue;
        if (c.row.intgr + 1e-9 < c.row.all ||
            c.row.intgr + 1e-9 < c.row.non) {
            intgr_best = false;
            worst = c.app;
        }
    }
    sec.claims.push_back(claim(
        "Integrated trivial detection gives the highest hit ratio for "
        "every application and unit",
        intgr_best,
        intgr_best ? "holds for all rows"
                   : "violated by " + worst));

    bool helps = false, hurts = false;
    for (const Cell &c : cells) {
        if (c.row.all < 0 || c.row.non < 0)
            continue;
        if (c.row.all > c.row.non + 1e-9)
            helps = true;
        if (c.row.all + 1e-9 < c.row.non)
            hurts = true;
    }
    sec.claims.push_back(
        claim("Caching trivial operations helps some applications and "
              "pollutes the table for others",
              helps && hurts,
              std::string(helps ? "helps somewhere" : "never helps") +
                  ", " + (hurts ? "hurts somewhere" : "never hurts")));
    return sec;
}

ReportSection
table10Section(const TagModeResult &tags)
{
    ReportSection sec;
    sec.title = "Table 10 — mantissa-only tags (`bench_table10`)";
    sec.anchor = "table-10";
    sec.prose = {"Suite-average fp hit ratios when the tag drops sign "
                 "and exponent bits (full value vs mantissa only)."};

    auto arrow = [](double full, double mant) {
        return ratio(full) + " → " + ratio(mant);
    };
    ReportTable t;
    t.header = {"suite", "paper (full → mant)", "measured (full → mant)"};
    t.rows = {
        {"Perfect fp mult", ".11 → .11",
         arrow(tags.perfectFull.fpMul, tags.perfectMant.fpMul)},
        {"Perfect fp div", ".16 → .17",
         arrow(tags.perfectFull.fpDiv, tags.perfectMant.fpDiv)},
        {"MM fp mult", ".39 → .43",
         arrow(tags.mmFull.fpMul, tags.mmMant.fpMul)},
        {"MM fp div", ".47 → .50",
         arrow(tags.mmFull.fpDiv, tags.mmMant.fpDiv)},
    };
    sec.tables = {t};

    bool raises = tags.perfectMant.fpMul >= tags.perfectFull.fpMul &&
                  tags.perfectMant.fpDiv >= tags.perfectFull.fpDiv &&
                  tags.mmMant.fpMul >= tags.mmFull.fpMul &&
                  tags.mmMant.fpDiv >= tags.mmFull.fpDiv;
    sec.claims.push_back(claim(
        "Mantissa-only tags never lower a suite's hit ratio", raises,
        "gains: Perfect " +
            fixed(tags.perfectMant.fpMul - tags.perfectFull.fpMul, 2) +
            "/" +
            fixed(tags.perfectMant.fpDiv - tags.perfectFull.fpDiv, 2) +
            ", MM " + fixed(tags.mmMant.fpMul - tags.mmFull.fpMul, 2) +
            "/" + fixed(tags.mmMant.fpDiv - tags.mmFull.fpDiv, 2)));
    double mm_gain = (tags.mmMant.fpMul - tags.mmFull.fpMul) +
                     (tags.mmMant.fpDiv - tags.mmFull.fpDiv);
    double sci_gain =
        (tags.perfectMant.fpMul - tags.perfectFull.fpMul) +
        (tags.perfectMant.fpDiv - tags.perfectFull.fpDiv);
    sec.claims.push_back(claim(
        "The gain is larger for the MM suite than for the scientific "
        "one",
        mm_gain > sci_gain,
        "summed MM gain " + fixed(mm_gain, 2) + " vs Perfect " +
            fixed(sci_gain, 2)));
    return sec;
}

ReportTable
speedupTable(const SpeedupResult &r, const std::string &fast_tag,
             const std::string &slow_tag)
{
    bool with_hit = r.avgHit >= 0;
    ReportTable t;
    t.header = {"app"};
    if (with_hit)
        t.header.push_back("hit");
    for (const std::string &tag : {fast_tag, slow_tag}) {
        t.header.push_back("FE " + tag);
        t.header.push_back("SE " + tag);
        t.header.push_back("speedup " + tag);
        t.header.push_back("meas " + tag);
    }
    for (const SpeedupRow &row : r.rows) {
        std::vector<std::string> cells{row.app};
        if (with_hit)
            cells.push_back(ratio(row.hit));
        for (const SpeedupCell *cell : {&row.fast, &row.slow}) {
            cells.push_back(fixed(cell->fe, 3));
            cells.push_back(fixed(cell->se, 2));
            cells.push_back(fixed(cell->speedup, 2));
            cells.push_back(fixed(cell->measured, 2));
        }
        t.rows.push_back(cells);
    }
    std::vector<std::string> avg{"**average**"};
    if (with_hit)
        avg.push_back(ratio(r.avgHit));
    avg.insert(avg.end(), {"", "", fixed(r.avgFast, 2), "", "", "",
                           fixed(r.avgSlow, 2), ""});
    t.rows.push_back(avg);
    return t;
}

ReportSection
speedupSection(const SpeedupResult &div, const SpeedupResult &mul,
               const SpeedupResult &both)
{
    ReportSection sec;
    sec.title = "Tables 11/12/13 — speedups (`bench_table11/12/13`)";
    sec.anchor = "speedups";
    sec.prose = {
        "Amdahl-predicted and cycle-model-measured speedups over the "
        "nine applications: fp division memoized with a 13/39-cycle "
        "divider (Table 11), fp multiplication with a 3/5-cycle "
        "multiplier (Table 12), and both units on a fast 3/13 and a "
        "slow 5/39 FPU (Table 13)."};

    ReportTable summary;
    summary.header = {"experiment", "paper", "measured"};
    summary.rows = {
        {"fdiv memoized @13 cycles", "1.05", fixed(div.avgFast, 2)},
        {"fdiv memoized @39 cycles", "1.15", fixed(div.avgSlow, 2)},
        {"fmul memoized @3 cycles", "1.02", fixed(mul.avgFast, 2)},
        {"fmul memoized @5 cycles", "1.03", fixed(mul.avgSlow, 2)},
        {"both @3/13", "1.08", fixed(both.avgFast, 2)},
        {"both @5/39", "1.22", fixed(both.avgSlow, 2)},
    };
    sec.tables = {summary, speedupTable(div, "@13", "@39"),
                  speedupTable(mul, "@3", "@5"),
                  speedupTable(both, "fast", "slow")};

    sec.claims.push_back(
        claim("Division memoing beats multiplication memoing",
              div.avgFast > mul.avgFast && div.avgSlow > mul.avgSlow,
              fixed(div.avgFast, 2) + "/" + fixed(div.avgSlow, 2) +
                  " vs " + fixed(mul.avgFast, 2) + "/" +
                  fixed(mul.avgSlow, 2)));
    sec.claims.push_back(claim(
        "The slower FPU benefits more in every experiment",
        div.avgSlow > div.avgFast && mul.avgSlow > mul.avgFast &&
            both.avgSlow > both.avgFast,
        "fdiv " + fixed(div.avgFast, 2) + " → " + fixed(div.avgSlow, 2) +
            ", fmul " + fixed(mul.avgFast, 2) + " → " +
            fixed(mul.avgSlow, 2) + ", both " + fixed(both.avgFast, 2) +
            " → " + fixed(both.avgSlow, 2)));
    sec.claims.push_back(claim(
        "Combined memoing beats either unit alone",
        both.avgFast >= div.avgFast && both.avgFast >= mul.avgFast &&
            both.avgSlow >= div.avgSlow && both.avgSlow >= mul.avgSlow,
        "both " + fixed(both.avgFast, 2) + "/" + fixed(both.avgSlow, 2) +
            " vs fdiv " + fixed(div.avgFast, 2) + "/" +
            fixed(div.avgSlow, 2) + " and fmul " +
            fixed(mul.avgFast, 2) + "/" + fixed(mul.avgSlow, 2)));

    double worst = 0.0;
    for (const SpeedupResult *r : {&div, &mul, &both})
        for (const SpeedupRow &row : r->rows)
            for (const SpeedupCell *cell : {&row.fast, &row.slow})
                worst = std::max(worst,
                                 std::fabs(cell->speedup -
                                           cell->measured) /
                                     cell->measured);
    sec.claims.push_back(
        claim("The analytic (Amdahl) and measured columns agree within "
              "7%",
              worst <= 0.07,
              "largest relative gap " + fixed(100.0 * worst, 1) + "%"));

    sec.notes = {
        "Our FE values run higher than the paper's because the "
        "instrumented kernels carry less integer/control overhead than "
        "compiled SPARC code; the Amdahl math is validated against the "
        "paper's own rows in `tests/test_sim.cc`."};
    return sec;
}

ReportSection
fig2Section(const EntropyResult &ent)
{
    ReportSection sec;
    sec.title = "Figure 2 — hit ratio vs entropy (`bench_fig2`)";
    sec.anchor = "fig-2";
    sec.prose = {"Marquardt-Levenberg best-fit slopes (hit-ratio "
                 "change per entropy bit); the paper reports roughly "
                 "−5% per bit for every series."};

    auto slope = [](const FitResult &fit) {
        return fixed(100.0 * fit.params[1], 1) + "%";
    };
    ReportTable t;
    t.header = {"series", "paper", "measured"};
    t.rows = {
        {"fp div vs whole-image entropy", "≈ −5 %", slope(ent.divFull)},
        {"fp div vs 8×8 window entropy", "≈ −5 %", slope(ent.divWin)},
        {"fp mult vs whole-image entropy", "≈ −5 %",
         slope(ent.mulFull)},
        {"fp mult vs 8×8 window entropy", "≈ −5 %", slope(ent.mulWin)},
    };
    sec.tables = {t};

    bool negative = ent.divFull.params[1] < 0 &&
                    ent.divWin.params[1] < 0 &&
                    ent.mulFull.params[1] < 0 &&
                    ent.mulWin.params[1] < 0;
    sec.claims.push_back(claim(
        "All four slopes are negative, of the paper's order of "
        "magnitude",
        negative,
        slope(ent.divFull) + ", " + slope(ent.divWin) + ", " +
            slope(ent.mulFull) + ", " + slope(ent.mulWin)));
    sec.notes = {
        "Ours are steeper than −5%/bit: the synthetic low-entropy "
        "images (fractal, lablabel) give the tables higher ratios than "
        "the paper's real photographs did, stretching the fit."};
    return sec;
}

ReportSection
fig3Section(const SweepBands &bands)
{
    ReportSection sec;
    sec.title = "Figure 3 — table size sweep (`bench_fig3`)";
    sec.anchor = "fig-3";
    sec.prose = {"Hit ratios of the five sample kernels as the 4-way "
                 "MEMO-TABLE grows from 8 to 8192 entries "
                 "(min/avg/max across kernels)."};

    const std::vector<unsigned> &sizes = fig3Sizes();
    ReportTable t;
    t.header = {"entries", "fp div avg", "fp div min–max",
                "fp mult avg", "fp mult min–max"};
    for (size_t s = 0; s < sizes.size(); s++)
        t.rows.push_back({TextTable::count(sizes[s]),
                          ratio(bands.fpDiv[s].avg),
                          ratio(bands.fpDiv[s].lo) + " – " +
                              ratio(bands.fpDiv[s].hi),
                          ratio(bands.fpMul[s].avg),
                          ratio(bands.fpMul[s].lo) + " – " +
                              ratio(bands.fpMul[s].hi)});
    sec.tables = {t};

    bool rising = true;
    for (size_t s = 1; s < sizes.size(); s++)
        if (bands.fpDiv[s].avg + 0.005 < bands.fpDiv[s - 1].avg ||
            bands.fpMul[s].avg + 0.005 < bands.fpMul[s - 1].avg)
            rising = false;
    sec.claims.push_back(
        claim("Average hit ratios rise monotonically with table size",
              rising,
              "fp div " + ratio(bands.fpDiv.front().avg) + " → " +
                  ratio(bands.fpDiv.back().avg) + ", fp mult " +
                  ratio(bands.fpMul.front().avg) + " → " +
                  ratio(bands.fpMul.back().avg)));

    size_t i1024 = 0;
    for (size_t s = 0; s < sizes.size(); s++)
        if (sizes[s] == 1024)
            i1024 = s;
    double div_tail = bands.fpDiv.back().avg - bands.fpDiv[i1024].avg;
    double mul_tail = bands.fpMul.back().avg - bands.fpMul[i1024].avg;
    sec.claims.push_back(
        claim("The curves flatten past 1024 entries (the paper's "
              "small-table argument)",
              div_tail <= 0.08 && mul_tail <= 0.08,
              "1024 → 8192 gains: fp div +" + fixed(div_tail, 2) +
                  ", fp mult +" + fixed(mul_tail, 2)));
    return sec;
}

ReportSection
fig4Section(const SweepBands &bands)
{
    ReportSection sec;
    sec.title = "Figure 4 — associativity sweep (`bench_fig4`)";
    sec.anchor = "fig-4";
    sec.prose = {"Hit ratios of the five sample kernels at 32 entries "
                 "as the associativity grows from direct-mapped to "
                 "8-way."};

    const std::vector<unsigned> &ways = fig4Ways();
    ReportTable t;
    t.header = {"ways", "fp div avg", "fp mult avg"};
    for (size_t w = 0; w < ways.size(); w++)
        t.rows.push_back({TextTable::count(ways[w]),
                          ratio(bands.fpDiv[w].avg),
                          ratio(bands.fpMul[w].avg)});
    sec.tables = {t};

    sec.claims.push_back(
        claim("Direct-mapped loses to 2-way for both units",
              bands.fpDiv[1].avg > bands.fpDiv[0].avg &&
                  bands.fpMul[1].avg > bands.fpMul[0].avg,
              "fp div " + ratio(bands.fpDiv[0].avg) + " → " +
                  ratio(bands.fpDiv[1].avg) + ", fp mult " +
                  ratio(bands.fpMul[0].avg) + " → " +
                  ratio(bands.fpMul[1].avg)));
    double div_tail = bands.fpDiv.back().avg -
                      bands.fpDiv[bands.fpDiv.size() - 2].avg;
    double mul_tail = bands.fpMul.back().avg -
                      bands.fpMul[bands.fpMul.size() - 2].avg;
    sec.claims.push_back(
        claim("Beyond 4 ways hardly improves",
              div_tail <= 0.02 + 1e-9 && mul_tail <= 0.02 + 1e-9,
              "4 → 8 way gains: fp div +" + fixed(div_tail, 2) +
                  ", fp mult +" + fixed(mul_tail, 2)));
    return sec;
}

/** Phase-chapter window length, in table accesses. */
constexpr uint64_t kPhaseWindow = 2048;

/** Standard images concatenated into each kernel's phased stream. */
constexpr size_t kPhaseImages = 4;

/** One application's phase measurement (one sweep worker's result). */
struct PhaseCell
{
    std::vector<obs::PhaseProfile> full; //!< default 32/4 config
    std::vector<obs::PhaseProfile> mant; //!< Table 10 mantissa-only
    std::vector<ReuseWindow> reuse;      //!< fp div windowed reuse
    bool partitionOk = true;  //!< window rows sum to the final stats
    bool reuseAligned = true; //!< reuse windows match table windows
};

const obs::PhaseProfile *
profileOf(const std::vector<obs::PhaseProfile> &profs, Operation op)
{
    for (const obs::PhaseProfile &p : profs)
        if (p.op == op)
            return &p;
    return nullptr;
}

/** Hits per 1000 lookups of one window (integer arithmetic). */
uint64_t
windowPermille(const PhaseWindow &w)
{
    return w.stats.lookups
               ? w.stats.allHits() * 1000 / w.stats.lookups
               : 0;
}

/** "998 1000 987 …" — the first @p cap windows of a series. */
std::string
permilleSeries(const std::vector<PhaseWindow> &rows, size_t cap = 10)
{
    std::ostringstream os;
    size_t n = std::min(rows.size(), cap);
    for (size_t i = 0; i < n; i++) {
        if (i)
            os << " ";
        os << windowPermille(rows[i]);
    }
    if (rows.size() > cap)
        os << " …";
    return os.str();
}

/** One digit (0-9, clamped) per set: the occupancy at window @p row. */
std::string
setDigits(const obs::PhaseProfile &p, size_t row)
{
    std::string s;
    if (row >= p.setOccupancy.size())
        return s;
    for (uint32_t occ : p.setOccupancy[row])
        s += static_cast<char>('0' + std::min<uint32_t>(occ, 9));
    return s;
}

/**
 * Measure one MM application's phase behaviour: the first
 * kPhaseImages standard inputs concatenated into one stream, replayed
 * through the batched hot path with a PhaseScope attached — once at
 * the default 32/4 config (per-set occupancy on) and once with
 * mantissa-only tags (Table 10's variant) — plus the fp div windowed
 * reuse profile of the same stream for cross-layer alignment.
 */
PhaseCell
measurePhases(const std::string &name)
{
    const MmKernel &k = mmKernelByName(name);
    const std::vector<NamedImage> &imgs = standardImages();
    Trace combined;
    for (size_t i = 0; i < kPhaseImages && i < imgs.size(); i++) {
        std::shared_ptr<const Trace> t =
            cachedMmKernelTrace(k, imgs[i], goldenCrop);
        combined.reserve(combined.size() + t->size());
        for (const Instruction &inst : *t)
            combined.push(inst);
    }

    PhaseCell cell;
    MemoConfig cfg; // the 32-entry 4-way default of Tables 9/10
    {
        MemoBank bank = MemoBank::standard(cfg);
        obs::PhaseScope scope(bank, kPhaseWindow, /*per_set=*/true);
        replayMemo(combined, bank);
        scope.finalize();
        cell.full = scope.profiles();
        for (const obs::PhaseProfile &p : cell.full) {
            MemoStats sum;
            uint64_t len = 0;
            for (const PhaseWindow &w : p.rows) {
                sum.merge(w.stats);
                len += w.length;
            }
            const MemoStats &fin = bank.table(p.op)->stats();
            if (sum != fin ||
                len != fin.lookups + fin.trivialBypassed)
                cell.partitionOk = false;
        }
    }
    {
        MemoConfig mant = cfg;
        mant.tagMode = TagMode::MantissaOnly;
        MemoBank bank = MemoBank::standard(mant);
        obs::PhaseScope scope(bank, kPhaseWindow);
        replayMemo(combined, bank);
        scope.finalize();
        cell.mant = scope.profiles();
    }
    cell.reuse =
        windowedReuse(combined, Operation::FpDiv, kPhaseWindow);
    if (const obs::PhaseProfile *fd =
            profileOf(cell.full, Operation::FpDiv)) {
        if (cell.reuse.size() != fd->rows.size()) {
            cell.reuseAligned = false;
        } else {
            for (size_t i = 0; i < cell.reuse.size(); i++) {
                const PhaseWindow &w = fd->rows[i];
                if (cell.reuse[i].accesses !=
                        w.stats.lookups + w.stats.trivialBypassed ||
                    cell.reuse[i].trivial != w.stats.trivialBypassed)
                    cell.reuseAligned = false;
            }
        }
    }
    return cell;
}

ReportSection
phaseSection(const std::vector<std::string> &apps,
             const std::vector<PhaseCell> &cells)
{
    const std::vector<NamedImage> &imgs = standardImages();
    std::string inputs;
    for (size_t i = 0; i < kPhaseImages && i < imgs.size(); i++)
        inputs += (i ? ", " : "") + imgs[i].name;

    ReportSection sec;
    sec.title = "Phase behavior — windowed table telemetry "
                "(`memo-sim --phase-window`)";
    sec.anchor = "phases";
    sec.prose = {
        "The memo-scope engine (src/obs/phase.hh) slices each table's "
        "access stream into fixed windows of " +
            TextTable::count(kPhaseWindow) +
            " accesses, folded inside the batched "
            "`MemoTable::probeBlock` hot path. Each Table 9 "
            "application replays the concatenation of its first four "
            "standard inputs (" +
            inputs +
            ") through a 32-entry 4-way bank, so the series below "
            "resolve both within-kernel phases and the input "
            "transitions. Cells are hits per 1000 lookups (‰) per "
            "window, first ten windows shown; `memo-sim "
            "--phase-window N` emits the full series as "
            "`phases.json` plus Chrome-trace counter tracks."};

    ReportTable series;
    series.header = {"application", "unit", "windows",
                     "hit ‰ by window (first 10)"};
    for (size_t ai = 0; ai < apps.size(); ai++) {
        for (Operation op : {Operation::FpMul, Operation::FpDiv}) {
            const obs::PhaseProfile *p = profileOf(cells[ai].full, op);
            if (!p || p->rows.empty())
                continue;
            series.rows.push_back(
                {apps[ai], op == Operation::FpMul ? "fp mult"
                                                  : "fp div",
                 TextTable::count(p->rows.size()),
                 permilleSeries(p->rows)});
        }
    }
    sec.tables.push_back(series);

    ReportTable mant;
    mant.header = {"application",
                   "fp div hit ‰ by window, mantissa-only tags "
                   "(Table 10 variant)"};
    for (size_t ai = 0; ai < apps.size(); ai++) {
        const obs::PhaseProfile *p =
            profileOf(cells[ai].mant, Operation::FpDiv);
        if (!p || p->rows.empty())
            continue;
        mant.rows.push_back({apps[ai], permilleSeries(p->rows)});
    }
    sec.tables.push_back(mant);

    ReportTable heat;
    heat.header = {"application", "sets (occupancy 0-4 per digit)",
                   "first", "25%", "50%", "75%", "last"};
    for (size_t ai = 0; ai < apps.size(); ai++) {
        const obs::PhaseProfile *p =
            profileOf(cells[ai].full, Operation::FpDiv);
        if (!p || p->setOccupancy.empty())
            continue;
        size_t n = p->setOccupancy.size();
        std::vector<std::string> row{apps[ai], "fp div, s0..s7"};
        for (size_t q = 0; q <= 4; q++)
            row.push_back(setDigits(*p, std::min(n - 1, q * n / 4)));
        heat.rows.push_back(row);
    }
    sec.tables.push_back(heat);

    ReportTable reuse;
    reuse.header = {"application",  "accesses", "trivial",
                    "cold",         "short ≤32", "long",
                    "short ‰ by window (first 10)"};
    for (size_t ai = 0; ai < apps.size(); ai++) {
        const std::vector<ReuseWindow> &rw = cells[ai].reuse;
        if (rw.empty())
            continue;
        ReuseWindow tot;
        std::ostringstream sr;
        for (size_t i = 0; i < rw.size(); i++) {
            tot.accesses += rw[i].accesses;
            tot.trivial += rw[i].trivial;
            tot.cold += rw[i].cold;
            tot.shortReuse += rw[i].shortReuse;
            tot.longReuse += rw[i].longReuse;
            if (i < 10) {
                uint64_t nt =
                    rw[i].cold + rw[i].shortReuse + rw[i].longReuse;
                sr << (i ? " " : "")
                   << (nt ? rw[i].shortReuse * 1000 / nt : 0);
            }
        }
        std::string tail = rw.size() > 10 ? " …" : "";
        reuse.rows.push_back(
            {apps[ai], TextTable::count(tot.accesses),
             TextTable::count(tot.trivial), TextTable::count(tot.cold),
             TextTable::count(tot.shortReuse),
             TextTable::count(tot.longReuse), sr.str() + tail});
    }
    sec.tables.push_back(reuse);

    bool partition = true, monotone = true, aligned = true;
    for (const PhaseCell &c : cells) {
        partition = partition && c.partitionOk;
        aligned = aligned && c.reuseAligned;
        for (const obs::PhaseProfile &p : c.full)
            for (size_t i = 1; i < p.rows.size(); i++)
                if (p.rows[i].occupancy < p.rows[i - 1].occupancy)
                    monotone = false;
    }
    sec.claims.push_back(
        claim("Windows partition the access stream exactly: per-table "
              "window rows sum to the cumulative counters (the "
              "batched probeBlock path neither drops nor "
              "double-counts a boundary)",
              partition,
              partition ? "holds for every table of every application"
                        : "violated"));
    sec.claims.push_back(
        claim("Occupancy is non-decreasing across windows "
              "(replacement replaces, it never invalidates)",
              monotone,
              monotone ? "holds for every series" : "violated"));
    sec.claims.push_back(claim(
        "The windowed reuse profile (src/analysis) and the in-table "
        "phase rows agree window-for-window on presented and trivial "
        "access counts",
        aligned,
        aligned ? "window boundaries align across both layers"
                : "misaligned"));

    uint64_t full_hits = 0, mant_hits = 0;
    for (const PhaseCell &c : cells)
        for (Operation op : {Operation::FpMul, Operation::FpDiv}) {
            if (const obs::PhaseProfile *p = profileOf(c.full, op))
                for (const PhaseWindow &w : p->rows)
                    full_hits += w.stats.allHits();
            if (const obs::PhaseProfile *p = profileOf(c.mant, op))
                for (const PhaseWindow &w : p->rows)
                    mant_hits += w.stats.allHits();
        }
    sec.claims.push_back(
        claim("Summed over every window, mantissa-only tags hit at "
              "least as often as full-value tags (Table 10, resolved "
              "over position)",
              mant_hits >= full_hits,
              TextTable::count(mant_hits) + " vs " +
                  TextTable::count(full_hits) + " fp hits"));

    sec.notes = {
        "The same rows are published through the StatsRegistry as "
        "`phase.<unit>.*` time series and histograms "
        "(obs::publishPhases), and the per-window boundary logic is "
        "differentially tested against an out-of-table scalar "
        "reference in `tests/test_phase.cc` — including a mutation "
        "self-test that injects an off-by-one boundary fault and "
        "requires the differential to catch it."};
    return sec;
}

ReportSection
instrumentationSection(const obs::Snapshot &snap)
{
    ReportSection sec;
    sec.title = "Cycle breakdown (instrumentation)";
    sec.anchor = "instrumentation";
    sec.prose = {
        "Process-wide counters from the src/obs StatsRegistry, "
        "accumulated over every measurement above. All quantities are "
        "exact per-work-item integers, so this snapshot is "
        "bit-identical at any --jobs level. `sim.cpu.memoSaved.*` is "
        "the per-unit cycle breakdown: how many cycles MEMO-TABLE "
        "hits shaved off each functional unit across the speedup "
        "experiments."};

    ReportTable counters;
    counters.header = {"counter", "value"};
    for (const auto &[name, value] : snap.counters)
        counters.rows.push_back({"`" + name + "`",
                                 TextTable::count(value)});
    sec.tables = {counters};

    ReportTable hist;
    hist.header = {"occupancy histogram", "buckets (upper edge: count)"};
    for (const auto &[name, h] : snap.histograms) {
        if (name != "sim.cpu.occupancy.fp div" &&
            name != "sim.cpu.occupancy.fp mult")
            continue;
        std::ostringstream cells;
        for (size_t b = 0; b < h.counts().size(); b++) {
            if (b)
                cells << ", ";
            if (b + 1 == h.counts().size())
                cells << "inf: ";
            else
                cells << "≤" << h.edges()[b] << ": ";
            cells << h.counts()[b];
        }
        hist.rows.push_back({"`" + name + "`", cells.str()});
    }
    sec.tables.push_back(hist);
    sec.notes = {
        "The occupancy histograms show memoing at work: with tables "
        "attached, completion-latency mass moves into the ≤1 bucket "
        "(single-cycle hits) that the baseline runs never populate "
        "for multi-cycle units."};
    return sec;
}

ReportSection
extensionsSection()
{
    ReportSection sec;
    sec.title = "Extensions (no paper counterpart; future-work and "
                "ablations)";
    sec.anchor = "extensions";
    sec.prose = {
        "Narrative summaries of the `bench_ext_*` harnesses (run them "
        "for the full tables):",
        "- **Transcendental units** (`bench_ext_transcendental`): sqrt "
        "tables hit .10–.65 across kernels; adding a sqrt table lifts "
        "vcost's speedup 1.20 → 1.53 and vsqrt's 1.16 → 1.45 — "
        "confirming the paper's future-work claim that long-latency "
        "sqrt benefits at least as much as division.",
        "- **Shared multi-ported table** (`bench_ext_shared_table`): "
        "with two round-robin dividers, one shared 64-entry 2-port "
        "table beats two private 32-entry tables on every app (e.g. "
        "vkmeans .47 → .62) with zero port conflicts — quantifying "
        "section 2.3's proposal.",
        "- **Baselines** (`bench_ext_baselines`): at equal budget the "
        "PC-indexed Reuse Buffer trails the MEMO-TABLE on reuse-rich "
        "apps (vkmeans .29 vs .48) and a 32x larger all-instruction RB "
        "does no better (long-latency entries are bumped by "
        "single-cycle traffic) — the paper's two arguments against RB. "
        "The reciprocal cache hits far more often (divisor-only key) "
        "but each hit still costs a multiply: effective division "
        "latency 3.0–8.9 cycles vs the MEMO-TABLE's 7.2–13.0; which "
        "wins depends on divisor variety, as Oberman/Flynn's design "
        "predicts.",
        "- **Replacement** (`bench_ext_replacement`): LRU ≥ FIFO ≥ "
        "random, gaps of a few points only.",
        "- **Index hash** (`bench_ext_hash`): the paper's literal XOR "
        "hash maps every x·x to set 0; squares-heavy kernels lose "
        "fp-mult hits (suite average .27 vs .33 additive). We default "
        "to the additive hash and expose both (DESIGN.md section 5).",
        "- **Table as a second divider** (`bench_ext_table_as_cu`): "
        "replacing a second divider with a MEMO-TABLE issue port "
        "recovers 30-65% of the second divider's completion-time "
        "benefit on the reuse-rich apps (vspatial .65, vgpwl .54, "
        "vgauss .49) at a fraction of its area — quantifying section "
        "2.3's proposal.",
        "- **Reuse distance** (`bench_ext_reuse`): the stack-distance "
        "prediction equals the simulated fully associative hit ratio "
        "exactly at every size (cross-validation of both "
        "implementations); MM division streams reach 50% hit ratio "
        "within 6-32 entries while OCEAN needs ~1200 and swim more "
        "than 8192 — the analytic root of the paper's "
        "Multi-Media-vs-scientific split.",
        "- **Capacity vs lookup latency** (`bench_ext_cost`): with "
        "1-cycle hits SE grows monotonically with capacity, but "
        "charging the cost model's lookup latency (2 cycles past 128 "
        "entries, 3 past 2048) caps the net SE near the 64-128 entry "
        "point — the quantitative form of the paper's small-table "
        "argument.",
        "- **Tiered tables** (`bench_ext_tiered`): a 32-entry 1-cycle "
        "L1 backed by a 2048-entry L2 with promotion reaches the big "
        "table's coverage at close to the small table's latency: the "
        "lowest average effective division cost of the three "
        "configurations on every app.",
        "- **Soft errors** (`bench_ext_faults`): injected bit flips "
        "silently corrupt up to tens of percent of hits in an "
        "unprotected table (nothing downstream checks a memoized "
        "result); a per-entry parity bit detects essentially all of "
        "them, with the classic even-flip blind spot appearing only at "
        "extreme flip rates.",
        "- **Overlap** (`bench_ext_pipeline`): once issue overlaps and "
        "only structural hazards stall, memoization's gain "
        "concentrates where the unpipelined divider was the bottleneck "
        "(vslope 1.19, vspatial 1.21 overlapped) and vanishes where a "
        "non-memoized unit dominates — quantifying the paper's "
        "pipelining caveat."};
    return sec;
}

ReportSection
deviationsSection()
{
    ReportSection sec;
    sec.title = "Known deviations (summary)";
    sec.anchor = "deviations";
    sec.prose = {
        "1. Infinite-table ratios run below the paper for several "
        "scientific analogues: real Perfect/SPEC codes revisit whole "
        "state vectors across outer iterations more than our "
        "miniatures do.",
        "2. MM fp-div ratios at 32 entries average below the paper's "
        ".47: the Khoros divisions evidently drew from even narrower "
        "operand sets than our reconstructions; per-app orderings are "
        "preserved. The entropy sensitivity (Figure 2's slope) is "
        "correspondingly steeper than the paper's −5 %/bit.",
        "3. FE (fraction of cycles in mult/div) is higher than the "
        "paper's, raising our Table 12/13 speedups slightly; the hit "
        "ratios and the Amdahl formulas themselves reproduce the "
        "paper's rows exactly."};
    return sec;
}

} // anonymous namespace

Report
buildExperimentsReport()
{
    obs::StatsRegistry::global().reset();

    Report report;
    report.title = "EXPERIMENTS — paper vs. measured";
    report.preamble = {
        "Every table and figure of the paper's evaluation, measured "
        "through the same `check::measure*` / golden entry points the "
        "`bench_*` binaries and the `tests/golden/` snapshots use, and "
        "rendered by `build/tools/memo-report`. **Generated file — do "
        "not edit.** Regenerate with `build/tools/memo-report --write`; "
        "the `report_drift` check fails CI when this file disagrees "
        "with what the code measures.",
        "All runs are deterministic (fixed seeds, deterministic "
        "address remapping); the numbers below are what the harness "
        "prints on any machine, at any --jobs level. Inputs are "
        "synthetic images generated to the paper's Table 8 entropy "
        "profiles, and workloads are reimplementations (see DESIGN.md "
        "section 2), so absolute hit ratios are not expected to match "
        "digit for digit; each section lists the paper's *shape* "
        "claims with a measured pass/fail verdict."};

    SciSuiteResult perfect = measureSciSuite(perfectWorkloads());
    SciSuiteResult spec = measureSciSuite(specWorkloads());
    MmSuiteResult mm = measureMmSuite();
    EntropyResult ent = measureEntropy();
    TagModeResult tags = measureTagModes();
    SpeedupResult sp_div = measureSpeedups(SpeedupUnit::FpDiv);
    SpeedupResult sp_mul = measureSpeedups(SpeedupUnit::FpMul);
    SpeedupResult sp_both = measureSpeedups(SpeedupUnit::Both);

    std::vector<MemoConfig> size_cfgs;
    for (unsigned entries : fig3Sizes()) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        size_cfgs.push_back(cfg);
    }
    SweepBands fig3 = measureSweepBands(size_cfgs);

    std::vector<MemoConfig> way_cfgs;
    for (unsigned ways : fig4Ways()) {
        MemoConfig cfg;
        cfg.entries = 32;
        cfg.ways = ways;
        way_cfgs.push_back(cfg);
    }
    SweepBands fig4 = measureSweepBands(way_cfgs);

    const std::vector<std::string> &phase_apps = table9Apps();
    std::vector<PhaseCell> phases =
        exec::sweep(phase_apps, measurePhases);
    // Publish on this thread, in app order: the registry fold stays
    // identical at any --jobs level.
    for (const PhaseCell &c : phases)
        obs::publishPhases(obs::StatsRegistry::global(), c.full);

    report.sections.push_back(table1Section());
    report.sections.push_back(table5Section(perfect));
    report.sections.push_back(table6Section(spec));
    report.sections.push_back(table7Section(mm, perfect, spec));
    report.sections.push_back(table8Section(ent));
    report.sections.push_back(table9Section());
    report.sections.push_back(table10Section(tags));
    report.sections.push_back(speedupSection(sp_div, sp_mul, sp_both));
    report.sections.push_back(fig2Section(ent));
    report.sections.push_back(fig3Section(fig3));
    report.sections.push_back(fig4Section(fig4));
    report.sections.push_back(phaseSection(phase_apps, phases));
    report.sections.push_back(instrumentationSection(
        obs::StatsRegistry::global().snapshot()));
    report.sections.push_back(extensionsSection());
    report.sections.push_back(deviationsSection());
    return report;
}

} // namespace memo::check
