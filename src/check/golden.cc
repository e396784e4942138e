#include "golden.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "arith/units.hh"
#include "check/plan.hh"
#include "sim/latency.hh"

namespace memo::check
{

namespace
{

/** Exact round-trip double formatting for the canonical JSON. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonUnitHits(const UnitHits &h)
{
    return "[" + num(h.intMul) + ", " + num(h.fpMul) + ", " +
           num(h.fpDiv) + "]";
}

std::string
jsonBandRows(const std::vector<BandRow> &rows)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < rows.size(); i++) {
        if (i)
            os << ",";
        os << "\n    {\"avg\": " << num(rows[i].avg)
           << ", \"min\": " << num(rows[i].lo)
           << ", \"max\": " << num(rows[i].hi) << "}";
    }
    os << "\n  ]";
    return os.str();
}

std::string
renderTable1(const PlanResult &)
{
    std::ostringstream os;
    os << "{\n  \"presets\": [";
    bool first = true;
    for (CpuPreset p : LatencyConfig::table1Presets()) {
        LatencyConfig cfg = LatencyConfig::preset(p);
        os << (first ? "" : ",") << "\n    {\"name\": \""
           << presetName(p) << "\", \"fpMul\": "
           << cfg[InstClass::FpMul] << ", \"fpDiv\": "
           << cfg[InstClass::FpDiv] << "}";
        first = false;
    }
    os << "\n  ],\n  \"units\": ["
       << "\n    {\"name\": \"srt-divider-r2\", \"latency\": "
       << SrtDivider(1, 3).latency() << "},"
       << "\n    {\"name\": \"srt-divider-r4\", \"latency\": "
       << SrtDivider(2, 3).latency() << "},"
       << "\n    {\"name\": \"srt-divider-r16\", \"latency\": "
       << SrtDivider(4, 3).latency() << "},"
       << "\n    {\"name\": \"booth4-multiplier\", \"latency\": "
       << SequentialMultiplier(2, 1).latency() << "},"
       << "\n    {\"name\": \"tree-multiplier\", \"latency\": "
       << SequentialMultiplier(18, 1).latency() << "},"
       << "\n    {\"name\": \"digit-recurrence-sqrt\", \"latency\": "
       << DigitRecurrenceSqrt(2, 3).latency() << "}"
       << "\n  ]\n}\n";
    return os.str();
}

std::string
jsonSciSuite(const SciSuiteResult &r)
{
    std::ostringstream os;
    os << "{\n  \"rows\": [";
    for (size_t i = 0; i < r.rows.size(); i++) {
        os << (i ? "," : "") << "\n    {\"name\": \"" << r.rows[i].name
           << "\", \"h32\": " << jsonUnitHits(r.rows[i].h32)
           << ", \"hinf\": " << jsonUnitHits(r.rows[i].hinf) << "}";
    }
    os << "\n  ],\n  \"avg32\": " << jsonUnitHits(r.avg32)
       << ",\n  \"avgInf\": " << jsonUnitHits(r.avgInf) << "\n}\n";
    return os.str();
}

std::string
renderTable5(const PlanResult &r)
{
    return jsonSciSuite(r.sciSuites[kPerfectSuite]);
}

std::string
renderTable6(const PlanResult &r)
{
    return jsonSciSuite(r.sciSuites[kSpecSuite]);
}

std::string
jsonTrivialRow(const TrivialModeRow &r)
{
    return "{\"trv\": " + num(r.trv) + ", \"all\": " + num(r.all) +
           ", \"non\": " + num(r.non) + ", \"intgr\": " + num(r.intgr) +
           "}";
}

std::string
renderTable9(const PlanResult &r)
{
    const std::vector<std::string> &apps = table9Apps();
    std::ostringstream os;
    os << "{\n  \"rows\": [";
    for (size_t i = 0; i < apps.size(); i++) {
        os << (i ? "," : "") << "\n    {\"name\": \"" << apps[i]
           << "\",\n     \"intMul\": " << jsonTrivialRow(r.trivial[i][0])
           << ",\n     \"fpMul\": " << jsonTrivialRow(r.trivial[i][1])
           << ",\n     \"fpDiv\": " << jsonTrivialRow(r.trivial[i][2])
           << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::string
jsonSuiteAvg(const SuiteAvg &a)
{
    return "{\"fpMul\": " + num(a.fpMul) + ", \"fpDiv\": " +
           num(a.fpDiv) + "}";
}

std::string
renderTable10(const PlanResult &p)
{
    const TagModeResult &r = p.tagModes;
    std::ostringstream os;
    os << "{\n  \"perfectFull\": " << jsonSuiteAvg(r.perfectFull)
       << ",\n  \"perfectMant\": " << jsonSuiteAvg(r.perfectMant)
       << ",\n  \"mmFull\": " << jsonSuiteAvg(r.mmFull)
       << ",\n  \"mmMant\": " << jsonSuiteAvg(r.mmMant) << "\n}\n";
    return os.str();
}

/** A Figure 3/4 document: its x axis under @p axis, then the bands. */
std::string
jsonSweep(const char *axis, const std::vector<unsigned> &xs,
          const SweepBands &b)
{
    std::ostringstream os;
    os << "{\n  \"" << axis << "\": [";
    for (size_t i = 0; i < xs.size(); i++)
        os << (i ? ", " : "") << xs[i];
    os << "],\n  \"fpDiv\": " << jsonBandRows(b.fpDiv)
       << ",\n  \"fpMul\": " << jsonBandRows(b.fpMul) << "\n}\n";
    return os.str();
}

std::string
renderFig3(const PlanResult &r)
{
    return jsonSweep("sizes", fig3Sizes(), r.sweeps[kFig3Sweep]);
}

std::string
renderFig4(const PlanResult &r)
{
    return jsonSweep("ways", fig4Ways(), r.sweeps[kFig4Sweep]);
}

} // anonymous namespace

SciSuiteResult
measureSciSuite(const std::vector<SciWorkload> &suite)
{
    PlanRequest req;
    req.sciSuites = {&suite};
    return runPlan(req).sciSuites[0];
}

TrivialModeRow
measureTrivialModes(const MmKernel &kernel, Operation op)
{
    PlanRequest req;
    req.trivialApps = {kernel.name};
    req.trivialOps = {op};
    return runPlan(req).trivial[0][0];
}

const std::vector<std::string> &
table9Apps()
{
    static const std::vector<std::string> apps = {
        "vdiff", "vcost", "vgauss", "vspatial",
        "vslope", "vgef", "vdetilt", "venhance",
    };
    return apps;
}

TagModeResult
measureTagModes()
{
    PlanRequest req;
    req.tagModes = true;
    return runPlan(req).tagModes;
}

SweepBands
measureSweepBands(const std::vector<MemoConfig> &cfgs)
{
    PlanRequest req;
    req.sweeps = {cfgs};
    return runPlan(req).sweeps[0];
}

SweepBands
foldSweepBands(const std::vector<std::vector<UnitHits>> &per_kernel)
{
    SweepBands bands;
    const size_t n_cfg = per_kernel.empty() ? 0 : per_kernel[0].size();
    for (size_t s = 0; s < n_cfg; s++) {
        for (bool div_unit : {true, false}) {
            BandRow row;
            double sum = 0.0, lo = 1.0, hi = 0.0;
            int n = 0;
            for (const auto &hits : per_kernel) {
                double hr = div_unit ? hits[s].fpDiv : hits[s].fpMul;
                if (hr < 0)
                    continue;
                sum += hr;
                lo = std::min(lo, hr);
                hi = std::max(hi, hr);
                n++;
            }
            if (n) {
                row.avg = sum / n;
                row.lo = lo;
                row.hi = hi;
            }
            (div_unit ? bands.fpDiv : bands.fpMul).push_back(row);
        }
    }
    return bands;
}

const std::vector<unsigned> &
fig3Sizes()
{
    static const std::vector<unsigned> sizes = {
        8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u, 4096u,
        8192u};
    return sizes;
}

const std::vector<unsigned> &
fig4Ways()
{
    static const std::vector<unsigned> ways = {1u, 2u, 4u, 8u};
    return ways;
}

std::vector<MemoConfig>
fig3Configs()
{
    std::vector<MemoConfig> cfgs;
    for (unsigned entries : fig3Sizes()) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

std::vector<MemoConfig>
fig4Configs()
{
    std::vector<MemoConfig> cfgs;
    for (unsigned ways : fig4Ways()) {
        MemoConfig cfg;
        cfg.entries = 32;
        cfg.ways = ways;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

const std::vector<GoldenDoc> &
goldenDocs()
{
    static const std::vector<GoldenDoc> docs = {
        {"table1", renderTable1},   {"table5", renderTable5},
        {"table6", renderTable6},   {"fig4", renderFig4},
        {"table10", renderTable10}, {"table9", renderTable9},
        {"fig3", renderFig3},
    };
    return docs;
}

PlanRequest
goldenRequest()
{
    PlanRequest req;
    req.sciSuites = {&perfectWorkloads(), &specWorkloads()};
    req.tagModes = true;
    req.trivialApps = table9Apps();
    req.trivialOps = {Operation::IntMul, Operation::FpMul,
                      Operation::FpDiv};
    req.sweeps = {fig3Configs(), fig4Configs()};
    return req;
}

} // namespace memo::check
