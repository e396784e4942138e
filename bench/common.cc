#include "common.hh"

#include <iostream>
#include <stdexcept>
#include <thread>

#include "exec/trace_cache.hh"
#include "img/generate.hh"

namespace memo::bench
{

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n== " << title << " ==\n"
              << "   (reproduces " << paper_ref << ")\n\n";
}

void
printSciSuite(const std::vector<SciWorkload> &suite)
{
    // The measurement (parallel fan-out, pooled averages) lives in the
    // golden layer so the snapshots diff exactly what we print here.
    check::SciSuiteResult r = check::measureSciSuite(suite);

    TextTable t({"application", "int mult", "fp mult", "fp div",
                 "int mult inf", "fp mult inf", "fp div inf",
                 "paper 32 (i/m/d)", "paper inf (i/m/d)"});

    for (size_t wi = 0; wi < suite.size(); wi++) {
        const SciWorkload &w = suite[wi];
        const UnitHits &h32 = r.rows[wi].h32;
        const UnitHits &hinf = r.rows[wi].hinf;
        t.addRow({w.name, TextTable::ratio(h32.intMul),
                  TextTable::ratio(h32.fpMul),
                  TextTable::ratio(h32.fpDiv),
                  TextTable::ratio(hinf.intMul),
                  TextTable::ratio(hinf.fpMul),
                  TextTable::ratio(hinf.fpDiv),
                  TextTable::ratio(w.paper.intMul32) + "/" +
                      TextTable::ratio(w.paper.fpMul32) + "/" +
                      TextTable::ratio(w.paper.fpDiv32),
                  TextTable::ratio(w.paper.intMulInf) + "/" +
                      TextTable::ratio(w.paper.fpMulInf) + "/" +
                      TextTable::ratio(w.paper.fpDivInf)});
    }
    t.addRow({"average", TextTable::ratio(r.avg32.intMul),
              TextTable::ratio(r.avg32.fpMul),
              TextTable::ratio(r.avg32.fpDiv),
              TextTable::ratio(r.avgInf.intMul),
              TextTable::ratio(r.avgInf.fpMul),
              TextTable::ratio(r.avgInf.fpDiv), "", ""});
    t.print(std::cout);
}

void
printSpeedups(const check::SpeedupResult &r, const std::string &fast_tag,
              const std::string &slow_tag)
{
    bool with_hit = r.avgHit >= 0;
    std::vector<std::string> header{"app"};
    if (with_hit)
        header.push_back("hit");
    for (const std::string &tag : {fast_tag, slow_tag}) {
        header.push_back("FE " + tag);
        header.push_back("SE " + tag);
        header.push_back("speedup " + tag);
        header.push_back("meas " + tag);
    }
    TextTable t(header);

    for (const check::SpeedupRow &row : r.rows) {
        std::vector<std::string> cells{row.app};
        if (with_hit)
            cells.push_back(TextTable::ratio(row.hit));
        for (const check::SpeedupCell *cell : {&row.fast, &row.slow}) {
            cells.push_back(TextTable::fixed(cell->fe, 3));
            cells.push_back(TextTable::fixed(cell->se, 2));
            cells.push_back(TextTable::fixed(cell->speedup, 2));
            cells.push_back(TextTable::fixed(cell->measured, 2));
        }
        t.addRow(cells);
    }
    std::vector<std::string> avg{"average"};
    if (with_hit)
        avg.push_back(TextTable::ratio(r.avgHit));
    avg.insert(avg.end(), {"", "", TextTable::fixed(r.avgFast, 2), "",
                           "", "", TextTable::fixed(r.avgSlow, 2), ""});
    t.addRow(avg);
    t.print(std::cout);
}

prof::BenchRecord
makeBenchRecord(const std::string &scenario, const std::string &suite,
                unsigned jobs)
{
    prof::BenchRecord r;
    r.scenario = scenario;
    r.suite = suite;
    r.jobs = jobs;
    r.env = prof::EnvManifest::collect();
    // Uniform environment extras: every record of every suite carries
    // the host thread budget and the trace-cache memory trajectory, so
    // cross-suite tooling never has to special-case which scenario
    // happened to record them.
    r.extra["hardwareThreads"] =
        static_cast<double>(std::thread::hardware_concurrency());
    const auto &tc = exec::TraceCache::instance();
    constexpr double mb = 1024.0 * 1024.0;
    r.extra["traceCacheResidentMb"] =
        static_cast<double>(tc.residentBytes()) / mb;
    return r;
}

void
writeBenchRecords(const std::string &path,
                  const std::vector<prof::BenchRecord> &records)
{
    if (!prof::writeBenchFile(path, records))
        throw std::runtime_error("cannot write " + path);
    std::cout << "\nwrote " << path << "\n";
}

} // namespace memo::bench
