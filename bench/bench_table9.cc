/**
 * @file
 * Table 9: trivial-operation handling. For eight Multi-Media
 * applications, the fraction of trivial operations and the hit ratios
 * when (a) all operations are cached, (b) only non-trivial operations
 * are cached, and (c) trivial detection is integrated into the
 * MEMO-TABLE (trivial ops count as hits).
 */

#include <iostream>

#include "check/plan.hh"
#include "common.hh"

using namespace memo;

namespace
{

// The measurement itself (the check::runPlan Table 9 stage, behind
// check::measureTrivialModes) is shared with the table9 golden
// snapshot; this binary only renders it.
using ModeRow = check::TrivialModeRow;

} // anonymous namespace

int
main()
{
    bench::printHeader("Trivial-operation policies (trv fraction; hit "
                       "ratios all/non/intgr)",
                       "Table 9");

    const std::vector<std::string> &apps = check::table9Apps();

    TextTable t({"application", "im trv", "im all", "im non",
                 "im intgr", "fm trv", "fm all", "fm non", "fm intgr",
                 "fd trv", "fd all", "fd non", "fd intgr"});
    // One measurement plan for every application and unit, so each
    // (app, image) trace is recorded exactly once.
    check::PlanRequest req;
    req.trivialApps = apps;
    req.trivialOps = {Operation::IntMul, Operation::FpMul,
                      Operation::FpDiv};
    const std::vector<std::vector<ModeRow>> rows =
        check::runPlan(req).trivial;

    for (size_t ai = 0; ai < apps.size(); ai++) {
        const std::string &name = apps[ai];
        const ModeRow &im = rows[ai][0];
        const ModeRow &fm = rows[ai][1];
        const ModeRow &fd = rows[ai][2];
        t.addRow({name, TextTable::ratio(im.trv),
                  TextTable::ratio(im.all), TextTable::ratio(im.non),
                  TextTable::ratio(im.intgr), TextTable::ratio(fm.trv),
                  TextTable::ratio(fm.all), TextTable::ratio(fm.non),
                  TextTable::ratio(fm.intgr), TextTable::ratio(fd.trv),
                  TextTable::ratio(fd.all), TextTable::ratio(fd.non),
                  TextTable::ratio(fd.intgr)});
    }
    t.print(std::cout);

    std::cout << "\nPaper averages: int mult trv .50, all .55, non "
                 ".56, intgr .76;\n fp mult trv .25, all .41, non .41, "
                 "intgr .54; fp div trv .03, all/non/intgr .40.\nShape "
                 "to check: integrated trivial detection gives the "
                 "highest ratios; caching\ntrivial ops pollutes the "
                 "table for some applications and helps others.\n";
    return 0;
}
