/**
 * @file
 * The measurement plan (check/plan.hh): one trace-major pass that
 * generates every trace key exactly once, bypasses the TraceCache,
 * and folds the same results and registry deltas as the single-stage
 * entry points at any thread count.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/golden.hh"
#include "check/measure.hh"
#include "check/plan.hh"
#include "check/report.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "obs/stats.hh"
#include "scoped_env.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

using check::PlanResult;
using check::PlanTotals;

TEST(MeasurePlan, ReportBuildGeneratesEachKeyOnce)
{
    const size_t keys = mmKernels().size() * standardImages().size() +
                        perfectWorkloads().size() +
                        specWorkloads().size();
    ASSERT_EQ(keys, 271u);

    const uint64_t cached = exec::TraceCache::instance().generated();
    const PlanTotals before = check::planTotals();
    check::buildExperimentsReport();
    const PlanTotals after = check::planTotals();

    EXPECT_EQ(after.runs - before.runs, 1u);
    EXPECT_EQ(after.uniqueKeys - before.uniqueKeys, keys);
    EXPECT_EQ(after.generated - before.generated, keys)
        << "a trace key was generated more than once";
    EXPECT_EQ(exec::TraceCache::instance().generated(), cached)
        << "the report build went through the trace cache";
}

TEST(MeasurePlan, SelectorsEqualTheAllStagePlan)
{
    const PlanResult all = check::runPlan(check::paperRequest());

    EXPECT_EQ(check::measureSciSuite(perfectWorkloads()),
              all.sciSuites[check::kPerfectSuite]);
    EXPECT_EQ(check::measureSciSuite(specWorkloads()),
              all.sciSuites[check::kSpecSuite]);
    EXPECT_EQ(check::measureMmSuite(), all.mmSuite);
    EXPECT_EQ(check::measureEntropy(), all.entropy);
    EXPECT_EQ(check::measureTagModes(), all.tagModes);
    EXPECT_EQ(check::measureSweepBands(check::fig3Configs()),
              all.sweeps[check::kFig3Sweep]);
    EXPECT_EQ(check::measureSweepBands(check::fig4Configs()),
              all.sweeps[check::kFig4Sweep]);

    // Table 9 cells: one app per unit, including the one whose
    // other tables used to carry over between images.
    const std::string app = check::table9Apps()[0];
    const Operation ops[3] = {Operation::IntMul, Operation::FpMul,
                              Operation::FpDiv};
    for (size_t o = 0; o < 3; o++)
        EXPECT_EQ(check::measureTrivialModes(mmKernelByName(app), ops[o]),
                  all.trivial[0][o])
            << app << " unit " << o;

    const check::SpeedupTables tables = check::speedupTables(all.speedups);
    EXPECT_EQ(check::measureSpeedupTables(), tables);
    EXPECT_EQ(check::measureSpeedups(check::SpeedupUnit::FpDiv),
              tables.fpDiv);
    EXPECT_EQ(check::measureSpeedups(check::SpeedupUnit::FpMul),
              tables.fpMul);
    EXPECT_EQ(check::measureSpeedups(check::SpeedupUnit::Both),
              tables.both);
}

TEST(MeasurePlan, RegistrySnapshotIdenticalAtJobs1And4)
{
    auto snapshotAt = [](const char *jobs) {
        ScopedEnv scoped("MEMO_JOBS", jobs);
        check::buildExperimentsReport();
        return obs::StatsRegistry::global().snapshot().serialize();
    };
    const std::string serial = snapshotAt("1");
    const std::string parallel = snapshotAt("4");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // anonymous namespace
} // namespace memo
