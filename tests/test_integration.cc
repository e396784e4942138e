/**
 * @file
 * Integration tests: end-to-end properties the paper's conclusions
 * rest on, checked across modules.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/experiment.hh"
#include "analysis/lmfit.hh"
#include "img/entropy.hh"
#include "img/generate.hh"
#include "sim/amdahl.hh"
#include "sim/cpu.hh"

namespace memo
{
namespace
{

/** Pooled fp hit ratio (mul+div lookups) for one kernel on one image. */
double
fpHitRatio(const MmKernel &kernel, const Image &img,
           const MemoConfig &cfg)
{
    MemoBank bank = MemoBank::standard(cfg);
    Trace trace = traceMmKernel(kernel, img, 64);
    replayMemo(trace, bank);
    const MemoStats &m = bank.table(Operation::FpMul)->stats();
    const MemoStats &d = bank.table(Operation::FpDiv)->stats();
    uint64_t lookups = m.lookups + d.lookups;
    return lookups ? static_cast<double>(m.allHits() + d.allHits()) /
                         lookups
                   : 0.0;
}

TEST(Integration, MmBeatsScientificAt32Entries)
{
    // The paper's central claim: at a practical table size, Multi-Media
    // hit ratios far exceed general scientific ones.
    MemoConfig cfg;

    double mm_sum = 0.0;
    int mm_n = 0;
    for (const auto &name :
         {"vcost", "vgauss", "vspatial", "vkmeans", "vgpwl"}) {
        UnitHits h = measureMmKernelOnImage(
            mmKernelByName(name), imageByName("Muppet1").image, cfg, 64);
        if (h.fpDiv >= 0.0) {
            mm_sum += h.fpDiv;
            mm_n++;
        }
    }

    double sci_sum = 0.0;
    int sci_n = 0;
    for (const auto &name : {"QCD", "MDG", "OCEAN", "tomcatv", "swim"}) {
        MemoBank bank = MemoBank::standard(cfg);
        replayMemo(traceSciWorkload(sciWorkloadByName(name)), bank);
        UnitHits h = hitsOf(bank);
        if (h.fpDiv >= 0.0) {
            sci_sum += h.fpDiv;
            sci_n++;
        }
    }

    ASSERT_GT(mm_n, 0);
    ASSERT_GT(sci_n, 0);
    EXPECT_GT(mm_sum / mm_n, sci_sum / sci_n + 0.25);
}

TEST(Integration, HitRatioGrowsWithTableSize)
{
    // Figure 3's monotone trend.
    const MmKernel &k = mmKernelByName("vcost");
    const Image &img = imageByName("nature").image;
    double prev = -1.0;
    for (unsigned entries : {8u, 32u, 128u, 1024u}) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        UnitHits h = measureMmKernelOnImage(k, img, cfg, 64);
        EXPECT_GE(h.fpDiv, prev - 0.02) << entries;
        prev = h.fpDiv;
    }
}

TEST(Integration, AssociativityHelpsOverDirectMapped)
{
    // Figure 4: conflict misses hurt direct-mapped tables.
    const MmKernel &k = mmKernelByName("vcost");
    const Image &img = imageByName("nature").image;
    MemoConfig dm;
    dm.entries = 32;
    dm.ways = 1;
    MemoConfig a4;
    a4.entries = 32;
    a4.ways = 4;
    UnitHits h1 = measureMmKernelOnImage(k, img, dm, 64);
    UnitHits h4 = measureMmKernelOnImage(k, img, a4, 64);
    EXPECT_GE(h4.fpDiv, h1.fpDiv - 0.02);
    EXPECT_GE(h4.fpMul, h1.fpMul - 0.02);
}

TEST(Integration, HitRatioFallsWithEntropy)
{
    // Figure 2's relationship, checked on the generated image set:
    // the best-fit line of hit ratio against 8x8 window entropy must
    // slope downward.
    MemoConfig cfg;
    const MmKernel &k = mmKernelByName("venhance");

    std::vector<double> xs, ys;
    for (const auto &ni : standardImages()) {
        double e8 = windowEntropy(ni.image, 8);
        if (std::isnan(e8))
            continue;
        double hr = fpHitRatio(k, cropForTrace(ni.image, 64), cfg);
        xs.push_back(e8);
        ys.push_back(hr);
    }
    ASSERT_GE(xs.size(), 8u);
    FitResult fit = fitLine(xs, ys);
    EXPECT_LT(fit.params[1], 0.0);
}

TEST(Integration, MemoizedCpuMatchesAmdahlPrediction)
{
    // The measured cycle-level speedup must agree with the Amdahl
    // decomposition computed from the same run's statistics.
    const MmKernel &k = mmKernelByName("vgauss");
    Trace trace = traceMmKernel(k, imageByName("guya").image, 64);

    CpuModel cpu;
    SimResult base = cpu.run(trace);

    MemoBank bank;
    bank.addTable(Operation::FpDiv, MemoConfig{});
    SimResult memo = cpu.run(trace, &bank);

    double measured = static_cast<double>(base.totalCycles) /
                      static_cast<double>(memo.totalCycles);

    double hr = memo.memo.at(Operation::FpDiv).hitRatio();
    double fe = base.cycleFraction(InstClass::FpDiv);
    double se = speedupEnhanced(13, hr);
    double predicted = amdahlSpeedup(fe, se);

    // The analytic model ignores that trivial divisions keep full
    // latency inside the div cycle pool; agreement is approximate.
    EXPECT_NEAR(measured, predicted, 0.05 * predicted);
    EXPECT_GT(measured, 1.0);
}

TEST(Integration, SpeedupOrderingDivBeatsMulMemoing)
{
    // Section 3.3: memoizing division yields more speedup than
    // memoizing multiplication at similar hit ratios, because the
    // avoided latency is larger.
    const MmKernel &k = mmKernelByName("vgauss");
    Trace trace = traceMmKernel(k, imageByName("guya").image, 64);

    CpuModel cpu;
    SimResult base = cpu.run(trace);

    MemoBank div_bank;
    div_bank.addTable(Operation::FpDiv, MemoConfig{});
    SimResult div_run = cpu.run(trace, &div_bank);

    MemoBank mul_bank;
    mul_bank.addTable(Operation::FpMul, MemoConfig{});
    SimResult mul_run = cpu.run(trace, &mul_bank);

    double div_speedup = static_cast<double>(base.totalCycles) /
                         div_run.totalCycles;
    double mul_speedup = static_cast<double>(base.totalCycles) /
                         mul_run.totalCycles;
    EXPECT_GT(div_speedup, mul_speedup);
}

TEST(Integration, MemoizedValuesAreExact)
{
    // Replaying with tables must never change a computed value: the
    // CpuModel asserts it internally; this exercises a large mixed
    // trace end to end under both tag modes.
    const MmKernel &k = mmKernelByName("vslope");
    Trace trace = traceMmKernel(k, imageByName("fractal").image, 64);

    CpuModel cpu;
    for (TagMode mode : {TagMode::FullValue, TagMode::MantissaOnly}) {
        MemoConfig cfg;
        cfg.tagMode = mode;
        MemoBank bank = MemoBank::standard(cfg);
        SimResult res = cpu.run(trace, &bank);
        EXPECT_GT(res.totalCycles, 0u);
    }
}

TEST(Integration, MantissaTagsRaiseHitRatio)
{
    // Table 10's direction: mantissa-only tags hit at least as often.
    MemoConfig full;
    MemoConfig mant;
    mant.tagMode = TagMode::MantissaOnly;

    const MmKernel &k = mmKernelByName("vslope");
    const Image &img = imageByName("Muppet1").image;
    UnitHits hf = measureMmKernelOnImage(k, img, full, 64);
    UnitHits hm = measureMmKernelOnImage(k, img, mant, 64);
    EXPECT_GE(hm.fpDiv, hf.fpDiv - 0.03);
}

} // anonymous namespace
} // namespace memo
