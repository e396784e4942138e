/**
 * @file
 * Tests for the experiment executor: ThreadPool, parallelFor/sweep
 * determinism, the process-wide TraceCache (including a capped-budget
 * Figure 3 sweep against its golden), and the strict parsing of the
 * MEMO_JOBS / MEMO_TRACE_CACHE_MB knobs. The concurrent cases double
 * as the ThreadSanitizer workload in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "check/golden.hh"
#include "check/plan.hh"
#include "exec/env.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "sim/cpu.hh"
#include "trace/recorder.hh"
#include "scoped_env.hh"
#include "workloads/workload.hh"

using namespace memo;

namespace
{

/** A tiny deterministic trace for cache and model tests. */
Trace
tinyTrace(int variant)
{
    Trace t;
    Recorder rec(t);
    for (int i = 0; i < 64; i++) {
        double a = 1.0 + (i % 8) * 0.5 + variant;
        double b = rec.mul(a, 3.0);
        rec.div(b, 2.0);
        rec.alu(2);
        rec.branch();
    }
    return t;
}

} // anonymous namespace

TEST(ThreadPool, RunsSubmittedTasks)
{
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::atomic<int> count{0};
    for (int i = 0; i < 100; i++)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    exec::ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 10; i++)
            pool.submit([&] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(exec::ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, DefaultJobsHonoursEnv)
{
    for (unsigned n : {3u, exec::ThreadPool::kMaxJobs}) {
        ScopedEnv env("MEMO_JOBS", std::to_string(n).c_str());
        EXPECT_EQ(exec::ThreadPool::defaultJobs(), n);
    }
}

TEST(ThreadPool, DefaultJobsRejectsMalformedEnv)
{
    // Only defaultJobs() runs under these values: no pool is built.
    const unsigned fallback =
        std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"3x", " 3", "+3", "-2", "0", "", "2.5",
                            "4294967296", "99999999999", "1025",
                            "100000"}) {
        ScopedEnv env("MEMO_JOBS", bad);
        EXPECT_EQ(exec::ThreadPool::defaultJobs(), fallback)
            << "MEMO_JOBS=\"" << bad << "\"";
    }
}

TEST(ThreadPool, SharedPoolServesEightJobs)
{
    // The shared pool is sized for at least 8 concurrent workers so
    // `--jobs 8` means 8 real threads even on small hosts.
    EXPECT_GE(exec::ThreadPool::shared().size(), 8u);
}

TEST(ExecEnv, ParsePositiveAcceptsMaxAndRejectsAbove)
{
    EXPECT_EQ(exec::parsePositive("1", 1), uint64_t{1});
    EXPECT_EQ(exec::parsePositive("255", 255), uint64_t{255});
    EXPECT_EQ(exec::parsePositive("256", 255), std::nullopt);
    EXPECT_EQ(exec::parsePositive("18446744073709551615", UINT64_MAX),
              UINT64_MAX);
    EXPECT_EQ(exec::parsePositive("18446744073709551616", UINT64_MAX),
              std::nullopt);
}

TEST(ExecEnv, ParseUnsignedAcceptsZeroWithTheSameStrictness)
{
    EXPECT_EQ(exec::parseUnsigned("0", 10), uint64_t{0});
    EXPECT_EQ(exec::parsePositive("0", 10), std::nullopt);
    EXPECT_EQ(exec::parseUnsigned("10", 10), uint64_t{10});
    EXPECT_EQ(exec::parseUnsigned("11", 10), std::nullopt);
    for (const char *bad :
         {static_cast<const char *>(nullptr), "", " 0", "0 ", "+0",
          "-0", "0x1", "1.0", "1e1"}) {
        EXPECT_EQ(exec::parseUnsigned(bad, 10), std::nullopt)
            << "\"" << (bad ? bad : "(null)") << "\"";
        EXPECT_EQ(exec::parsePositive(bad, 10), std::nullopt)
            << "\"" << (bad ? bad : "(null)") << "\"";
    }
}

TEST(ExecEnv, ParseMebibytesLargestCountThatFits)
{
    constexpr size_t largest = SIZE_MAX >> 20;
    EXPECT_EQ(exec::parseMebibytes("1"), size_t{1} << 20);
    EXPECT_EQ(exec::parseMebibytes(std::to_string(largest).c_str()),
              largest << 20);
    EXPECT_EQ(exec::parseMebibytes(std::to_string(largest + 1).c_str()),
              std::nullopt);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> seen(n);
    exec::parallelFor(
        n, [&](size_t i) { seen[i].fetch_add(1); }, 4);
    for (size_t i = 0; i < n; i++)
        EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SingleJobRunsInlineInOrder)
{
    std::vector<size_t> order;
    auto caller = std::this_thread::get_id();
    exec::parallelFor(
        8,
        [&](size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        },
        1);
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(
        exec::parallelFor(
            100,
            [&](size_t i) {
                if (i == 37)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    // A body that itself calls parallelFor must not deadlock the
    // shared pool; nested loops run inline on the worker.
    std::atomic<int> count{0};
    exec::parallelFor(
        8,
        [&](size_t) {
            exec::parallelFor(
                8, [&](size_t) { count.fetch_add(1); }, 4);
        },
        4);
    EXPECT_EQ(count.load(), 64);
}

TEST(Sweep, ResultsAreIndexAligned)
{
    auto out = exec::sweep(
        256, [](size_t i) { return i * i; }, 8);
    ASSERT_EQ(out.size(), 256u);
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], i * i);
}

TEST(Sweep, VectorOverloadMapsItems)
{
    std::vector<int> items{5, 3, 9, 1};
    auto out =
        exec::sweep(items, [](int v) { return v * 2; }, 2);
    EXPECT_EQ(out, (std::vector<int>{10, 6, 18, 2}));
}

TEST(Sweep, SimResultsIdenticalSerialAndParallel)
{
    // Replay the same traces through private CpuModels serially and
    // in parallel; every counter must match bit for bit.
    std::vector<Trace> traces;
    for (int v = 0; v < 6; v++)
        traces.push_back(tinyTrace(v));

    auto run = [&](unsigned jobs) {
        return exec::sweep(
            traces.size(),
            [&](size_t i) {
                CpuModel cpu;
                MemoBank bank = MemoBank::standard(MemoConfig{});
                return cpu.run(traces[i], &bank);
            },
            jobs);
    };
    auto serial = run(1);
    auto parallel = run(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].totalCycles, parallel[i].totalCycles);
        EXPECT_EQ(serial[i].annulCycles, parallel[i].annulCycles);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        EXPECT_EQ(serial[i].count, parallel[i].count);
    }
}

TEST(Sweep, MmKernelConfigSweepIsDeterministic)
{
    // The real workhorse: hit-ratio sweep of one kernel under four
    // table geometries, serial vs parallel, must be bit-identical.
    const MmKernel &k = mmKernelByName("vcost");
    std::vector<MemoConfig> cfgs(4);
    cfgs[1].entries = 8;
    cfgs[2].entries = 128;
    cfgs[3].infinite = true;

    auto serial = measureMmKernelConfigs(k, cfgs, 32, 1);
    auto parallel = measureMmKernelConfigs(k, cfgs, 32, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].intMul, parallel[i].intMul);
        EXPECT_EQ(serial[i].fpMul, parallel[i].fpMul);
        EXPECT_EQ(serial[i].fpDiv, parallel[i].fpDiv);
    }
}

TEST(TraceCache, SameKeyYieldsSameInstanceGeneratedOnce)
{
    exec::TraceCache cache;
    int calls = 0;
    auto gen = [&] {
        calls++;
        return tinyTrace(0);
    };
    auto a = cache.get({"k", "img", 32}, gen);
    auto b = cache.get({"k", "img", 32}, gen);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.generated(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(TraceCache, DistinctKeysGetDistinctTraces)
{
    exec::TraceCache cache;
    auto a = cache.get({"k", "img", 32}, [] { return tinyTrace(0); });
    auto b = cache.get({"k", "img", 64}, [] { return tinyTrace(1); });
    auto c = cache.get({"k2", "img", 32}, [] { return tinyTrace(2); });
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.entries(), 3u);
}

TEST(TraceCache, ConcurrentLookupsGenerateOnce)
{
    // Eight threads race on one key; the generator must run exactly
    // once and everyone must get the same instance. Exercised under
    // ThreadSanitizer in CI.
    exec::TraceCache cache;
    std::atomic<int> calls{0};
    std::vector<std::shared_ptr<const Trace>> got(8);
    // Deliberately bypasses the pool to hammer one cache key from
    // unmanaged threads.
    // NOLINTNEXTLINE(memo-CONC-001)
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; t++) {
        threads.emplace_back([&, t] {
            got[t] = cache.get({"race", "img", 32}, [&] {
                calls.fetch_add(1);
                return tinyTrace(0);
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(calls.load(), 1);
    for (int t = 1; t < 8; t++)
        EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(TraceCache, EvictsLeastRecentlyUsedOverBudget)
{
    Trace probe = tinyTrace(0);
    size_t one = probe.memoryBytes();
    ASSERT_GT(one, 0u);

    // Budget for two traces; inserting a third must evict the coldest.
    exec::TraceCache cache(2 * one + one / 2);
    cache.get({"a", "", 0}, [] { return tinyTrace(0); });
    cache.get({"b", "", 0}, [] { return tinyTrace(1); });
    cache.get({"a", "", 0}, [] { return tinyTrace(0); }); // refresh a
    cache.get({"c", "", 0}, [] { return tinyTrace(2); }); // evicts b
    EXPECT_EQ(cache.entries(), 2u);

    int regen_b = 0, regen_a = 0;
    // `a` was refreshed before `c` was inserted, so `b` was the LRU
    // victim; a must still be resident.
    cache.get({"a", "", 0}, [&] {
        regen_a++;
        return tinyTrace(0);
    });
    EXPECT_EQ(regen_a, 0) << "a was recently used and should survive";
    cache.get({"b", "", 0}, [&] {
        regen_b++;
        return tinyTrace(1);
    });
    EXPECT_EQ(regen_b, 1) << "b should have been evicted";
}

TEST(TraceCache, SharedHoldersSurviveClear)
{
    exec::TraceCache cache;
    auto a = cache.get({"k", "", 0}, [] { return tinyTrace(0); });
    size_t n = a->size();
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(a->size(), n); // our shared_ptr keeps the trace alive
}

TEST(TraceCache, CachedMmTraceIsProcessWideShared)
{
    // The analysis helper must hand back the same instance on repeat
    // calls — this is what lets every measurement over one (kernel,
    // image) pair share a single generation.
    const MmKernel &k = mmKernelByName("vcost");
    const auto &img = standardImages().front();
    auto a = cachedMmKernelTrace(k, img, 32);
    auto b = cachedMmKernelTrace(k, img, 32);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_FALSE(a->empty());
}

TEST(TraceCache, BudgetEnvAcceptsPositiveMebibytes)
{
    ScopedEnv env("MEMO_TRACE_CACHE_MB", "64");
    exec::TraceCache cache;
    EXPECT_EQ(cache.budgetBytes(), size_t{64} << 20);
    cache.setBudgetBytes(size_t{1} << 20);
    cache.setBudgetBytes(0); // back to the (environment) default
    EXPECT_EQ(cache.budgetBytes(), size_t{64} << 20);
}

TEST(TraceCache, BudgetEnvRejectsMalformedValues)
{
    const size_t fallback = size_t{768} << 20;
    // 17592186044416 = 2^44 MiB, whose byte count (2^64) overflows.
    for (const char *bad :
         {"17592186044416", "64MB", "64 ", " 64", "+64", "-64", "0",
          "", "1e3", "99999999999999999999999"}) {
        ScopedEnv env("MEMO_TRACE_CACHE_MB", bad);
        EXPECT_EQ(exec::TraceCache().budgetBytes(), fallback)
            << "MEMO_TRACE_CACHE_MB=\"" << bad << "\"";
    }
}

TEST(TraceCache, GeneratorExceptionLeavesKeyRetryable)
{
    exec::TraceCache cache;
    EXPECT_THROW(cache.get({"k", "", 0},
                           []() -> Trace {
                               throw std::runtime_error("generator");
                           }),
                 std::runtime_error);
    EXPECT_EQ(cache.generated(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);

    // The failed generation leaves nothing behind: the next lookup of
    // the key runs its generator and caches the result.
    int calls = 0;
    auto t = cache.get({"k", "", 0}, [&] {
        calls++;
        return tinyTrace(0);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(t->size(), tinyTrace(0).size());
    EXPECT_EQ(cache.generated(), 1u);
    EXPECT_EQ(cache.residentBytes(), t->memoryBytes());
    cache.get({"k", "", 0}, [&] {
        calls++;
        return tinyTrace(0);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCache, TraceOverBudgetStaysUntilNextInsertion)
{
    const size_t one = tinyTrace(0).memoryBytes();
    exec::TraceCache cache(one / 2);

    // A trace larger than the whole budget is still cached: the walk
    // never evicts the entry it has just inserted.
    auto a = cache.get({"a", "", 0}, [] { return tinyTrace(0); });
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    int regen_a = 0;
    cache.get({"a", "", 0}, [&] {
        regen_a++;
        return tinyTrace(0);
    });
    EXPECT_EQ(regen_a, 0);
    EXPECT_EQ(cache.hits(), 1u);

    // The next insertion takes its place.
    auto b = cache.get({"b", "", 0}, [] { return tinyTrace(1); });
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.residentBytes(), b->memoryBytes());
}

TEST(TraceCache, LoweredBudgetAppliesAtNextInsertion)
{
    const size_t one = tinyTrace(0).memoryBytes();
    exec::TraceCache cache(16 * one);
    for (const char *k : {"a", "b", "c"})
        cache.get({k, "", 0}, [] { return tinyTrace(0); });
    const size_t three = cache.residentBytes();

    cache.setBudgetBytes(one + one / 2);
    EXPECT_EQ(cache.budgetBytes(), one + one / 2);
    EXPECT_EQ(cache.entries(), 3u) << "lowering the budget evicted";
    EXPECT_EQ(cache.residentBytes(), three);
    EXPECT_EQ(cache.evictions(), 0u);

    // Inserting d walks the LRU list from its cold end (a, b, c) until
    // the resident bytes fit again, which leaves d alone.
    auto d = cache.get({"d", "", 0}, [] { return tinyTrace(3); });
    EXPECT_EQ(cache.evictions(), 3u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.residentBytes(), d->memoryBytes());
}

TEST(TraceCache, ClearIsNotCountedAsEviction)
{
    exec::TraceCache cache;
    cache.get({"a", "", 0}, [] { return tinyTrace(0); });
    cache.get({"b", "", 0}, [] { return tinyTrace(1); });
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);

    // A cleared key is generated afresh, not served as a hit.
    int regen_a = 0;
    cache.get({"a", "", 0}, [&] {
        regen_a++;
        return tinyTrace(0);
    });
    EXPECT_EQ(regen_a, 1);
    EXPECT_EQ(cache.generated(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
}

namespace
{

/**
 * The Figure 3 sweep through the cache-backed measureMmKernelConfigs
 * (the report itself bypasses the cache), folded into bands and
 * serialized by the fig3 golden document.
 */
std::string
cachedFig3(const check::GoldenDoc &fig3)
{
    std::vector<std::vector<UnitHits>> per_kernel;
    for (const std::string &name : sweepKernelNames())
        per_kernel.push_back(measureMmKernelConfigs(
            mmKernelByName(name), check::fig3Configs(),
            check::goldenCrop));
    check::PlanResult r;
    r.sweeps.resize(check::kFig3Sweep + 1);
    r.sweeps[check::kFig3Sweep] = check::foldSweepBands(per_kernel);
    return fig3.render(r);
}

} // anonymous namespace

TEST(TraceCache, LowBudget64MbMatchesUnlimitedGoldens)
{
    const check::GoldenDoc *fig3 = nullptr;
    for (const check::GoldenDoc &d : check::goldenDocs())
        if (d.name == "fig3")
            fig3 = &d;
    ASSERT_NE(fig3, nullptr);

    exec::TraceCache &cache = exec::TraceCache::instance();
    cache.clear();
    cache.setBudgetBytes(size_t{64} << 20);
    const uint64_t evictions0 = cache.evictions();

    // The sweep's working set is far over 64 MiB, so pass 1 evicts.
    // Pass 2 asks for the same keys without clearing the cache: every
    // generation it runs regenerates a key pass 1 evicted, and must
    // reproduce that trace bit for bit.
    const std::string first = cachedFig3(*fig3);
    const uint64_t generated1 = cache.generated();
    const std::string second = cachedFig3(*fig3);
    const uint64_t evicted = cache.evictions() - evictions0;
    const uint64_t regenerated = cache.generated() - generated1;

    // Restore the process-wide default before asserting, so a failure
    // here cannot leak a 64 MiB budget into later tests when the whole
    // binary runs in one process.
    cache.setBudgetBytes(0);
    cache.clear();

    EXPECT_GT(evicted, 0u) << "64 MiB budget never evicted";
    EXPECT_GT(regenerated, 0u) << "pass 2 regenerated no evicted key";

    std::ifstream in(std::string(MEMO_SOURCE_DIR) +
                         "/tests/golden/fig3.json",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing tests/golden/fig3.json";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(first, golden.str())
        << "capped-budget sweep diverged from the unlimited-budget "
           "golden";
    EXPECT_EQ(second, golden.str())
        << "sweep over regenerated traces diverged from the golden";
}
