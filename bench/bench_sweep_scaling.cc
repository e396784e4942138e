/**
 * @file
 * Executor scaling harness: runs the Figure 3 table-geometry sweep
 * (5 kernels x 11 table sizes) serially and in parallel, verifies the
 * two runs produce bit-identical hit ratios, and emits machine-
 * readable wall-clock timings (BENCH_sweep.json, under the shared
 * schema of prof/bench_record.hh) so the perf trajectory of the
 * reproduction suite is tracked across PRs — and can be gated with
 * `memo-bench --check` against any BENCH_*.json history.
 *
 * Usage: bench_sweep_scaling [output.json] [jobs]
 *   output.json  defaults to BENCH_sweep.json in the CWD
 *   jobs         parallel worker count (default 8, capped by the pool;
 *                0 means ThreadPool::defaultJobs())
 */

#include <climits>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "common.hh"
#include "exec/env.hh"
#include "exec/parallel.hh"
#include "exec/trace_cache.hh"
#include "prof/prof.hh"

using namespace memo;

namespace
{

double
secondsSince(uint64_t t0_ns)
{
    return static_cast<double>(prof::nowNs() - t0_ns) / 1e9;
}

/** The Figure 3 sweep geometry: 4-way tables, 8..8192 entries. */
std::vector<MemoConfig>
sweepConfigs()
{
    std::vector<MemoConfig> cfgs;
    for (unsigned entries : {8u, 16u, 32u, 64u, 128u, 256u, 512u,
                             1024u, 2048u, 4096u, 8192u}) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

/** Per-unit stat shard of one (kernel, config, image) replay. */
struct SweepShard
{
    MemoStats intMul, fpMul, fpDiv;
};

double
pooledRatio(const MemoStats &s)
{
    return s.lookups ? s.hitRatio() : -1.0;
}

/**
 * Replay the whole sweep as one flat (kernel, config, image) job
 * list: with 5 kernels x 11 configs x images the executor sees a few
 * hundred fine-grained items (grain 2 batches neighbours to amortize
 * dispatch), so even the tail of the sweep keeps every worker busy.
 * Each item replays one shared immutable trace into its own fresh
 * bank — equivalent to the old per-(kernel, config) loop that flushed
 * between images — and the per-unit stat deltas are folded in image
 * order below, so the pooled ratios are bit-identical for any job
 * count and any grain.
 */
std::vector<UnitHits>
runSweep(const std::vector<std::string> &kernels,
         const std::vector<MemoConfig> &cfgs, unsigned jobs)
{
    const auto &images = standardImages();
    const size_t n_img = images.size();
    const size_t n_cfg = cfgs.size();

    auto shards = exec::sweep(
        kernels.size() * n_cfg * n_img,
        [&](size_t i) {
            const MmKernel &k =
                mmKernelByName(kernels[i / (n_cfg * n_img)]);
            const MemoConfig &cfg = cfgs[(i / n_img) % n_cfg];
            auto trace = cachedMmKernelTrace(k, images[i % n_img],
                                             bench::benchCrop);
            MemoBank bank = MemoBank::standard(cfg);
            replayMemo(*trace, bank);
            SweepShard s;
            s.intMul = bank.table(Operation::IntMul)->stats();
            s.fpMul = bank.table(Operation::FpMul)->stats();
            s.fpDiv = bank.table(Operation::FpDiv)->stats();
            return s;
        },
        jobs, /*grain=*/2);

    std::vector<UnitHits> out(kernels.size() * n_cfg);
    for (size_t p = 0; p < out.size(); p++) {
        SweepShard pool;
        for (size_t ii = 0; ii < n_img; ii++) {
            const SweepShard &s = shards[p * n_img + ii];
            pool.intMul.merge(s.intMul);
            pool.fpMul.merge(s.fpMul);
            pool.fpDiv.merge(s.fpDiv);
        }
        out[p].intMul = pooledRatio(pool.intMul);
        out[p].fpMul = pooledRatio(pool.fpMul);
        out[p].fpDiv = pooledRatio(pool.fpDiv);
    }
    return out;
}

bool
identical(const std::vector<UnitHits> &a, const std::vector<UnitHits> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++) {
        if (a[i].intMul != b[i].intMul || a[i].fpMul != b[i].fpMul ||
            a[i].fpDiv != b[i].fpDiv)
            return false;
    }
    return true;
}

/** One single-sample record of the "sweep" suite. */
prof::BenchRecord
phaseRecord(const std::string &scenario, unsigned jobs, double sec)
{
    prof::BenchRecord r = bench::makeBenchRecord(scenario, "sweep", jobs);
    r.reps = 1;
    r.samplesSec = {sec};
    prof::summarizeSamples(r);
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
    unsigned jobs = 8;
    if (argc > 2) {
        auto n = exec::parseUnsigned(argv[2], UINT_MAX);
        if (!n) {
            std::fprintf(stderr, "bench_sweep_scaling: jobs must be an "
                                 "unsigned integer, got '%s'\n",
                         argv[2]);
            return 1;
        }
        jobs = static_cast<unsigned>(*n);
    }
    if (jobs == 0)
        jobs = exec::ThreadPool::defaultJobs();

    bench::printHeader(
        "Executor scaling: Figure 3 sweep, serial vs parallel",
        "exec subsystem performance tracking");

    const auto &kernels = sweepKernelNames();
    auto cfgs = sweepConfigs();

    // Warm the trace cache first so both timed runs measure pure
    // sweep execution, not trace generation; generation itself fans
    // out across (kernel, image) pairs.
    uint64_t t0 = prof::nowNs();
    exec::parallelFor(
        kernels.size() * standardImages().size(),
        [&](size_t i) {
            const MmKernel &k =
                mmKernelByName(kernels[i / standardImages().size()]);
            const NamedImage &ni =
                standardImages()[i % standardImages().size()];
            cachedMmKernelTrace(k, ni, bench::benchCrop);
        },
        jobs);
    double gen_s = secondsSince(t0);

    t0 = prof::nowNs();
    auto serial = runSweep(kernels, cfgs, 1);
    double serial_s = secondsSince(t0);

    t0 = prof::nowNs();
    auto parallel = runSweep(kernels, cfgs, jobs);
    double parallel_s = secondsSince(t0);

    bool det = identical(serial, parallel);
    double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
    double sweep_points =
        static_cast<double>(kernels.size() * cfgs.size());

    TextTable t({"metric", "value"});
    t.addRow({"sweep points",
              TextTable::count(kernels.size() * cfgs.size())});
    t.addRow({"trace generation (s)", TextTable::fixed(gen_s, 2)});
    t.addRow({"serial sweep (s)", TextTable::fixed(serial_s, 2)});
    t.addRow({"parallel sweep (s)", TextTable::fixed(parallel_s, 2)});
    t.addRow({"jobs", TextTable::count(jobs)});
    t.addRow({"hardware threads",
              TextTable::count(std::thread::hardware_concurrency())});
    t.addRow({"speedup", TextTable::fixed(speedup, 2)});
    t.addRow({"deterministic", det ? "yes" : "NO (BUG)"});
    t.print(std::cout);

    prof::BenchRecord gen = phaseRecord("sweep_trace_gen", jobs, gen_s);
    gen.extra["sweepPoints"] = sweep_points;

    prof::BenchRecord ser = phaseRecord("sweep_serial", 1, serial_s);
    ser.extra["sweepPoints"] = sweep_points;
    ser.extra["deterministic"] = det ? 1.0 : 0.0;

    prof::BenchRecord par = phaseRecord("sweep_parallel", jobs,
                                        parallel_s);
    par.extra["sweepPoints"] = sweep_points;
    par.extra["speedup"] = speedup;
    par.extra["deterministic"] = det ? 1.0 : 0.0;

    bench::writeBenchRecords(out_path, {gen, ser, par});

    return det ? 0 : 1;
}
