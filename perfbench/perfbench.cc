/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload report|geometry_sweep|cycle_sim --seed N
 *             --seconds S --trace 0|1 --root DIR
 *             [--spans FILE] [--self-test]
 *
 * Builds one workload's inputs (set-up), measures its timed phase for
 * S seconds, checks every output, and prints one JSON object as the
 * last line of stdout: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the run records spans around each call it makes into a layer and
 * the metrics are the per-layer ones. --self-test injects one wrong
 * expected value so the workload's check must report a failure.
 * perfbench/run.py builds this binary and is the intended entry point;
 * perfbench/README.md documents the workloads and metrics.
 */

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "check/golden.hh"
#include "check/measure.hh"
#include "check/report.hh"
#include "core/bank.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "img/entropy.hh"
#include "img/generate.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "prof/bench_record.hh"
#include "prof/prof.hh"
#include "sim/cpu.hh"
#include "sim/latency.hh"
#include "workloads/workload.hh"

using namespace memo;
using prof::nowNs;

namespace
{

double
secs(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
num(double v)
{
    char buf[64];
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

// ---------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selfTest = false;
    std::string root = ".";
    std::string spansPath;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = std::stoi(value()) != 0;
        } else if (a == "--root") {
            o.root = value();
        } else if (a == "--spans") {
            o.spansPath = value();
        } else if (a == "--self-test") {
            o.selfTest = true;
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

// ---------------------------------------------------------------------
// Counters read before and after each span

/** Trace-cache and thread-pool counters at one instant. */
struct Counters
{
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheGenerated = 0;
    uint64_t cacheEvictions = 0;
    uint64_t poolBusyNs = 0;
    uint64_t poolIdleNs = 0;

    static Counters
    read()
    {
        Counters c;
        const exec::TraceCache &tc = exec::TraceCache::instance();
        c.cacheHits = tc.hits();
        c.cacheMisses = tc.misses();
        c.cacheGenerated = tc.generated();
        c.cacheEvictions = tc.evictions();
        for (const auto &w : exec::ThreadPool::shared().workerStats()) {
            c.poolBusyNs += w.busyNs;
            c.poolIdleNs += w.idleNs;
        }
        return c;
    }

    void
    operator+=(const Counters &b)
    {
        cacheHits += b.cacheHits;
        cacheMisses += b.cacheMisses;
        cacheGenerated += b.cacheGenerated;
        cacheEvictions += b.cacheEvictions;
        poolBusyNs += b.poolBusyNs;
        poolIdleNs += b.poolIdleNs;
    }

    Counters
    operator-(const Counters &b) const
    {
        Counters d;
        d.cacheHits = cacheHits - b.cacheHits;
        d.cacheMisses = cacheMisses - b.cacheMisses;
        d.cacheGenerated = cacheGenerated - b.cacheGenerated;
        d.cacheEvictions = cacheEvictions - b.cacheEvictions;
        d.poolBusyNs = poolBusyNs - b.poolBusyNs;
        d.poolIdleNs = poolIdleNs - b.poolIdleNs;
        return d;
    }
};

// ---------------------------------------------------------------------
// Spans

/**
 * One timed call into a layer. Spans opened on the main thread nest
 * through a stack; spans measured inside pool workers are attached to
 * the span that issued the parallel call.
 */
struct Span
{
    std::string layer;
    std::string name;
    int parent = -1;
    uint64_t t0 = 0, t1 = 0;
    bool worker = false; //!< measured on a pool worker
    Counters delta; //!< counter change over the span (main-thread spans)
};

/** In-memory span recorder; inert when tracing is off. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** RAII span around a call made on the main thread. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string layer, std::string name) : t_(t)
        {
            if (!t_.on_)
                return;
            id_ = static_cast<int>(t_.spans_.size());
            Span s;
            s.layer = std::move(layer);
            s.name = std::move(name);
            s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
            before_ = Counters::read();
            s.t0 = nowNs();
            t_.spans_.push_back(std::move(s));
            t_.stack_.push_back(id_);
        }
        ~Scope()
        {
            if (id_ < 0)
                return;
            Span &s = t_.spans_[static_cast<size_t>(id_)];
            s.t1 = nowNs();
            s.delta = Counters::read() - before_;
            t_.stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** This span's index, for attaching worker spans. */
        int id() const { return id_; }

      private:
        Tracer &t_;
        int id_ = -1;
        Counters before_;
    };

    /** Attach a span measured on a worker thread under @p parent. */
    void
    addChild(int parent, std::string layer, std::string name,
             uint64_t t0, uint64_t t1)
    {
        if (!on_ || parent < 0)
            return;
        Span s;
        s.layer = std::move(layer);
        s.name = std::move(name);
        s.parent = parent;
        s.t0 = t0;
        s.t1 = t1;
        s.worker = true;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of the spans named @p name. */
    double
    totalSeconds(const std::string &name) const
    {
        uint64_t ns = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                ns += s.t1 - s.t0;
        return secs(ns);
    }

    /**
     * Self time per layer: each span's duration minus the part of its
     * interval its children cover (children measured in parallel on
     * pool workers are merged as a union of intervals), summed by
     * layer. Worker spans add thread-seconds.
     */
    std::map<std::string, double>
    selfSecondsByLayer() const
    {
        std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[static_cast<size_t>(s.parent)].push_back(
                    {s.t0, s.t1});
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); i++) {
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            uint64_t covered = 0, cur0 = 0, cur1 = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, spans_[i].t0);
                b = std::min(b, spans_[i].t1);
                if (b <= a)
                    continue;
                if (open && a <= cur1) {
                    cur1 = std::max(cur1, b);
                } else {
                    if (open)
                        covered += cur1 - cur0;
                    cur0 = a;
                    cur1 = b;
                    open = true;
                }
            }
            if (open)
                covered += cur1 - cur0;
            uint64_t dur = spans_[i].t1 - spans_[i].t0;
            out[spans_[i].layer] +=
                secs(dur > covered ? dur - covered : 0);
        }
        return out;
    }

    /**
     * Chrome-trace JSON of every span, written at the end. Main-thread
     * spans are on tid 0; worker spans are packed onto the fewest
     * lanes (tids 1..) on which they do not overlap.
     */
    std::string
    json() const
    {
        uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
        for (const Span &s : spans_)
            base = std::min(base, s.t0);
        std::vector<size_t> order;
        for (size_t i = 0; i < spans_.size(); i++)
            if (spans_[i].worker)
                order.push_back(i);
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return spans_[a].t0 < spans_[b].t0;
        });
        std::vector<size_t> tid(spans_.size(), 0);
        std::vector<uint64_t> lane_end;
        for (size_t i : order) {
            size_t l = 0;
            while (l < lane_end.size() && lane_end[l] > spans_[i].t0)
                l++;
            if (l == lane_end.size())
                lane_end.push_back(0);
            lane_end[l] = spans_[i].t1;
            tid[i] = l + 1;
        }
        std::ostringstream os;
        os << "{\"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
               << ", \"cat\": " << jsonString(s.layer)
               << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid[i]
               << ", \"ts\": " << num(static_cast<double>(s.t0 - base) / 1e3)
               << ", \"dur\": " << num(static_cast<double>(s.t1 - s.t0) / 1e3)
               << ", \"args\": {\"id\": " << i
               << ", \"parent\": " << s.parent
               << ", \"cacheHits\": " << s.delta.cacheHits
               << ", \"cacheMisses\": " << s.delta.cacheMisses
               << ", \"cacheEvictions\": " << s.delta.cacheEvictions
               << ", \"poolBusyNs\": " << s.delta.poolBusyNs
               << ", \"poolIdleNs\": " << s.delta.poolIdleNs << "}}";
        }
        os << "\n]}\n";
        return os.str();
    }

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Result assembly

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run measured and checked. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    void e2e(std::string n, double v, std::string u)
    {
        endToEnd.push_back({std::move(n), v, std::move(u)});
    }
    void layer(std::string n, double v, std::string u)
    {
        perLayer.push_back({std::move(n), v, std::move(u)});
    }
};

/** Deterministic generator for the seeded input parameters. */
class SeedRng
{
  public:
    /** Streams of different seeds do not overlap: the seed is mixed
     *  into the SplitMix64 state instead of offsetting it. */
    explicit SeedRng(uint64_t seed) : s_(mix(seed ^ 0x6a09e667f3bcc909ull)) {}

    uint64_t next() { return mix(s_ += 0x9e3779b97f4a7c15ull); }

    /** Uniform integer in [lo, hi]. */
    int
    range(int lo, int hi)
    {
        return lo + static_cast<int>(next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) *
                        0x1.0p-53;
    }

  private:
    static uint64_t
    mix(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t s_;
};

/** One seeded input image and the parameters that made it. */
struct SeededImage
{
    std::string family;
    std::string params;
    Image image;
};

/**
 * Image parameters drawn from the seed, one image per generator
 * family in @p families. Every image is at least @p min_dim on each
 * side, so the centre crop the traces use is always full size.
 */
std::vector<SeededImage>
seededImages(uint64_t seed, const std::vector<std::string> &families,
             int min_dim)
{
    SeedRng rng(seed);
    std::vector<SeededImage> out;
    for (const std::string &fam : families) {
        int w = rng.range(min_dim, min_dim + min_dim / 4);
        int h = rng.range(min_dim, min_dim + min_dim / 4);
        uint64_t s = rng.next() % 1000000;
        std::ostringstream p;
        p << w << "x" << h << " seed=" << s;
        SeededImage si;
        si.family = fam;
        if (fam == "natural") {
            double scale = rng.uniform(6.0, 40.0);
            int octaves = rng.range(2, 6);
            double persistence = rng.uniform(0.5, 0.7);
            int levels = rng.range(32, 256);
            p << " scale=" << scale << " octaves=" << octaves
              << " persistence=" << persistence << " levels=" << levels;
            si.image = genNatural(w, h, 1, s, scale, octaves,
                                  persistence, levels);
        } else if (fam == "labels") {
            int labels = rng.range(4, 24);
            p << " labels=" << labels;
            si.image = genLabels(w, h, labels, s);
        } else if (fam == "fractal") {
            int iter = rng.range(16, 48);
            p << " max_iter=" << iter;
            si.image = genFractal(w, h, iter, s);
        } else if (fam == "smoothfloat") {
            si.image = genSmoothFloat(w, h, s);
        } else if (fam == "starfield") {
            si.image = genStarfield(w, h, s);
        } else {
            throw std::logic_error("unknown image family " + fam);
        }
        si.params = p.str();
        out.push_back(std::move(si));
    }
    return out;
}

void
printImages(const std::vector<SeededImage> &imgs)
{
    for (const SeededImage &si : imgs) {
        double e = imageEntropy(si.image);
        std::cout << "#   image " << si.family << ": " << si.params
                  << " entropy="
                  << (std::isnan(e) ? std::string("n/a (float)")
                                    : num(e))
                  << "\n";
    }
}

/** Table counters of the three paper units of one replay. */
struct CellStats
{
    MemoStats s[3];
};

constexpr Operation kUnits[3] = {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv};

CellStats
statsOf(const MemoBank &bank)
{
    CellStats c;
    for (int u = 0; u < 3; u++)
        if (const MemoTable *t = bank.table(kUnits[u]))
            c.s[u] = t->stats();
    return c;
}

bool
sameStats(const MemoStats &a, const MemoStats &b)
{
    return a.lookups == b.lookups && a.hits == b.hits &&
           a.trivialHits == b.trivialHits && a.misses == b.misses &&
           a.insertions == b.insertions && a.evictions == b.evictions &&
           a.trivialBypassed == b.trivialBypassed &&
           a.parityMisses == b.parityMisses;
}

bool
sameCell(const CellStats &a, const CellStats &b)
{
    for (int u = 0; u < 3; u++)
        if (!sameStats(a.s[u], b.s[u]))
            return false;
    return true;
}

/** Useful outcomes and attempts per unit, pooled over many replays. */
struct HitPool
{
    uint64_t hits[3] = {};
    uint64_t lookups[3] = {};

    void
    add(const CellStats &c)
    {
        for (int u = 0; u < 3; u++) {
            hits[u] += c.s[u].allHits();
            lookups[u] += c.s[u].lookups;
        }
    }

    uint64_t
    accesses() const
    {
        return lookups[0] + lookups[1] + lookups[2];
    }
};

/**
 * Every per-layer figure of a traced run. A workload fills what it
 * measures; the rest stays 0 (the README's table says which layer
 * each workload exercises).
 */
struct LayerFigures
{
    double synthS = 0;     //!< img: seconds to synthesize the inputs
    double genS = 0;       //!< workloads: thread-seconds in generation calls
    double genCalls = 0;   //!< workloads: generator invocations
    double traceBytes = 0; //!< trace: Trace::memoryBytes of the timed
                           //!< generations' traces, summed
    double traceInst = 0;  //!< trace: Trace::size of the same, summed
    Counters cache;        //!< exec: trace-cache counter deltas
    double uniqueKeys = 0; //!< distinct trace keys the workload needs
    double residentMib = 0;
    Counters pool;         //!< exec: pool busy/idle over the traced work
    double accesses = 0;   //!< core: MEMO-TABLE lookups of one pass
    double probeNs = 0;    //!< core: thread-ns in timed replayMemo calls
    double probeAccesses = 0; //!< lookups those calls made
    HitPool hits;
    double cpuRuns = 0;    //!< sim: CpuModel::run calls of one pass
    double cpuInst = 0;    //!< sim: instructions those calls simulated
    double cpuNs = 0;      //!< sim: thread-ns in timed CpuModel::run calls
    double cpuNsInst = 0;  //!< instructions those timed calls simulated
    double cycleChecksum = 0;
    std::map<std::string, double> stages; //!< check: report stages
    double renderS = 0;    //!< obs: both report renders
    double tracedPassS = 0;
    double overheadS = 0;  //!< traced minus untraced pass seconds
};

/** Report stages, in the order the report builds them. */
const std::vector<std::string> kStages = {
    "sci_suites",   "mm_suite",    "entropy",       "tag_modes",
    "speedups",     "sweep_bands", "trivial_modes", "unattributed"};

void
emitLayers(Outcome &out, const LayerFigures &f, const Tracer &tr)
{
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    out.layer("img.synth_s", f.synthS, "s");
    out.layer("workloads.gen_s", f.genS, "s");
    out.layer("workloads.gen_calls", f.genCalls, "count");
    out.layer("workloads.gen_ns_per_inst", ratio(f.genS * 1e9, f.traceInst),
              "ns");
    out.layer("trace.bytes_per_inst", ratio(f.traceBytes, f.traceInst),
              "B");
    out.layer("exec.cache_hits", d(f.cache.cacheHits), "count");
    out.layer("exec.cache_misses", d(f.cache.cacheMisses), "count");
    out.layer("exec.cache_evictions", d(f.cache.cacheEvictions), "count");
    out.layer("exec.cache_hit_ratio",
              ratio(d(f.cache.cacheHits),
                    d(f.cache.cacheHits + f.cache.cacheMisses)),
              "ratio");
    out.layer("exec.gens_per_unique_key",
              ratio(d(f.cache.cacheGenerated), f.uniqueKeys), "ratio");
    out.layer("exec.cache_resident_mib", f.residentMib, "MiB");
    out.layer("exec.pool_busy_s", secs(f.pool.poolBusyNs), "s");
    out.layer("exec.pool_idle_s", secs(f.pool.poolIdleNs), "s");
    out.layer("exec.pool_utilization",
              ratio(d(f.pool.poolBusyNs),
                    d(f.pool.poolBusyNs + f.pool.poolIdleNs)),
              "ratio");
    out.layer("core.accesses", f.accesses, "count");
    out.layer("core.probe_ns_per_access", ratio(f.probeNs, f.probeAccesses),
              "ns");
    const char *units[3] = {"intmul", "fpmul", "fpdiv"};
    for (int u = 0; u < 3; u++)
        out.layer(std::string("core.hit_ratio.") + units[u],
                  ratio(d(f.hits.hits[u]), d(f.hits.lookups[u])), "ratio");
    out.layer("sim.cpu_runs", f.cpuRuns, "count");
    out.layer("sim.cpu_inst", f.cpuInst, "count");
    out.layer("sim.cpu_ns_per_inst", ratio(f.cpuNs, f.cpuNsInst), "ns");
    out.layer("sim.cycle_checksum", f.cycleChecksum, "count");
    for (const std::string &st : kStages) {
        auto it = f.stages.find(st);
        out.layer("check.stage." + st + "_s",
                  it == f.stages.end() ? 0.0 : it->second, "s");
    }
    out.layer("check.failed_ratio",
              ratio(d(out.failed), d(out.attempted)), "ratio");
    out.layer("obs.render_s", f.renderS, "s");
    out.layer("obs.traced_pass_s", f.tracedPassS, "s");
    out.layer("obs.trace_overhead_s", f.overheadS, "s");
    std::map<std::string, double> self = tr.selfSecondsByLayer();
    for (const char *l :
         {"img", "workloads", "exec", "core", "sim", "check", "obs"})
        out.layer(std::string(l) + ".self_s", self[l], "s");
}

/** One `#` line with a timing's samples: count, min, median, max. */
void
printSamples(const std::string &what, std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    std::cout << "#   " << what << ": n=" << xs.size();
    if (!xs.empty())
        std::cout << " min=" << num(xs.front())
                  << " median=" << num(prof::medianOf(xs))
                  << " max=" << num(xs.back());
    std::cout << "\n";
}

using Interval = std::pair<uint64_t, uint64_t>;

// ---------------------------------------------------------------------
// The two resident workloads: seeded images, traces held by the
// benchmark, a timed phase of repeated passes over them.

/** Inputs of a resident workload: images and one trace per (image, kernel). */
struct Resident
{
    std::vector<const MmKernel *> kernels;
    std::vector<SeededImage> images;
    std::vector<Trace> traces; //!< index = image * kernels + kernel
    double setupS = 0;         //!< median of the set-up repetitions
};

/**
 * Set-up of a resident workload, repeated three times with the median
 * reported: synthesize the seeded images, record every kernel over
 * every image with traceMmKernel, then run @p warmup once and discard
 * it (the first pass over a trace builds its lazy per-class operand
 * columns and runs about 2x slower). The warm-up's span is charged to
 * @p warmup_layer, the layer it exercises.
 */
void
residentSetup(const Options &opt, Tracer &tr,
              const std::vector<std::string> &families, int crop,
              Resident &in, LayerFigures &f, const char *warmup_layer,
              const std::function<void()> &warmup)
{
    std::vector<double> total, synth, gen;
    Tracer::Scope sp(tr, "bench", "setup");
    for (int rep = 0; rep < 3; rep++) {
        // Hand the previous repetition's traces back to the system, so
        // peak RSS reflects one set of inputs, not the allocator's
        // history across repetitions.
        in.traces.clear();
        malloc_trim(0);
        uint64_t t0 = nowNs();
        {
            Tracer::Scope s(tr, "img", "seededImages");
            in.images = seededImages(opt.seed, families, crop);
        }
        uint64_t t1 = nowNs();
        const size_t nk = in.kernels.size();
        std::vector<Interval> when(nk * in.images.size());
        {
            Tracer::Scope s(tr, "exec", "sweep:record");
            in.traces = exec::sweep(when.size(), [&](size_t i) {
                uint64_t g0 = nowNs();
                Trace t = traceMmKernel(*in.kernels[i % nk],
                                        in.images[i / nk].image, crop);
                when[i] = {g0, nowNs()};
                return t;
            });
            uint64_t ns = 0;
            for (const auto &[a, b] : when) {
                ns += b - a;
                tr.addChild(s.id(), "workloads", "traceMmKernel", a, b);
            }
            gen.push_back(secs(ns));
        }
        {
            Tracer::Scope s(tr, warmup_layer, "warmup");
            warmup();
        }
        synth.push_back(secs(t1 - t0));
        total.push_back(secs(nowNs() - t0));
    }
    in.setupS = prof::medianOf(total);
    f.synthS = prof::medianOf(synth);
    f.genS = prof::medianOf(gen);
    f.genCalls = static_cast<double>(in.traces.size());
    for (const Trace &t : in.traces) {
        f.traceInst += static_cast<double>(t.size());
        f.traceBytes += static_cast<double>(t.memoryBytes());
    }
}

/**
 * The timed phase: passes of @p pass until @p seconds have elapsed (at
 * least three). In a traced run passes alternate between untraced and
 * traced, so the tracing overhead is measured in the same process; a
 * traced pass gets the worker intervals to attach as spans.
 */
struct PassTimes
{
    std::vector<double> untraced;
    std::vector<double> traced;
};

PassTimes
runPasses(const Options &opt, Tracer &tr, LayerFigures &f,
          const std::function<void(std::vector<Interval> *)> &pass,
          const std::function<void(Tracer::Scope &,
                                   const std::vector<Interval> &)> &attach)
{
    PassTimes pt;
    std::vector<Interval> when;
    uint64_t start = nowNs();
    for (int i = 0;; i++) {
        bool traced = tr.on() && i % 2 == 1;
        if (!traced) {
            uint64_t t0 = nowNs();
            pass(nullptr);
            pt.untraced.push_back(secs(nowNs() - t0));
        } else {
            // The pool reads clocks for busy/idle time only while the
            // profiler is on: traced work only.
            prof::Profiler::global().setEnabled(true);
            Tracer::Scope s(tr, "exec", "sweep:pass");
            Counters c0 = Counters::read();
            uint64_t t0 = nowNs();
            pass(&when);
            pt.traced.push_back(secs(nowNs() - t0));
            f.pool += Counters::read() - c0;
            attach(s, when);
            prof::Profiler::global().setEnabled(false);
        }
        const size_t need = 3;
        if (pt.untraced.size() >= need &&
            (!tr.on() || pt.traced.size() >= need) &&
            secs(nowNs() - start) >= opt.seconds)
            break;
    }
    f.tracedPassS = prof::medianOf(pt.traced);
    f.overheadS = tr.on() ? f.tracedPassS - prof::medianOf(pt.untraced) : 0.0;
    return pt;
}

/** The end-to-end metrics of a resident workload. */
void
residentEndToEnd(Outcome &out, const Resident &in, const PassTimes &pt,
                 double pass_accesses, double pass_inst)
{
    printSamples("untraced pass seconds", pt.untraced);
    const double pass_s = prof::medianOf(pt.untraced);
    out.e2e("setup_s", in.setupS, "s");
    out.e2e("pass_s", pass_s, "s");
    out.e2e("accesses_per_s", pass_accesses / pass_s, "1/s");
    out.e2e("inst_per_s", pass_inst / pass_s, "1/s");
}

// ---------------------------------------------------------------------
// geometry_sweep

/** The Figure 3 sizes and Figure 4 ways, each in both tag modes. */
std::vector<MemoConfig>
geometryConfigs()
{
    std::vector<MemoConfig> cfgs;
    auto add = [&](unsigned entries, unsigned ways) {
        for (TagMode tm : {TagMode::FullValue, TagMode::MantissaOnly}) {
            for (const MemoConfig &o : cfgs)
                if (o.entries == entries && o.ways == ways &&
                    o.tagMode == tm)
                    return;
            MemoConfig c;
            c.entries = entries;
            c.ways = ways;
            c.tagMode = tm;
            cfgs.push_back(c);
        }
    };
    for (unsigned e : check::fig3Sizes())
        add(e, 4);
    for (unsigned w : check::fig4Ways())
        add(32, w);
    return cfgs;
}

Outcome
runGeometrySweep(const Options &opt, Tracer &tr)
{
    const std::vector<std::string> families = {
        "natural", "labels", "fractal", "smoothfloat", "starfield"};
    const int crop = check::goldenCrop;
    const std::vector<MemoConfig> cfgs = geometryConfigs();
    Resident in;
    for (const std::string &n : sweepKernelNames())
        in.kernels.push_back(&mmKernelByName(n));
    LayerFigures f;
    const Counters run0 = Counters::read();

    // Cell i = (trace i / configs, config i % configs), fresh bank.
    auto cells = [&] { return in.traces.size() * cfgs.size(); };
    auto replayCell = [&](size_t i, Interval *when) {
        MemoBank bank = MemoBank::standard(cfgs[i % cfgs.size()]);
        uint64_t t0 = when ? nowNs() : 0;
        replayMemo(in.traces[i / cfgs.size()], bank);
        if (when)
            *when = {t0, nowNs()};
        return statsOf(bank);
    };

    residentSetup(opt, tr, families, crop, in, f, "core", [&] {
        exec::sweep(cells(), [&](size_t i) { return replayCell(i, nullptr); });
    });

    std::vector<std::vector<CellStats>> passes;
    PassTimes pt = runPasses(
        opt, tr, f,
        [&](std::vector<Interval> *when) {
            if (when)
                when->resize(cells());
            passes.push_back(exec::sweep(cells(), [&](size_t i) {
                return replayCell(i, when ? &(*when)[i] : nullptr);
            }));
        },
        [&](Tracer::Scope &s, const std::vector<Interval> &when) {
            for (const auto &[a, b] : when) {
                f.probeNs += static_cast<double>(b - a);
                tr.addChild(s.id(), "core", "replayMemo", a, b);
            }
        });

    // Checks, outside the timed phase: every cell of every pass equals
    // the scalar reference replay (replayMemoReference) of the same
    // trace and config.
    std::vector<CellStats> ref;
    {
        Tracer::Scope s(tr, "core", "replayMemoReference");
        ref = exec::sweep(cells(), [&](size_t i) {
            MemoBank bank = MemoBank::standard(cfgs[i % cfgs.size()]);
            replayMemoReference(in.traces[i / cfgs.size()], bank);
            return statsOf(bank);
        });
    }
    if (opt.selfTest)
        ref[ref.size() / 2].s[1].hits += 1;
    Outcome out;
    for (const auto &pass : passes) {
        for (size_t i = 0; i < cells(); i++) {
            out.attempted++;
            out.failed += !sameCell(pass[i], ref[i]);
        }
    }
    for (const CellStats &c : passes.front())
        f.hits.add(c);
    f.accesses = static_cast<double>(f.hits.accesses());
    f.probeAccesses = f.accesses * static_cast<double>(pt.traced.size());
    f.cache = Counters::read() - run0;
    const double pass_inst = f.traceInst * static_cast<double>(cfgs.size());

    std::cout << "# geometry_sweep: " << in.traces.size() << " traces ("
              << in.kernels.size() << " kernels x " << in.images.size()
              << " images, crop " << crop << "), " << cfgs.size()
              << " configs, " << pt.untraced.size() + pt.traced.size()
              << " passes\n";
    printImages(in.images);
    std::cout << "#   simulated counts (exact): accesses/pass="
              << num(f.accesses) << " trace_inst=" << num(f.traceInst)
              << "\n";
    residentEndToEnd(out, in, pt, f.accesses, pass_inst);
    if (tr.on())
        emitLayers(out, f, tr);
    return out;
}

// ---------------------------------------------------------------------
// cycle_sim

/** One (trace, latency scenario) result of a cycle_sim pass. */
struct SimCell
{
    uint64_t baseCycles = 0;
    uint64_t memoCycles = 0;
    uint64_t memoSaved = 0;
    CellStats memo; //!< table stats of the memoized run
};

/** Fp mul and fp div memoized with the paper's 32-entry 4-way table. */
MemoBank
speedupBank()
{
    MemoBank bank;
    bank.addTable(Operation::FpMul, MemoConfig{});
    bank.addTable(Operation::FpDiv, MemoConfig{});
    return bank;
}

Outcome
runCycleSim(const Options &opt, Tracer &tr)
{
    const std::vector<std::string> families = {"natural", "labels",
                                               "fractal", "smoothfloat"};
    // Tables 11-13: fast (3/13) and slow (5/39) fp mul/div latencies.
    const CpuPreset scenarios[2] = {CpuPreset::FastFpu, CpuPreset::SlowFpu};
    const int crop = check::goldenCrop;
    Resident in;
    for (const std::string &n : check::speedupApps())
        in.kernels.push_back(&mmKernelByName(n));
    LayerFigures f;
    const Counters run0 = Counters::read();

    // Baseline and memoized run of trace @p i under both scenarios;
    // @p when, if given, receives the four runs' intervals.
    auto simTrace = [&](size_t i, Interval *when) {
        std::vector<SimCell> cells(2);
        for (size_t sc = 0; sc < 2; sc++) {
            CpuConfig cfg;
            cfg.lat = LatencyConfig::preset(scenarios[sc]);
            CpuModel cpu(cfg);
            uint64_t t0 = when ? nowNs() : 0;
            SimResult base = cpu.run(in.traces[i]);
            uint64_t t1 = when ? nowNs() : 0;
            MemoBank bank = speedupBank();
            SimResult memo = cpu.run(in.traces[i], &bank);
            if (when) {
                when[2 * sc] = {t0, t1};
                when[2 * sc + 1] = {t1, nowNs()};
            }
            cells[sc] = {base.totalCycles, memo.totalCycles,
                         memo.totalMemoSaved(), statsOf(bank)};
        }
        return cells;
    };
    // The probe alone: replayMemo through the same tables.
    auto replayTrace = [&](size_t i) {
        MemoBank bank = speedupBank();
        replayMemo(in.traces[i], bank);
        return statsOf(bank);
    };

    residentSetup(opt, tr, families, crop, in, f, "sim", [&] {
        exec::sweep(in.traces.size(),
                    [&](size_t i) { return simTrace(i, nullptr); });
        exec::sweep(in.traces.size(), replayTrace);
    });

    std::vector<std::vector<std::vector<SimCell>>> passes;
    PassTimes pt = runPasses(
        opt, tr, f,
        [&](std::vector<Interval> *when) {
            if (when)
                when->resize(4 * in.traces.size());
            passes.push_back(exec::sweep(in.traces.size(), [&](size_t i) {
                return simTrace(i, when ? &(*when)[4 * i] : nullptr);
            }));
        },
        [&](Tracer::Scope &s, const std::vector<Interval> &when) {
            for (const auto &[a, b] : when) {
                f.cpuNs += static_cast<double>(b - a);
                tr.addChild(s.id(), "sim", "CpuModel::run", a, b);
            }
        });

    // Checks, outside the timed phase. Per (trace, scenario): baseline
    // cycles equal memoized cycles plus the cycles memoization saved;
    // the memoized run's table stats equal replayMemo over the same
    // trace and tables; every pass repeats the first exactly.
    std::vector<CellStats> ref;
    {
        Tracer::Scope s(tr, "exec", "sweep:replayMemo");
        std::vector<Interval> when(in.traces.size());
        ref = exec::sweep(in.traces.size(), [&](size_t i) {
            uint64_t t0 = nowNs();
            CellStats c = replayTrace(i);
            when[i] = {t0, nowNs()};
            return c;
        });
        for (const auto &[a, b] : when) {
            f.probeNs += static_cast<double>(b - a);
            tr.addChild(s.id(), "core", "replayMemo", a, b);
        }
    }
    if (opt.selfTest)
        ref[ref.size() / 2].s[2].hits += 1;
    Outcome out;
    for (const auto &pass : passes) {
        for (size_t i = 0; i < in.traces.size(); i++) {
            for (size_t sc = 0; sc < 2; sc++) {
                const SimCell &c = pass[i][sc];
                const SimCell &first = passes.front()[i][sc];
                out.attempted++;
                out.failed += c.baseCycles != c.memoCycles + c.memoSaved ||
                              !sameCell(c.memo, ref[i]) ||
                              c.baseCycles != first.baseCycles ||
                              c.memoCycles != first.memoCycles;
            }
        }
    }
    uint64_t checksum = 0;
    HitPool ref_hits;
    for (size_t i = 0; i < in.traces.size(); i++) {
        ref_hits.add(ref[i]);
        for (const SimCell &c : passes.front()[i]) {
            f.hits.add(c.memo);
            checksum += c.baseCycles + c.memoCycles;
        }
    }
    f.accesses = static_cast<double>(f.hits.accesses());
    f.probeAccesses = static_cast<double>(ref_hits.accesses());
    f.cpuRuns = 4.0 * static_cast<double>(in.traces.size());
    f.cpuInst = 4.0 * f.traceInst;
    f.cpuNsInst = f.cpuInst * static_cast<double>(pt.traced.size());
    f.cycleChecksum = static_cast<double>(checksum);
    f.cache = Counters::read() - run0;

    std::cout << "# cycle_sim: " << in.traces.size() << " traces ("
              << in.kernels.size() << " apps x " << in.images.size()
              << " images, crop " << crop
              << "), fast and slow FPU x {no memo, fp mul+div 32/4}, "
              << pt.untraced.size() + pt.traced.size() << " passes\n";
    printImages(in.images);
    std::cout << "#   simulated counts (exact): sim_inst/pass="
              << num(f.cpuInst)
              << " accesses/pass=" << num(f.accesses)
              << " cycle_checksum=" << checksum << "\n";
    residentEndToEnd(out, in, pt, f.accesses, f.cpuInst);
    if (tr.on())
        emitLayers(out, f, tr);
    return out;
}

// ---------------------------------------------------------------------
// report

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

/**
 * Seconds to synthesize the standard image set in a fresh child
 * process (the set is a process-wide static, so each sample needs a
 * process of its own). Called before this process starts any thread.
 */
double
standardImagesInChild()
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        uint64_t t0 = nowNs();
        double s = standardImages().empty() ? 0.0 : secs(nowNs() - t0);
        ssize_t w = write(fds[1], &s, sizeof s);
        _exit(w == static_cast<ssize_t>(sizeof s) ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    ssize_t r = read(fds[0], &s, sizeof s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (r != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("image set-up child failed");
    return s;
}

/** Table lookups of a report build, summed over every memoized op. */
uint64_t
tableLookups(const obs::Snapshot &snap)
{
    const std::string pre = "core.table.", suf = ".lookups";
    uint64_t sum = 0;
    for (const auto &[name, v] : snap.counters)
        if (name.size() > pre.size() + suf.size() &&
            name.compare(0, pre.size(), pre) == 0 &&
            name.compare(name.size() - suf.size(), suf.size(), suf) == 0)
            sum += v;
    return sum;
}

/** Trace instructions a report build replayed or simulated. */
uint64_t
reportInst(const obs::Snapshot &snap)
{
    return snap.counter("analysis.replay.instructions") +
           snap.counter("sim.cpu.instructions");
}

/** Run the public check::measure* entry points one stage at a time. */
void
runStages(Tracer &tr, LayerFigures &f)
{
    auto stage = [&](const std::string &name,
                     const std::function<void()> &fn) {
        uint64_t t0 = nowNs();
        {
            Tracer::Scope s(tr, "check", "stage." + name);
            fn();
        }
        f.stages[name] += secs(nowNs() - t0);
    };
    stage("sci_suites", [] {
        check::measureSciSuite(perfectWorkloads());
        check::measureSciSuite(specWorkloads());
    });
    stage("mm_suite", [] { check::measureMmSuite(); });
    stage("entropy", [] { check::measureEntropy(); });
    stage("tag_modes", [] { check::measureTagModes(); });
    stage("speedups", [] {
        check::measureSpeedups(check::SpeedupUnit::FpDiv);
        check::measureSpeedups(check::SpeedupUnit::FpMul);
        check::measureSpeedups(check::SpeedupUnit::Both);
    });
    stage("sweep_bands", [] {
        std::vector<MemoConfig> sizes, ways;
        for (unsigned e : check::fig3Sizes()) {
            MemoConfig c;
            c.entries = e;
            sizes.push_back(c);
        }
        for (unsigned w : check::fig4Ways()) {
            MemoConfig c;
            c.ways = w;
            ways.push_back(c);
        }
        check::measureSweepBands(sizes);
        check::measureSweepBands(ways);
    });
    stage("trivial_modes", [] {
        exec::sweep(check::table9Apps(), [](const std::string &name) {
            const MmKernel &k = mmKernelByName(name);
            check::measureTrivialModes(k, Operation::IntMul);
            check::measureTrivialModes(k, Operation::FpMul);
            return check::measureTrivialModes(k, Operation::FpDiv);
        });
    });
}

/**
 * Unit costs on the report's own trace mix: every unique trace key
 * generated once, replayed through a 32/4 bank (timed on the second,
 * warm replay) and run once through the CPU model. Inside the build
 * the cache generates traces where the benchmark cannot time them;
 * these costs times the build's exact counts locate that time.
 */
void
calibrate(Tracer &tr, LayerFigures &f)
{
    struct Key
    {
        const MmKernel *kernel = nullptr;
        const NamedImage *image = nullptr;
        const SciWorkload *sci = nullptr;
    };
    std::vector<Key> keys;
    for (const MmKernel &k : mmKernels())
        for (const NamedImage &ni : standardImages())
            keys.push_back({&k, &ni, nullptr});
    for (const auto *suite : {&perfectWorkloads(), &specWorkloads()})
        for (const SciWorkload &w : *suite)
            keys.push_back({nullptr, nullptr, &w});
    f.uniqueKeys = static_cast<double>(keys.size());

    struct Cost
    {
        uint64_t inst = 0, bytes = 0, accesses = 0;
        Interval gen, replay, cpu;
    };
    Tracer::Scope s(tr, "exec", "sweep:calibrate");
    std::vector<Cost> costs = exec::sweep(keys.size(), [&](size_t i) {
        Cost c;
        uint64_t t0 = nowNs();
        Trace t = keys[i].sci ? traceSciWorkload(*keys[i].sci)
                              : traceMmKernel(*keys[i].kernel,
                                              keys[i].image->image,
                                              check::goldenCrop);
        c.gen = {t0, nowNs()};
        MemoBank cold = MemoBank::standard(MemoConfig{});
        replayMemo(t, cold);
        MemoBank bank = MemoBank::standard(MemoConfig{});
        t0 = nowNs();
        replayMemo(t, bank);
        c.replay = {t0, nowNs()};
        t0 = nowNs();
        CpuModel().run(t);
        c.cpu = {t0, nowNs()};
        c.inst = t.size();
        c.bytes = t.memoryBytes();
        HitPool p;
        p.add(statsOf(bank));
        c.accesses = p.accesses();
        return c;
    });
    for (const Cost &c : costs) {
        tr.addChild(s.id(), "workloads", "generate", c.gen.first,
                    c.gen.second);
        tr.addChild(s.id(), "core", "replayMemo", c.replay.first,
                    c.replay.second);
        tr.addChild(s.id(), "sim", "CpuModel::run", c.cpu.first,
                    c.cpu.second);
        auto d = [](const Interval &iv) {
            return static_cast<double>(iv.second - iv.first);
        };
        f.genS += d(c.gen) * 1e-9;
        f.traceInst += static_cast<double>(c.inst);
        f.traceBytes += static_cast<double>(c.bytes);
        f.probeNs += d(c.replay);
        f.probeAccesses += static_cast<double>(c.accesses);
        f.cpuNs += d(c.cpu);
        f.cpuNsInst += static_cast<double>(c.inst);
    }
}

Outcome
runReport(const Options &opt, Tracer &tr)
{
    std::string want_md = readFile(opt.root + "/EXPERIMENTS.md");
    std::string want_html = readFile(opt.root + "/docs/REPORT.html");
    if (opt.selfTest)
        want_md[want_md.size() / 2] ^= 0x20;

    // Set-up: the paper's standard image set, synthesized in fresh
    // processes and then in this one. The inputs are fixed: the seed
    // does not change them.
    LayerFigures f;
    std::vector<double> setup;
    for (int i = 0; i < 4; i++)
        setup.push_back(standardImagesInChild());
    {
        Tracer::Scope s(tr, "img", "standardImages");
        uint64_t t0 = nowNs();
        (void)standardImages();
        setup.push_back(secs(nowNs() - t0));
    }
    f.synthS = prof::medianOf(setup);

    // One cold-cache build plus both renders, checked against the
    // committed artifacts; returns its wall seconds. Freed memory is
    // handed back first, so every build starts from the same footprint.
    Outcome out;
    obs::Snapshot snap;
    auto buildOnce = [&](Tracer &t) {
        exec::TraceCache::instance().clear();
        malloc_trim(0);
        uint64_t t0 = nowNs();
        obs::Report rep;
        {
            Tracer::Scope s(t, "check", "buildExperimentsReport");
            rep = check::buildExperimentsReport();
        }
        std::string md, html;
        {
            Tracer::Scope s(t, "obs", "render");
            md = obs::renderMarkdown(rep);
            html = obs::renderHtml(rep);
        }
        double dt = secs(nowNs() - t0);
        snap = obs::StatsRegistry::global().snapshot();
        out.attempted += 2;
        out.failed += (md != want_md) + (html != want_html);
        return dt;
    };
    auto describe = [&](size_t builds) {
        std::cout << "# report: " << builds
                  << " cold-cache build(s) of EXPERIMENTS.md + REPORT.html "
                     "(fixed paper inputs; the seed does not change them), "
                  << exec::TraceCache::instance().budgetBytes() / (1u << 20)
                  << " MiB trace-cache budget\n"
                  << "#   simulated counts (exact): table_accesses="
                  << tableLookups(snap)
                  << " replayed+simulated_inst=" << reportInst(snap)
                  << " cpu_cycles=" << snap.counter("sim.cpu.cycles")
                  << "\n";
    };

    const uint64_t start = nowNs();
    if (!tr.on()) {
        // End-to-end: untraced builds until the run time is used, at
        // least one.
        std::vector<double> builds;
        do {
            builds.push_back(buildOnce(tr));
        } while (secs(nowNs() - start) < opt.seconds);
        const double pass_s = prof::medianOf(builds);
        describe(builds.size());
        printSamples("build+render seconds", builds);
        out.e2e("setup_s", prof::medianOf(setup), "s");
        out.e2e("pass_s", pass_s, "s");
        out.e2e("accesses_per_s",
                static_cast<double>(tableLookups(snap)) / pass_s, "1/s");
        out.e2e("inst_per_s", static_cast<double>(reportInst(snap)) / pass_s,
                "1/s");
        return out;
    }

    // Traced build: the same call with spans and the pool's busy/idle
    // accounting (which reads clocks only while the profiler is on).
    prof::Profiler::global().setEnabled(true);
    size_t build_span;
    {
        Tracer::Scope s(tr, "bench", "report");
        build_span = static_cast<size_t>(s.id());
        f.tracedPassS = buildOnce(tr);
    }
    f.cache = f.pool = tr.spans()[build_span].delta;
    f.genCalls = static_cast<double>(f.cache.cacheGenerated);
    describe(1);
    f.residentMib =
        static_cast<double>(exec::TraceCache::instance().residentBytes()) /
        (1u << 20);
    f.accesses = static_cast<double>(tableLookups(snap));
    for (int u = 0; u < 3; u++) {
        std::string pre =
            "core.table." + std::string(operationName(kUnits[u])) + ".";
        f.hits.hits[u] =
            snap.counter(pre + "hits") + snap.counter(pre + "trivialHits");
        f.hits.lookups[u] = snap.counter(pre + "lookups");
    }
    f.cpuRuns = static_cast<double>(snap.counter("sim.cpu.runs"));
    f.cpuInst = static_cast<double>(snap.counter("sim.cpu.instructions"));
    f.cycleChecksum = static_cast<double>(snap.counter("sim.cpu.cycles"));
    f.renderS = tr.totalSeconds("render");

    // Stage by stage from a cold cache. The phase chapter and the
    // section assembly have no public entry point; their time is the
    // unattributed remainder of the traced build.
    exec::TraceCache::instance().clear();
    malloc_trim(0);
    runStages(tr, f);
    double staged = 0.0;
    for (const auto &[name, v] : f.stages)
        staged += v;
    f.stages["unattributed"] =
        tr.totalSeconds("buildExperimentsReport") - staged;
    exec::TraceCache::instance().clear();
    calibrate(tr, f);
    prof::Profiler::global().setEnabled(false);

    // Untraced baseline build for the tracing overhead. One build takes
    // about half a minute; it is skipped (overhead reported as 0) when
    // the traced part already ran long, so the run stays within three
    // minutes on a slow host.
    if (secs(nowNs() - start) < 100.0) {
        Tracer quiet(false);
        f.overheadS = f.tracedPassS - buildOnce(quiet);
    } else {
        std::cout << "# trace overhead not measured: no time left for an "
                     "untraced baseline build\n";
    }
    emitLayers(out, f, tr);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    Tracer tr(opt.trace);

    Outcome out;
    try {
        if (opt.workload == "report")
            out = runReport(opt, tr);
        else if (opt.workload == "geometry_sweep")
            out = runGeometrySweep(opt, tr);
        else if (opt.workload == "cycle_sim")
            out = runCycleSim(opt, tr);
        else
            throw std::invalid_argument("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    out.e2e("peak_rss_mib",
            static_cast<double>(prof::peakRssBytes()) / (1u << 20), "MiB");
    if (tr.on() && !opt.spansPath.empty()) {
        std::ofstream file(opt.spansPath);
        file << tr.json();
        if (!file)
            std::cerr << "perfbench: cannot write " << opt.spansPath << "\n";
    }

    std::cout << "# seed " << opt.seed << ", workload " << opt.workload
              << ", jobs " << exec::ThreadPool::defaultJobs()
              << (opt.selfTest ? ", SELF-TEST (one expected value is wrong)"
                               : "")
              << "\n# failed_ratio "
              << num(ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted)))
              << " (" << out.failed << " of " << out.attempted
              << " items)\n";
    for (const Metric &m : out.endToEnd)
        std::cout << "# host: " << m.name << " = " << num(m.value) << " "
                  << m.unit << "\n";
    const std::vector<Metric> &shown = opt.trace ? out.perLayer : out.endToEnd;
    bool correct = out.failed == 0 && out.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < shown.size(); i++)
        std::cout << (i ? ", " : "") << jsonString(shown[i].name)
                  << ": {\"value\": " << num(shown[i].value)
                  << ", \"unit\": " << jsonString(shown[i].unit) << "}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
