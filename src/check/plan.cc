#include "plan.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "exec/parallel.hh"
#include "img/entropy.hh"
#include "img/generate.hh"

namespace memo::check
{

namespace
{

std::atomic<uint64_t> plan_runs{0};
std::atomic<uint64_t> plan_items{0};
std::atomic<uint64_t> plan_generated{0};
std::atomic<uint64_t> plan_keys{0};

constexpr size_t npos = SIZE_MAX;

/** Table 9's trivial-operation policies, in its column order. */
constexpr TrivialMode kTrivialModes[3] = {TrivialMode::CacheAll,
                                          TrivialMode::NonTrivialOnly,
                                          TrivialMode::Integrated};

/** Tables 7, 8 and 10 leave vsqrt out (it has no paper row there). */
bool
inMmSuite(const MmKernel &k)
{
    return k.name != "vsqrt";
}

bool
contains(const std::vector<std::string> &names, const std::string &n)
{
    return std::find(names.begin(), names.end(), n) != names.end();
}

bool
contains(const std::vector<SciWorkload> &suite, const std::string &n)
{
    for (const SciWorkload &w : suite)
        if (w.name == n)
            return true;
    return false;
}

/** Index of MM kernel @p name in mmKernels(); throws if unknown. */
size_t
kernelIndex(const std::string &name)
{
    return static_cast<size_t>(&mmKernelByName(name) - mmKernels().data());
}

/**
 * The consumers of one trace key: the bank configurations replayed on
 * it, each consumer's first slot in that list, and whether the
 * closed-form speedup cycles run on it.
 */
struct Layout
{
    std::vector<MemoConfig> cfgs;
    size_t suite = npos;   //!< Tables 5/6: 32/4, infinite
    size_t mm = npos;      //!< Table 7: 32/4, infinite
    size_t tags = npos;    //!< Table 10: full, mantissa-only
    size_t entropy = npos; //!< Table 8: 32/4 (entropy images only)
    size_t trivial = npos; //!< Table 9: op-major, three modes each
    size_t sweep = npos;   //!< Figures 3/4: every sweep's configs
    bool speedup = false;  //!< Tables 11-13

    size_t
    add(const std::vector<MemoConfig> &more)
    {
        size_t at = cfgs.size();
        cfgs.insert(cfgs.end(), more.begin(), more.end());
        return at;
    }

    bool empty() const { return cfgs.empty() && !speedup; }
};

MemoConfig
infiniteConfig()
{
    MemoConfig c;
    c.infinite = true;
    return c;
}

MemoConfig
mantissaConfig()
{
    MemoConfig c;
    c.tagMode = TagMode::MantissaOnly;
    return c;
}

Layout
sciLayout(const PlanRequest &req, const SciWorkload &w)
{
    Layout l;
    for (const auto *suite : req.sciSuites)
        if (contains(*suite, w.name) && l.suite == npos)
            l.suite = l.add({MemoConfig{}, infiniteConfig()});
    if (req.tagModes && contains(perfectWorkloads(), w.name))
        l.tags = l.add({MemoConfig{}, mantissaConfig()});
    return l;
}

Layout
mmLayout(const PlanRequest &req, const MmKernel &k)
{
    Layout l;
    if (req.mmSuite && inMmSuite(k))
        l.mm = l.add({MemoConfig{}, infiniteConfig()});
    if (req.tagModes && inMmSuite(k))
        l.tags = l.add({MemoConfig{}, mantissaConfig()});
    if (req.entropy && inMmSuite(k))
        l.entropy = l.add({MemoConfig{}});
    if (contains(req.trivialApps, k.name)) {
        std::vector<MemoConfig> modes;
        for (size_t o = 0; o < req.trivialOps.size(); o++) {
            for (TrivialMode m : kTrivialModes) {
                MemoConfig c;
                c.trivialMode = m;
                modes.push_back(c);
            }
        }
        l.trivial = l.add(modes);
    }
    if (!req.sweeps.empty() && contains(sweepKernelNames(), k.name)) {
        l.sweep = l.cfgs.size();
        for (const auto &cfgs : req.sweeps)
            l.add(cfgs);
    }
    l.speedup = !req.speedupUnits.empty() &&
                contains(req.speedupApps, k.name);
    return l;
}

/** One replay's statistics for the three paper units. */
struct UnitStats
{
    MemoStats intMul, fpMul, fpDiv;

    const MemoStats &
    of(Operation op) const
    {
        return op == Operation::IntMul  ? intMul
               : op == Operation::FpMul ? fpMul
                                        : fpDiv;
    }

    void
    merge(const UnitStats &o)
    {
        intMul.merge(o.intMul);
        fpMul.merge(o.fpMul);
        fpDiv.merge(o.fpDiv);
    }
};

double
ratioOf(const MemoStats &s)
{
    return s.lookups ? s.hitRatio() : -1.0;
}

UnitHits
hitsOf(const UnitStats &s)
{
    return {ratioOf(s.intMul), ratioOf(s.fpMul), ratioOf(s.fpDiv)};
}

/** What the consumers of one trace key measured. */
struct KeyRecord
{
    std::vector<UnitStats> replays; //!< index-aligned with Layout::cfgs
    SpeedupCycles speedup;
};

/**
 * Run every consumer of @p l on @p trace: one fresh standard bank per
 * configuration (inputs are independent, so a fresh bank is exactly a
 * flushed one) plus the closed-form speedup cycles.
 */
KeyRecord
consume(const Trace &trace, const Layout &l, bool entropy_image,
        const std::vector<SpeedupUnit> &units)
{
    KeyRecord r;
    r.replays.resize(l.cfgs.size());
    for (size_t c = 0; c < l.cfgs.size(); c++) {
        if (c == l.entropy && !entropy_image)
            continue; // Table 8 has no row for FLOAT inputs
        MemoBank bank = MemoBank::standard(l.cfgs[c]);
        replayMemo(trace, bank);
        r.replays[c] = {bank.table(Operation::IntMul)->stats(),
                        bank.table(Operation::FpMul)->stats(),
                        bank.table(Operation::FpDiv)->stats()};
    }
    if (l.speedup)
        r.speedup = speedupCycles(trace, units);
    return r;
}

/**
 * One MM application's phase behaviour over @p combined (its first
 * kPhaseImages standard inputs concatenated into one stream): the
 * batched replay with a PhaseScope attached — once at the default
 * 32/4 config (per-set occupancy on) and once with mantissa-only tags
 * (Table 10's variant) — plus the fp div windowed reuse profile of
 * the same stream for cross-layer alignment.
 */
PhaseCell
measurePhases(const Trace &combined)
{
    PhaseCell cell;
    MemoConfig cfg; // the 32-entry 4-way default of Tables 9/10
    {
        MemoBank bank = MemoBank::standard(cfg);
        obs::PhaseScope scope(bank, kPhaseWindow, /*per_set=*/true);
        replayMemo(combined, bank);
        scope.finalize();
        cell.full = scope.profiles();
        for (const obs::PhaseProfile &p : cell.full) {
            MemoStats windows;
            uint64_t len = 0;
            for (const PhaseWindow &w : p.rows) {
                windows.merge(w.stats);
                len += w.length;
            }
            const MemoStats &fin = bank.table(p.op)->stats();
            if (windows != fin ||
                len != fin.lookups + fin.trivialBypassed)
                cell.partitionOk = false;
        }
    }
    {
        MemoBank bank = MemoBank::standard(mantissaConfig());
        obs::PhaseScope scope(bank, kPhaseWindow);
        replayMemo(combined, bank);
        scope.finalize();
        cell.mant = scope.profiles();
    }
    cell.reuse =
        windowedReuse(combined, Operation::FpDiv, kPhaseWindow);
    for (const obs::PhaseProfile &p : cell.full) {
        if (p.op != Operation::FpDiv)
            continue;
        if (cell.reuse.size() != p.rows.size()) {
            cell.reuseAligned = false;
            continue;
        }
        for (size_t i = 0; i < cell.reuse.size(); i++) {
            const PhaseWindow &w = p.rows[i];
            if (cell.reuse[i].accesses !=
                    w.stats.lookups + w.stats.trivialBypassed ||
                cell.reuse[i].trivial != w.stats.trivialBypassed)
                cell.reuseAligned = false;
        }
    }
    return cell;
}

/**
 * One work item: a scientific trace, one (kernel, image) trace, or a
 * phase item — an app's first kPhaseImages images, which the phase
 * chapter replays as one concatenated stream.
 */
struct Item
{
    size_t sci = npos; //!< index into the plan's sci keys
    size_t kernel = 0; //!< index into mmKernels() (sci == npos)
    size_t image = 0;  //!< first standard image
    size_t images = 1; //!< consecutive images covered
    bool phase = false;
};

/** What one work item returns: one KeyRecord per trace it covered. */
struct ItemRecord
{
    std::vector<KeyRecord> keys;
    PhaseCell phase;
};

/** Per-image entropy of the standard set (Table 8's x axis). */
struct ImageEntropy
{
    bool valid = false; //!< false for FLOAT inputs (entropy undefined)
    double full = 0.0;
    double win = 0.0;
};

/** Per-unit averages of rows' hit ratios (absent units skipped). */
template <typename Row>
void
averageRows(const std::vector<Row> &rows, UnitHits &avg32,
            UnitHits &avg_inf)
{
    auto avg = [&](double UnitHits::*unit, UnitHits Row::*col) {
        double sum = 0.0;
        int n = 0;
        for (const Row &row : rows) {
            double h = row.*col.*unit;
            if (h >= 0) {
                sum += h;
                n++;
            }
        }
        return n ? sum / n : -1.0;
    };
    for (double UnitHits::*unit :
         {&UnitHits::intMul, &UnitHits::fpMul, &UnitHits::fpDiv}) {
        avg32.*unit = avg(unit, &Row::h32);
        avg_inf.*unit = avg(unit, &Row::hinf);
    }
}

/** Fit the four Figure 2 regressions over the points. */
void
fitEntropy(EntropyResult &out)
{
    std::vector<double> e_full, e_win, mul_hr, div_hr;
    for (const EntropyPoint &p : out.points) {
        e_full.push_back(p.entropyFull);
        e_win.push_back(p.entropyWin);
        mul_hr.push_back(p.fpMulHit);
        div_hr.push_back(p.fpDivHit);
    }
    out.divFull = fitLine(e_full, div_hr);
    out.divWin = fitLine(e_win, div_hr);
    out.mulFull = fitLine(e_full, mul_hr);
    out.mulWin = fitLine(e_win, mul_hr);
}

/** Table 10's suite average of one tag mode's fp hit ratios. */
SuiteAvg
suiteAvg(const std::vector<UnitHits> &hits)
{
    SuiteAvg a;
    int nm = 0, nd = 0;
    for (const UnitHits &h : hits) {
        if (h.fpMul >= 0) {
            a.fpMul += h.fpMul;
            nm++;
        }
        if (h.fpDiv >= 0) {
            a.fpDiv += h.fpDiv;
            nd++;
        }
    }
    a.fpMul /= nm;
    a.fpDiv /= nd;
    return a;
}

/** A Table 9 cell from one unit's statistics pooled per mode. */
TrivialModeRow
trivialRow(const MemoStats (&modes)[3])
{
    TrivialModeRow row;
    double *slots[3] = {&row.all, &row.non, &row.intgr};
    for (int m = 0; m < 3; m++)
        if (modes[m].lookups)
            *slots[m] = modes[m].hitRatio();
    // NonTrivialOnly also yields the trivial fraction.
    const MemoStats &s = modes[1];
    row.trv = s.lookups + s.trivialBypassed ? s.trivialFraction() : -1.0;
    return row;
}

/** Pool one app's per-image speedup cycles in image order. */
SpeedupCycles
poolSpeedups(const std::vector<const KeyRecord *> &images,
             const std::vector<SpeedupUnit> &units)
{
    SpeedupCycles app;
    for (const KeyRecord *r : images) {
        const SpeedupCycles &tr = r->speedup;
        for (unsigned u = 0; u < numSpeedupUnits; u++) {
            for (unsigned f = 0; f < 2; f++) {
                AppCycles &acc = app.cells[u][f];
                const AppCycles &c = tr.cells[u][f];
                acc.totalCycles += c.totalCycles;
                acc.fpDivCycles += c.fpDivCycles;
                acc.fpMulCycles += c.fpMulCycles;
                acc.memoTotalCycles += c.memoTotalCycles;
            }
        }
        app.fpMul.merge(tr.fpMul);
        app.fpDiv.merge(tr.fpDiv);
    }
    for (SpeedupUnit u : units) {
        for (bool slow : {false, true}) {
            AppCycles &c = app.cell(u, slow);
            if (u != SpeedupUnit::FpDiv && app.fpMul.lookups)
                c.hitRatioFpMul = app.fpMul.hitRatio();
            if (u != SpeedupUnit::FpMul && app.fpDiv.lookups)
                c.hitRatioFpDiv = app.fpDiv.hitRatio();
        }
    }
    return app;
}

/** A plan's trace keys and the consumers of each. */
struct Keys
{
    std::vector<const SciWorkload *> sci; //!< scientific traces
    std::vector<Layout> sciLayouts;       //!< parallel to sci
    std::vector<Layout> mmLayouts;        //!< per mmKernels() entry
    std::vector<ImageEntropy> entropy;    //!< per standard image

    size_t
    sciIndex(const std::string &name) const
    {
        size_t s = 0;
        while (s < sci.size() && sci[s]->name != name)
            s++;
        return s;
    }
};

Keys
keysOf(const PlanRequest &req)
{
    Keys keys;
    auto addSci = [&](const std::vector<SciWorkload> &suite) {
        for (const SciWorkload &w : suite) {
            if (keys.sciIndex(w.name) < keys.sci.size())
                continue;
            keys.sci.push_back(&w);
            keys.sciLayouts.push_back(sciLayout(req, w));
        }
    };
    for (const auto *suite : req.sciSuites)
        addSci(*suite);
    if (req.tagModes)
        addSci(perfectWorkloads());

    for (const MmKernel &k : mmKernels())
        keys.mmLayouts.push_back(mmLayout(req, k));

    const std::vector<NamedImage> &images = standardImages();
    keys.entropy.resize(images.size());
    if (req.entropy) {
        keys.entropy = exec::sweep(images, [](const NamedImage &ni) {
            ImageEntropy e;
            e.full = imageEntropy(ni.image);
            e.valid = !std::isnan(e.full);
            if (e.valid)
                e.win = windowEntropy(ni.image, 8);
            return e;
        });
    }
    return keys;
}

/**
 * The work items covering every key once: phase items first (the
 * largest), then one item per remaining (kernel, image) key, then the
 * scientific traces. @p n_keys receives the number of keys covered.
 */
std::vector<Item>
itemsOf(const PlanRequest &req, const Keys &keys, size_t &n_keys)
{
    const std::vector<MmKernel> &kernels = mmKernels();
    const size_t n_img = standardImages().size();
    std::vector<Item> items;
    std::vector<size_t> first_image(kernels.size(), 0);
    for (size_t k = 0; k < kernels.size(); k++) {
        if (!contains(req.phaseApps, kernels[k].name))
            continue;
        Item it;
        it.kernel = k;
        it.images = std::min(kPhaseImages, n_img);
        it.phase = true;
        items.push_back(it);
        first_image[k] = it.images;
    }
    n_keys = 0;
    for (size_t k = 0; k < kernels.size(); k++) {
        n_keys += first_image[k];
        if (keys.mmLayouts[k].empty())
            continue;
        for (size_t i = first_image[k]; i < n_img; i++) {
            Item it;
            it.kernel = k;
            it.image = i;
            items.push_back(it);
            n_keys++;
        }
    }
    for (size_t s = 0; s < keys.sci.size(); s++) {
        Item it;
        it.sci = s;
        items.push_back(it);
        n_keys++;
    }
    return items;
}

/** One worker's item: generate, run every consumer, drop the trace. */
ItemRecord
runItem(const PlanRequest &req, const Keys &keys, const Item &it)
{
    ItemRecord rec;
    if (it.sci != npos) {
        Trace t = traceSciWorkload(*keys.sci[it.sci]);
        plan_generated.fetch_add(1, std::memory_order_relaxed);
        rec.keys.push_back(
            consume(t, keys.sciLayouts[it.sci], false, req.speedupUnits));
        return rec;
    }
    const MmKernel &k = mmKernels()[it.kernel];
    const std::vector<NamedImage> &images = standardImages();
    Trace combined;
    for (size_t i = it.image; i < it.image + it.images; i++) {
        Trace t = traceMmKernel(k, images[i].image, req.crop);
        plan_generated.fetch_add(1, std::memory_order_relaxed);
        rec.keys.push_back(consume(t, keys.mmLayouts[it.kernel],
                                   keys.entropy[i].valid,
                                   req.speedupUnits));
        if (it.phase) {
            combined.reserve(combined.size() + t.size());
            for (const Instruction &inst : t)
                combined.push(inst);
        }
    }
    if (it.phase)
        rec.phase = measurePhases(combined);
    return rec;
}

/** Reduce the item records, stage by stage, in canonical order. */
PlanResult
fold(const PlanRequest &req, const Keys &keys,
     const std::vector<Item> &items, std::vector<ItemRecord> &records)
{
    const std::vector<MmKernel> &kernels = mmKernels();
    const std::vector<NamedImage> &images = standardImages();

    // Index the records by key: mm[kernel][image], in image order
    // (a phase item's images precede the kernel's single items).
    std::vector<std::vector<const KeyRecord *>> mm(kernels.size());
    std::vector<const KeyRecord *> sci(keys.sci.size());
    std::vector<PhaseCell *> phase_of(kernels.size());
    for (size_t n = 0; n < items.size(); n++) {
        const Item &it = items[n];
        if (it.sci != npos) {
            sci[it.sci] = &records[n].keys[0];
            continue;
        }
        for (const KeyRecord &r : records[n].keys)
            mm[it.kernel].push_back(&r);
        if (it.phase)
            phase_of[it.kernel] = &records[n].phase;
    }
    // The two replays a sci consumer made on workload @p w.
    auto sciPair = [&](const SciWorkload &w, size_t Layout::*slot) {
        size_t s = keys.sciIndex(w.name);
        size_t at = keys.sciLayouts[s].*slot;
        return std::pair{hitsOf(sci[s]->replays[at]),
                         hitsOf(sci[s]->replays[at + 1])};
    };
    // Kernel @p k's statistics in @p slot, pooled over its images.
    auto mmPooled = [&](size_t k, size_t slot) {
        UnitStats s;
        for (const KeyRecord *r : mm[k])
            s.merge(r->replays[slot]);
        return s;
    };

    PlanResult out;
    for (const auto *suite : req.sciSuites) {
        SciSuiteResult r;
        for (const SciWorkload &w : *suite) {
            auto [h32, hinf] = sciPair(w, &Layout::suite);
            r.rows.push_back({w.name, h32, hinf});
        }
        averageRows(r.rows, r.avg32, r.avgInf);
        out.sciSuites.push_back(std::move(r));
    }

    if (req.mmSuite) {
        for (size_t k = 0; k < kernels.size(); k++) {
            size_t s = keys.mmLayouts[k].mm;
            if (s != npos)
                out.mmSuite.rows.push_back({kernels[k].name,
                                            hitsOf(mmPooled(k, s)),
                                            hitsOf(mmPooled(k, s + 1))});
        }
        averageRows(out.mmSuite.rows, out.mmSuite.avg32,
                    out.mmSuite.avgInf);
    }

    if (req.entropy) {
        for (size_t i = 0; i < images.size(); i++) {
            const ImageEntropy &e = keys.entropy[i];
            if (!e.valid)
                continue;
            // Both fp units pooled over every MM kernel.
            MemoStats mul, div;
            for (size_t k = 0; k < kernels.size(); k++) {
                size_t s = keys.mmLayouts[k].entropy;
                if (s == npos)
                    continue;
                mul.merge(mm[k][i]->replays[s].fpMul);
                div.merge(mm[k][i]->replays[s].fpDiv);
            }
            out.entropy.points.push_back({images[i].name, e.full, e.win,
                                          mul.hitRatio(),
                                          div.hitRatio()});
        }
        fitEntropy(out.entropy);
    }

    if (req.tagModes) {
        std::vector<UnitHits> full, mant;
        for (const SciWorkload &w : perfectWorkloads()) {
            auto [f, m] = sciPair(w, &Layout::tags);
            full.push_back(f);
            mant.push_back(m);
        }
        out.tagModes.perfectFull = suiteAvg(full);
        out.tagModes.perfectMant = suiteAvg(mant);
        full.clear();
        mant.clear();
        for (size_t k = 0; k < kernels.size(); k++) {
            size_t s = keys.mmLayouts[k].tags;
            if (s == npos)
                continue;
            full.push_back(hitsOf(mmPooled(k, s)));
            mant.push_back(hitsOf(mmPooled(k, s + 1)));
        }
        out.tagModes.mmFull = suiteAvg(full);
        out.tagModes.mmMant = suiteAvg(mant);
    }

    for (const std::string &app : req.trivialApps) {
        size_t k = kernelIndex(app);
        std::vector<TrivialModeRow> rows;
        for (size_t o = 0; o < req.trivialOps.size(); o++) {
            MemoStats modes[3];
            for (size_t m = 0; m < 3; m++)
                modes[m] = mmPooled(k, keys.mmLayouts[k].trivial + o * 3 + m)
                               .of(req.trivialOps[o]);
            rows.push_back(trivialRow(modes));
        }
        out.trivial.push_back(std::move(rows));
    }

    size_t sweep_slot = 0;
    for (const auto &cfgs : req.sweeps) {
        std::vector<std::vector<UnitHits>> per_kernel;
        for (const std::string &name : sweepKernelNames()) {
            size_t k = kernelIndex(name);
            std::vector<UnitHits> hits;
            for (size_t c = 0; c < cfgs.size(); c++)
                hits.push_back(hitsOf(
                    mmPooled(k, keys.mmLayouts[k].sweep + sweep_slot + c)));
            per_kernel.push_back(std::move(hits));
        }
        out.sweeps.push_back(foldSweepBands(per_kernel));
        sweep_slot += cfgs.size();
    }

    for (const std::string &app : req.speedupApps)
        out.speedups.push_back(
            poolSpeedups(mm[kernelIndex(app)], req.speedupUnits));

    for (const std::string &app : req.phaseApps)
        out.phases.push_back(std::move(*phase_of[kernelIndex(app)]));
    return out;
}

} // anonymous namespace

PlanResult
runPlan(const PlanRequest &req)
{
    const Keys keys = keysOf(req);
    size_t n_keys = 0;
    const std::vector<Item> items = itemsOf(req, keys, n_keys);
    std::vector<ItemRecord> records = exec::sweep(
        items, [&](const Item &it) { return runItem(req, keys, it); });
    plan_runs.fetch_add(1, std::memory_order_relaxed);
    plan_items.fetch_add(items.size(), std::memory_order_relaxed);
    plan_keys.fetch_add(n_keys, std::memory_order_relaxed);
    return fold(req, keys, items, records);
}

PlanRequest
paperRequest()
{
    PlanRequest req = goldenRequest();
    req.mmSuite = true;
    req.entropy = true;
    req.speedupApps = speedupApps();
    req.speedupUnits = {SpeedupUnit::FpDiv, SpeedupUnit::FpMul,
                        SpeedupUnit::Both};
    req.phaseApps = table9Apps();
    return req;
}

PlanTotals
planTotals()
{
    PlanTotals t;
    t.runs = plan_runs.load(std::memory_order_relaxed);
    t.items = plan_items.load(std::memory_order_relaxed);
    t.generated = plan_generated.load(std::memory_order_relaxed);
    t.uniqueKeys = plan_keys.load(std::memory_order_relaxed);
    return t;
}

} // namespace memo::check
