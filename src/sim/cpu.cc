#include "cpu.hh"

#include <numeric>
#include <stdexcept>

#include "arith/units.hh"
#include "core/check.hh"

namespace memo
{

namespace
{

// Namespace-scope constant: the function-local `static const` it
// replaces injected a guard check into the hot replay loop and was
// shared mutable-init state once run() became concurrent.
const EarlyOutIntMultiplier earlyOutMultiplier{};

/** setClosedFormTrivialFault() state; read once per evaluate(). */
std::atomic<bool> closed_form_trivial_fault{false};

} // anonymous namespace

void
setClosedFormTrivialFault(bool enabled)
{
    closed_form_trivial_fault.store(enabled, std::memory_order_relaxed);
}

uint64_t
CostVector::instructions() const
{
    return std::accumulate(count.begin(), count.end(), uint64_t{0});
}

CpuModel::CpuModel(const CpuConfig &cfg)
    : cfg(cfg)
{
}

SimResult
CpuModel::run(const Trace &trace, MemoBank *bank)
{
    SimResult res;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    // Hoist the per-instruction bank->table() map find out of the hot
    // loop: one table pointer per instruction class, resolved once.
    MemoTable *tables[numInstClasses] = {};
    if (bank) {
        for (unsigned c = 0; c < numInstClasses; c++)
            if (auto op = memoOperation(static_cast<InstClass>(c)))
                tables[c] = bank->table(*op);
    }

    // Progress batching: one relaxed add per 64 Ki instructions keeps
    // the heartbeat's counter out of the hot loop's cache traffic.
    constexpr uint64_t progressBatch = 64 * 1024;
    uint64_t sinceProgress = 0;

    for (const Instruction &inst : trace) {
        unsigned cls_idx = static_cast<unsigned>(inst.cls);
        unsigned lat;
        switch (inst.cls) {
          case InstClass::Load:
            lat = hier.load(inst.addr);
            break;
          case InstClass::Store:
            lat = hier.store(inst.addr);
            break;
          default: {
            lat = cfg.lat[inst.cls];
            if (inst.cls == InstClass::IntMul && cfg.earlyOutIntMul) {
                lat = earlyOutMultiplier
                          .multiply(static_cast<int64_t>(inst.a),
                                    static_cast<int64_t>(inst.b))
                          .cycles;
            }
            MemoTable *table = tables[cls_idx];
            if (table) {
                if (auto v = table->lookup(inst.a, inst.b)) {
                    // A successful lookup gives the result of a
                    // multi-cycle computation in a single cycle.
                    MEMO_CHECK(*v == inst.result,
                               "memoized value must match computation "
                               "(MEMO-TABLE transparency, section 2)");
                    res.memoSaved[cls_idx] += lat - 1;
                    lat = 1;
                } else {
                    table->update(inst.a, inst.b, inst.result);
                }
            }
            break;
          }
        }
        res.cycles[cls_idx] += lat;
        res.count[cls_idx]++;
        res.occupancy[cls_idx].record(lat);
        res.totalCycles += lat;
        if (cfg.progress && ++sinceProgress == progressBatch) {
            cfg.progress->fetch_add(sinceProgress,
                                    std::memory_order_relaxed);
            sinceProgress = 0;
        }
    }
    if (cfg.progress && sinceProgress)
        cfg.progress->fetch_add(sinceProgress,
                                std::memory_order_relaxed);

    if (bank) {
        for (Operation op : {Operation::IntMul, Operation::FpMul,
                             Operation::FpDiv, Operation::FpSqrt,
                             Operation::FpLog, Operation::FpSin,
                             Operation::FpCos, Operation::FpExp}) {
            if (const MemoTable *t = bank->table(op))
                res.memo[op] = t->stats();
        }
    }
    res.l1 = hier.l1().stats();
    res.l2 = hier.l2().stats();
    finish(res, trace.size());
    return res;
}

CostVector
CpuModel::costs(const Trace &trace) const
{
    if (cfg.earlyOutIntMul)
        throw std::invalid_argument(
            "CpuModel::costs: an early-out IntMul latency depends on "
            "the operands, so the closed form does not apply");
    CostVector cv;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    // Walk the class column; addresses sit in their own column in
    // Load/Store order, so no Instruction is materialized.
    const TraceStore &store = trace.store();
    const uint8_t *cls = store.clsData();
    const uint64_t *addr = store.addrData();
    size_t next_addr = 0;
    for (size_t i = 0; i < store.size(); i++) {
        cv.count[cls[i]]++;
        if (cls[i] == static_cast<uint8_t>(InstClass::Load)) {
            unsigned lat = hier.load(addr[next_addr++]);
            cv.loadCycles += lat;
            cv.loadOccupancy.record(lat);
        } else if (cls[i] == static_cast<uint8_t>(InstClass::Store)) {
            unsigned lat = hier.store(addr[next_addr++]);
            cv.storeCycles += lat;
            cv.storeOccupancy.record(lat);
        }
    }
    cv.l1 = hier.l1().stats();
    cv.l2 = hier.l2().stats();
    return cv;
}

SimResult
CpuModel::evaluate(const CostVector &cv,
                   const std::map<Operation, MemoStats> &memo) const
{
    if (cfg.earlyOutIntMul)
        throw std::invalid_argument(
            "CpuModel::evaluate: an early-out IntMul latency depends on "
            "the operands, so the closed form does not apply");
    const bool fault =
        closed_form_trivial_fault.load(std::memory_order_relaxed);
    std::array<uint64_t, numInstClasses> hits{};
    for (const auto &[op, st] : memo) {
        unsigned c = static_cast<unsigned>(instClassOf(op));
        if (st.lookups + st.trivialBypassed != cv.count[c])
            throw std::invalid_argument(
                "CpuModel::evaluate: " + std::string(operationName(op)) +
                " statistics do not cover this trace");
        hits[c] = fault ? st.hits : st.allHits();
    }

    SimResult res;
    for (unsigned c = 0; c < numInstClasses; c++) {
        InstClass cls = static_cast<InstClass>(c);
        const uint64_t n = cv.count[c];
        res.count[c] = n;
        if (cls == InstClass::Load) {
            res.cycles[c] = cv.loadCycles;
            res.occupancy[c] = cv.loadOccupancy;
        } else if (cls == InstClass::Store) {
            res.cycles[c] = cv.storeCycles;
            res.occupancy[c] = cv.storeOccupancy;
        } else {
            // A hit completes in one cycle and saves lat - 1, in
            // run()'s unsigned arithmetic.
            const unsigned lat = cfg.lat[cls];
            const uint64_t h = hits[c];
            res.cycles[c] = (n - h) * lat + h;
            res.memoSaved[c] = h * static_cast<unsigned>(lat - 1);
            res.occupancy[c].record(lat, n - h);
            res.occupancy[c].record(1, h);
        }
        res.totalCycles += res.cycles[c];
    }
    res.memo = memo;
    res.l1 = cv.l1;
    res.l2 = cv.l2;
    finish(res, cv.instructions());
    return res;
}

void
CpuModel::finish(SimResult &res, uint64_t instructions) const
{
    // Annulled delay slots: a deterministic fraction of branches
    // wastes one issue cycle each, floored per trace.
    uint64_t branches = res.count[static_cast<unsigned>(
        InstClass::Branch)];
    res.annulCycles = branches * cfg.annulPerMille / 1000;
    res.cycles[static_cast<unsigned>(InstClass::Branch)] +=
        res.annulCycles;
    res.totalCycles += res.annulCycles;

    // Fold per-run breakdowns into the process-wide registry. Every
    // quantity is an exact integer derived from this one trace, so
    // sweeps merge to bit-identical snapshots at any --jobs level.
    auto &reg = obs::StatsRegistry::global();
    reg.add("sim.cpu.runs", 1);
    reg.add("sim.cpu.instructions", instructions);
    reg.add("sim.cpu.cycles", res.totalCycles);
    reg.add("sim.cpu.annulCycles", res.annulCycles);
    reg.add("sim.cpu.memoSavedCycles", res.totalMemoSaved());
    for (unsigned i = 0; i < numInstClasses; i++) {
        if (!res.count[i])
            continue;
        InstClass cls = static_cast<InstClass>(i);
        std::string name(instClassName(cls));
        reg.add("sim.cpu.cycles." + name, res.cycles[i]);
        if (res.memoSaved[i])
            reg.add("sim.cpu.memoSaved." + name, res.memoSaved[i]);
        reg.mergeHistogram("sim.cpu.occupancy." + name,
                           res.occupancy[i]);
    }
}

} // namespace memo
