#include "core/processor.hh"

#include <algorithm>
#include <cstdio>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"

namespace tproc
{

namespace
{

/** Run fn, adding its wall seconds to *acc when telemetry is on (acc
 *  non-null); with telemetry off the clock is never read. */
template <typename Fn>
void
timedInto(double *acc, Fn &&fn)
{
    if (!acc) {
        fn();
        return;
    }
    HiresTimer t;
    fn();
    *acc += t.seconds();
}

} // anonymous namespace

/**
 * Interval accumulators and counter snapshots for the telemetry
 * recorder. The "last*" members remember each source counter at the
 * previous interval boundary so every sample reports a clean delta;
 * the sums average per-cycle facts (occupancy, bus backlog) over the
 * interval; the wall-second accumulators feed the cycle_compute /
 * cycle_commit phase attribution (completion and issue polling vs the
 * rest of the cycle). Strictly observer state: nothing in here is ever
 * read by the simulation itself.
 */
struct Processor::MetricsState
{
    IntervalSeries series;
    uint64_t countdown = 0;

    uint64_t lastRetired = 0;
    uint64_t lastMisp = 0;
    uint64_t lastTcLookups = 0;
    uint64_t lastTcMisses = 0;
    uint64_t lastFetchStall = 0;
    uint64_t lastDispatchBlocked = 0;
    uint64_t lastViolations = 0;
    double occupancySum = 0.0;
    double busBacklogSum = 0.0;

    double computeSeconds = 0.0;
    double cycleSeconds = 0.0;
};

namespace
{

/** Reject degenerate shapes before any structure constructor runs, so
 *  a bad config is a structured ConfigError naming the knob, never a
 *  panic_if deep inside SetAssocCache (or silent misbehaviour). */
const ProcessorConfig &
validated(const ProcessorConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // anonymous namespace

Processor::Processor(const Program &prog_, const ProcessorConfig &cfg_,
                     std::unique_ptr<ArchSource> golden_source)
    : prog(prog_), cfg(validated(cfg_)), frontend(prog_, cfg),
      dcache(cfg.dcache),
      arb([this](TraceUid uid) { return orderOf(uid); }),
      prf(cfg.physRegs), map(PhysRegFile::initialMap()),
      retireMap(PhysRegFile::initialMap()),
      dispatchExpectedPc(prog_.entry)
{
    identity = cfg.identity;
    mem.load(prog.dataInit);
    if (cfg.verifyRetirement) {
        golden = golden_source ? std::move(golden_source)
                               : std::make_unique<Emulator>(prog);
    }
    pePool.resize(cfg.numPEs);
    peUid.assign(cfg.numPEs, invalidTraceUid);
    busPerPe.assign(cfg.numPEs, 0);
    window.reserve(cfg.numPEs);
    windowPe.reserve(cfg.numPEs);
    for (int i = cfg.numPEs - 1; i >= 0; --i)
        freePes.push_back(i);
    if (cfg.metricsInterval > 0) {
        metrics = std::make_unique<MetricsState>();
        metrics->series = IntervalSeries(
            cfg.metricsInterval, metricsChannels(), cfg.metricsCapacity);
        metrics->countdown = cfg.metricsInterval;
    }
}

Processor::~Processor() = default;

// ---------------------------------------------------------------------
// Window helpers.
// ---------------------------------------------------------------------

InFlightTrace *
Processor::find(TraceUid uid)
{
    if (uid == invalidTraceUid)
        return nullptr;
    const size_t n = peUid.size();
    for (size_t pe = 0; pe < n; ++pe) {
        if (peUid[pe] == uid)
            return &pePool[pe];
    }
    return nullptr;
}

const InFlightTrace *
Processor::find(TraceUid uid) const
{
    return const_cast<Processor *>(this)->find(uid);
}

int
Processor::windowIndex(TraceUid uid) const
{
    // logicalPos is refreshed after every window mutation, so the
    // resident trace already knows its position — no window scan.
    const InFlightTrace *t = find(uid);
    return t ? static_cast<int>(t->logicalPos) : -1;
}

int64_t
Processor::orderOf(TraceUid uid) const
{
    const InFlightTrace *t = find(uid);
    return t ? t->logicalPos : -1;
}

void
Processor::refreshLogicalPositions()
{
    for (size_t i = 0; i < window.size(); ++i)
        pePool[windowPe[i]].logicalPos = static_cast<int64_t>(i);
}

// ---------------------------------------------------------------------
// Cycle loop.
// ---------------------------------------------------------------------

void
Processor::step()
{
    if (!metrics) {
        stepPhases();
        return;
    }
    HiresTimer cycle_timer;
    stepPhases();
    metrics->cycleSeconds += cycle_timer.seconds();
    tickMetrics();
}

void
Processor::stepPhases()
{
    phaseCompletions();
    phaseCacheBuses();
    phaseResultBuses();
    phaseViolations();
    phaseEvents();
    phaseRetire();
    phaseDispatch();
    phaseIssue();
    frontend.cycle(curCycle);

    // Fetch stalled on an unresolved indirect: resolve it from the last
    // dispatched trace once its final slot executes.
    if (frontend.waitingIndirect()) {
        InFlightTrace *t = find(lastDispatchedUid);
        if (t && !t->slots.empty()) {
            const DynSlot &last = t->slots.back();
            if (isIndirect(last.inst.op) && last.completed)
                frontend.indirectResolved(last.brTarget);
        }
    }

    if (insertMode.active)
        ++stats.insertActiveCycles;
    if (curCycle < dispatchBusyUntil)
        ++stats.dispatchBlockedCycles;
    if (!frontend.hasReady(curCycle))
        ++stats.fetchStallCycles;

    ++curCycle;
    ++stats.cycles;

    if (curCycle - lastRetireCycle > cfg.watchdogCycles)
        raiseWatchdog();
}

void
Processor::raiseWatchdog()
{
    char buf[512];
    snprintf(buf, sizeof(buf),
             "watchdog: no retirement for %llu cycles (window=%zu, "
             "events=%zu, insert=%d, queue=%zu, halt=%d, waitInd=%d, "
             "fetchPc=%lld, expected=%lld, dispBusy=%lld, now=%llu%s%s)",
             static_cast<unsigned long long>(cfg.watchdogCycles),
             window.size(), events.size(), insertMode.active ? 1 : 0,
             frontend.queueSize(), frontend.haltSeenByFetch() ? 1 : 0,
             frontend.waitingIndirect() ? 1 : 0,
             static_cast<long long>(frontend.fetchPc()),
             static_cast<long long>(dispatchExpectedPc),
             static_cast<long long>(dispatchBusyUntil),
             static_cast<unsigned long long>(curCycle),
             identity.empty() ? "" : ", ", identity.c_str());
    // Under fault capture, throw the structured form so harnesses can
    // record the point and trigger capture-on-failure; otherwise keep
    // the historical abort-with-message behaviour.
    if (ScopedErrorCapture::active()) {
        throw WatchdogError(buf, curCycle, curCycle - lastRetireCycle,
                            window.size(), identity);
    }
    // Deliberate: with no capture active there is no structured-error
    // consumer, and the historical contract is message + abort.
    panic("%s", buf);  // NOLINT-tproc(no-bare-panic)
}

const ProcessorStats &
Processor::run(uint64_t max_insts, uint64_t max_cycles)
{
    while (!simDone && stats.retiredInsts < max_insts &&
           stats.cycles < max_cycles) {
        step();
    }

    // Flush the final partial interval as an exact sample scaled by the
    // cycles it actually covers — otherwise up to interval-1 cycles of
    // end-of-run behaviour (exactly where halt-adjacent cliffs live)
    // would be silently dropped. Only the last sample of a run may
    // cover less than a full interval (docs/metrics.md).
    if (metrics && metrics->countdown < cfg.metricsInterval)
        sampleMetrics(cfg.metricsInterval - metrics->countdown);

    // Fold in component statistics.
    stats.tcLookups = frontend.traceCache().lookups;
    stats.tcMisses = frontend.traceCache().misses;
    stats.icAccesses = frontend.icache().tags().accesses;
    stats.icMisses = frontend.icache().tags().misses;
    stats.dcAccesses = dcache.tags().accesses;
    stats.dcMisses = dcache.tags().misses;
    stats.bitLookups = frontend.bitTable().lookups;
    stats.bitMisses = frontend.bitTable().misses;
    stats.tracePredictions = frontend.predictions;
    stats.fallbackFetches = frontend.fallbackFetches;
    stats.constructions = frontend.constructions;
    stats.loadViolations = arb.violations;
    return stats;
}

// ---------------------------------------------------------------------
// Windowed telemetry (cfg.metricsInterval): a pure observer of the
// counters the simulation maintains anyway. docs/metrics.md documents
// every channel; keep the two in lockstep.
// ---------------------------------------------------------------------

const std::vector<std::string> &
Processor::metricsChannels()
{
    static const std::vector<std::string> channels = {
        "ipc",                    // retired insts / cycle, this interval
        "misp_per_kilo",          // trace misp events per 1k insts
        "tc_hit_rate",            // trace-cache hits / lookups
        "window_occupancy",       // mean resident traces per cycle
        "bus_backlog",            // mean queued result-bus requests
        "fetch_stall_frac",       // cycles the frontend produced nothing
        "dispatch_blocked_frac",  // cycles the dispatch bus was busy
        "arb_violations",         // load-ordering violations detected
    };
    return channels;
}

const IntervalSeries *
Processor::metricsSeries() const
{
    return metrics ? &metrics->series : nullptr;
}

double
Processor::metricsComputeSeconds() const
{
    return metrics ? metrics->computeSeconds : 0.0;
}

double
Processor::metricsCycleSeconds() const
{
    return metrics ? metrics->cycleSeconds : 0.0;
}

void
Processor::tickMetrics()
{
    MetricsState &m = *metrics;
    m.occupancySum += static_cast<double>(window.size());
    m.busBacklogSum += static_cast<double>(busQueue.size());
    if (--m.countdown == 0)
        sampleMetrics(cfg.metricsInterval);
}

void
Processor::sampleMetrics(uint64_t elapsed)
{
    MetricsState &m = *metrics;
    const double interval = static_cast<double>(elapsed);
    const uint64_t insts = stats.retiredInsts - m.lastRetired;
    const uint64_t misp = stats.mispEvents - m.lastMisp;
    const uint64_t tc_lookups =
        frontend.traceCache().lookups - m.lastTcLookups;
    const uint64_t tc_misses =
        frontend.traceCache().misses - m.lastTcMisses;
    const uint64_t fetch_stall =
        stats.fetchStallCycles - m.lastFetchStall;
    const uint64_t dispatch_blocked =
        stats.dispatchBlockedCycles - m.lastDispatchBlocked;
    const uint64_t violations = arb.violations - m.lastViolations;

    const double values[] = {
        static_cast<double>(insts) / interval,
        insts ? 1000.0 * static_cast<double>(misp) /
                    static_cast<double>(insts)
              : 0.0,
        tc_lookups ? static_cast<double>(tc_lookups - tc_misses) /
                         static_cast<double>(tc_lookups)
                   : 0.0,
        m.occupancySum / interval,
        m.busBacklogSum / interval,
        static_cast<double>(fetch_stall) / interval,
        static_cast<double>(dispatch_blocked) / interval,
        static_cast<double>(violations),
    };
    m.series.record(curCycle, values,
                    sizeof(values) / sizeof(values[0]));

    m.lastRetired = stats.retiredInsts;
    m.lastMisp = stats.mispEvents;
    m.lastTcLookups = frontend.traceCache().lookups;
    m.lastTcMisses = frontend.traceCache().misses;
    m.lastFetchStall = stats.fetchStallCycles;
    m.lastDispatchBlocked = stats.dispatchBlockedCycles;
    m.lastViolations = arb.violations;
    m.occupancySum = 0.0;
    m.busBacklogSum = 0.0;
    m.countdown = cfg.metricsInterval;
}

// ---------------------------------------------------------------------
// Execution: operand readiness, issue, completion.
// ---------------------------------------------------------------------

PhysReg
Processor::unreadyLiveIn(const DynSlot &d) const
{
    // src* is valid exactly for the live-in operands (the slot reads
    // the register and no earlier slot of the trace writes it).
    if (d.src1 != invalidPhysReg && !prf.ready(d.src1, curCycle))
        return d.src1;
    if (d.src2 != invalidPhysReg && !prf.ready(d.src2, curCycle))
        return d.src2;
    return invalidPhysReg;
}

int64_t
Processor::operandValue(const InFlightTrace &t, int dep, PhysReg src) const
{
    if (dep >= 0)
        return t.slots[dep].value;
    return src != invalidPhysReg ? prf.value(src) : 0;
}

void
Processor::issueSlot(InFlightTrace &t, int slot)
{
    DynSlot &d = t.slots[slot];
    d.issued = true;
    t.notIssuedMask &= ~slotBit(slot);
    t.inFlightMask |= slotBit(slot);
    ++d.issueCount;
    ++work.issuedSlots;
    d.srcVal1 = operandValue(t, d.dep1, d.src1);
    d.srcVal2 = operandValue(t, d.dep2, d.src2);

    const Instruction &inst = d.inst;
    switch (inst.op) {
      case Opcode::LD:
      case Opcode::ST:
        // Address generation (1 cycle); the memory access itself goes
        // through a cache bus afterwards.
        d.execDoneAt = curCycle + 1;
        break;
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        d.resolvedTaken = evalBranch(inst.op, d.srcVal1, d.srcVal2);
        d.execDoneAt = curCycle + 1;
        break;
      case Opcode::JMP:
        d.execDoneAt = curCycle + 1;
        break;
      case Opcode::CALL:
      case Opcode::CALLR:
        d.value = static_cast<int64_t>(d.pc + 1);
        d.brTarget = inst.op == Opcode::CALL ?
            static_cast<Addr>(inst.imm) : static_cast<Addr>(d.srcVal1);
        d.execDoneAt = curCycle + 1;
        break;
      case Opcode::JR:
      case Opcode::RET:
        d.brTarget = static_cast<Addr>(d.srcVal1);
        d.execDoneAt = curCycle + 1;
        break;
      case Opcode::NOP:
      case Opcode::HALT:
        d.execDoneAt = curCycle + 1;
        break;
      default:
        // ALU operation.
        d.value = evalAlu(inst.op, d.srcVal1, d.srcVal2, inst.imm);
        d.execDoneAt = curCycle + execLatency(inst.op);
        break;
    }
}

void
Processor::issueTrace(InFlightTrace &t)
{
    // A register a parked slot waits on was written: wake them all.
    if (prf.writeSig() & t.parkSig)
        t.parkedMask = t.parkSig = 0;

    // Only un-issued, unparked slots whose in-trace producers have all
    // completed can issue; a trace with none (most of the window, most
    // cycles) is skipped outright. The walk is in slot order, so the
    // issuePerPe cap picks the same slots a full scan would.
    int issued_this_cycle = 0;
    for (uint64_t m = t.notIssuedMask & t.localReadyMask & ~t.parkedMask;
         m && issued_this_cycle < cfg.issuePerPe; m &= m - 1) {
        const int i = lowestSlot(m);
        DynSlot &d = t.slots[i];
        ++work.issueCandidates;
        if (curCycle < d.earliestIssue)
            continue;
        ++work.operandProbes;
        const PhysReg blocker = unreadyLiveIn(d);
        if (blocker != invalidPhysReg) {
            // No value yet: only a write can make it ready.
            if (!prf.hasValue(blocker)) {
                t.parkedMask |= slotBit(i);
                t.parkSig |= PhysRegFile::sigBit(blocker);
            }
            continue;
        }
        issueSlot(t, i);
        ++issued_this_cycle;
    }
}

void
Processor::phaseIssue()
{
    // Each PE issues against its own slots; nothing writes the
    // register file during issue.
    timedInto(metrics ? &metrics->computeSeconds : nullptr, [this] {
        for (size_t i = 0; i < window.size(); ++i)
            issueTrace(entryAt(i));
        // Every trace has seen this cycle's writes; nothing writes the
        // register file between here and the next cycle's completions.
        prf.clearWriteSig();
    });
}

void
Processor::phaseCompletions()
{
    // Complete ready slots in window order, in place, visiting only the
    // in-flight slots of each trace in slot order. A consumer that
    // completeSlot reissues leaves the in-flight mask before the walk
    // reaches it (consumers follow their producer), and completion
    // never changes the window itself.
    timedInto(metrics ? &metrics->computeSeconds : nullptr, [this] {
        for (size_t w = 0; w < window.size(); ++w) {
            InFlightTrace &t = entryAt(w);
            for (uint64_t m = t.inFlightMask; m;) {
                const int i = lowestSlot(m);
                m &= m - 1;
                const DynSlot &d = t.slots[i];
                ++work.completionVisits;
                // waitingBus gates memory ops between address
                // generation and their cache-bus grant (the grant
                // schedules the real completion time).
                if (!d.waitingBus && d.execDoneAt <= curCycle) {
                    completeSlot(t, i);
                    m &= t.inFlightMask;
                }
            }
        }
    });
}

void
Processor::completeSlot(InFlightTrace &t, int slot)
{
    DynSlot &d = t.slots[slot];

    // Memory operations: address generation finished; go request a cache
    // bus (they "complete" later, once the access returns).
    if ((d.isLoad() || d.isStore()) && !d.agenDone) {
        d.agenDone = true;
        d.effAddr = static_cast<Addr>(d.srcVal1 + d.inst.imm);
        d.waitingBus = true;
        cacheQueue.push_back({t.uid, slot});
        return;
    }

    d.completed = true;
    t.inFlightMask &= ~slotBit(slot);
    t.completedMask |= slotBit(slot);

    // Value-change filter: a recompletion that reproduces the previous
    // value cannot change any downstream result, so dependents keep
    // their results (this is what bounds reissue cascades).
    bool value_changed = !d.everCompleted || d.value != d.lastValue;
    d.everCompleted = true;
    d.lastValue = d.value;

    // Operand wakeup and selective reissue of dependence chains
    // (Section 2.2.3), over the local consumers in slot order: a
    // consumer whose producers have now all completed becomes locally
    // ready, and one that already issued consumed a stale value.
    for (uint64_t m = d.consumers; m; m &= m - 1) {
        const int i = lowestSlot(m);
        DynSlot &c = t.slots[i];
        ++work.consumerVisits;
        if (t.locallyReady(c))
            t.localReadyMask |= slotBit(i);
        if (value_changed && (c.issued || c.completed)) {
            ++stats.reissueLocal;
            reissueSlot(t, i, curCycle + 1);
        }
    }

    // Publish live-out values on a global result bus. The register's
    // current content decides whether a broadcast is needed (a previous
    // broadcast may have been dropped by repair-time validation, and
    // repair can hand a completed slot a fresh register).
    if (d.dest != invalidPhysReg && writesReg(d.inst) &&
        (!prf.hasValue(d.dest) || prf.value(d.dest) != d.value)) {
        busQueue.push_back({t.uid, slot, d.dest, d.value});
    }

    // Conditional branch resolution: flag a misprediction event.
    if (d.isCondBr && d.resolvedTaken != d.predTaken)
        events.push_back({t.uid, slot, false});

    // Indirect resolution: validate the successor trace's start pc.
    if (isIndirect(d.inst.op)) {
        if (t.uid == lastDispatchedUid &&
            static_cast<size_t>(slot) + 1 == t.slots.size()) {
            dispatchExpectedPc = d.brTarget;
            // Unstall fetch immediately: the trace may retire this very
            // cycle, after which the end-of-cycle poll cannot find it.
            frontend.indirectResolved(d.brTarget);
        }
        int idx = windowIndex(t.uid);
        if (idx >= 0 && idx + 1 < static_cast<int>(window.size())) {
            const InFlightTrace &succ = entryAt(idx + 1);
            if (succ.trace->id.startPc != d.brTarget)
                events.push_back({t.uid, slot, true});
        }
    }
}

void
Processor::reissueSlot(InFlightTrace &t, int slot, Cycle earliest)
{
    DynSlot &d = t.slots[slot];
    // Redispatch reissues slots whose live-in names changed: whatever
    // register the slot was parked on may no longer be its source.
    t.parkedMask &= ~slotBit(slot);
    if (!d.issued && !d.completed) {
        d.earliestIssue = std::max(d.earliestIssue, earliest);
        return;
    }
    if (d.isLoad())
        arb.loadRemove(t.uid, slot);
    if (d.isStore() && d.performed)
        arb.storeUndo(t.uid, slot);
    // Back to the not-issued pool. Un-completing a slot also puts its
    // local consumers back to sleep.
    if (d.completed)
        t.localReadyMask &= ~d.consumers;
    t.inFlightMask &= ~slotBit(slot);
    t.completedMask &= ~slotBit(slot);
    t.notIssuedMask |= slotBit(slot);
    d.resetDynamic();
    d.earliestIssue = std::max(d.earliestIssue, earliest);
    ++stats.reissuedSlots;
}

void
Processor::reissueConsumersOf(PhysReg reg)
{
    for (size_t w = 0; w < window.size(); ++w) {
        InFlightTrace &t = entryAt(w);
        // Only slots that already issued can have consumed the old
        // value; src* names exactly the live-in operands.
        for (uint64_t m = t.inFlightMask | t.completedMask; m;
             m &= m - 1) {
            const int i = lowestSlot(m);
            const DynSlot &d = t.slots[i];
            if (d.src1 == reg || d.src2 == reg) {
                ++stats.reissueGlobal;
                reissueSlot(t, i, curCycle + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Buses.
// ---------------------------------------------------------------------

void
Processor::phaseCacheBuses()
{
    int total = 0;
    std::fill(busPerPe.begin(), busPerPe.end(), 0);
    cacheKept.clear();

    while (!cacheQueue.empty() && total < cfg.cacheBuses) {
        CacheRequest req = cacheQueue.front();
        cacheQueue.pop_front();

        InFlightTrace *t = find(req.uid);
        if (!t || req.slot >= static_cast<int>(t->slots.size())) {
            continue;   // squashed or replaced
        }
        DynSlot &d = t->slots[req.slot];
        if (!d.waitingBus || !d.issued || d.completed)
            continue;   // stale request (slot was reissued/repaired)

        if (busPerPe[t->peId] >= cfg.maxCacheBusesPerPe) {
            cacheKept.push_back(req);
            continue;
        }
        ++busPerPe[t->peId];
        ++total;
        d.waitingBus = false;

        if (d.isLoad()) {
            Arb::LoadResult r = arb.loadAccess(t->uid, req.slot, d.effAddr,
                                               mem);
            d.value = r.value;
            int lat = r.fromStore ? 2 : dcache.loadLatency(d.effAddr);
            if (d.issueCount > 1)
                lat += cfg.loadReissuePenalty;
            d.execDoneAt = curCycle + lat;
        } else {
            arb.storePerform(t->uid, req.slot, d.effAddr, d.srcVal2);
            d.performed = true;
            d.value = d.srcVal2;
            d.execDoneAt = curCycle + 1;
        }
    }

    // Unprocessed / deferred requests retry next cycle, in order.
    for (auto it = cacheKept.rbegin(); it != cacheKept.rend(); ++it)
        cacheQueue.push_front(*it);
}

void
Processor::phaseResultBuses()
{
    int total = 0;
    std::fill(busPerPe.begin(), busPerPe.end(), 0);
    busKept.clear();

    while (!busQueue.empty() && total < cfg.globalBuses) {
        BusRequest req = busQueue.front();
        busQueue.pop_front();

        InFlightTrace *t = find(req.uid);
        if (!t || req.slot >= static_cast<int>(t->slots.size()))
            continue;
        DynSlot &d = t->slots[req.slot];
        // Drop stale broadcasts: the slot must still be completed with
        // the same destination and value (repair / reissue enqueue fresh
        // requests of their own).
        if (!d.completed || d.dest != req.dest || d.value != req.value)
            continue;

        if (busPerPe[t->peId] >= cfg.maxBusesPerPe) {
            busKept.push_back(req);
            continue;
        }
        ++busPerPe[t->peId];
        ++total;

        bool rebroadcast = prf.hasValue(req.dest);
        if (rebroadcast && prf.value(req.dest) == req.value)
            continue;   // unchanged value: nothing downstream can differ
        // Extra one-cycle bypass latency between PEs (Table 1).
        prf.write(req.dest, req.value, curCycle + 1);
        if (rebroadcast)
            reissueConsumersOf(req.dest);
    }

    for (auto it = busKept.rbegin(); it != busKept.rend(); ++it)
        busQueue.push_front(*it);
}

void
Processor::phaseViolations()
{
    for (const SeqTag &tag : arb.takeViolations()) {
        InFlightTrace *t = find(tag.uid);
        if (!t || tag.slot >= static_cast<int>(t->slots.size()))
            continue;
        DynSlot &d = t->slots[tag.slot];
        if (!d.isLoad())
            continue;
        ++stats.loadViolations;
        ++stats.reissueViol;
        reissueSlot(*t, tag.slot, curCycle + cfg.loadReissuePenalty);
    }
}

// ---------------------------------------------------------------------
// Misprediction events and recovery.
// ---------------------------------------------------------------------

void
Processor::phaseEvents()
{
    // During a CGCI insertion, recovery remains possible for traces
    // logically before the assumed-CI trace (the repaired trace and the
    // inserted control dependent traces carry valid rename snapshots);
    // events in the preserved traces wait for the re-dispatch pass at
    // re-convergence. A bounded wait breaks the rare cycle where the
    // insertion's progress itself depends on a deferred repair.
    int ci_idx = -1;
    if (insertMode.active) {
        if (curCycle > insertMode.deadline) {
            exitInsertModeAbandon();
        } else {
            ci_idx = windowIndex(insertMode.targetUid);
            panic_if(ci_idx < 0, "insert mode without CI trace");
        }
    }

    // Validate queued events, dropping stale ones in place (order kept,
    // nothing allocated), and pick the oldest processable one.
    int best = -1;
    int64_t best_key = 0;
    size_t kept = 0;
    for (const MispEvent &ev : events) {
        InFlightTrace *t = find(ev.uid);
        if (!t || ev.slot >= static_cast<int>(t->slots.size()))
            continue;
        const DynSlot &d = t->slots[ev.slot];
        int idx = windowIndex(ev.uid);
        bool valid;
        if (ev.indirect) {
            valid = isIndirect(d.inst.op) && d.completed && idx >= 0 &&
                idx + 1 < static_cast<int>(window.size()) &&
                entryAt(idx + 1).trace->id.startPc != d.brTarget;
        } else {
            valid = d.isCondBr && d.completed &&
                d.resolvedTaken != d.predTaken;
        }
        if (!valid)
            continue;
        bool deferred = ci_idx >= 0 && idx >= ci_idx;
        // Slots are < maxSlotsPerTrace, so this orders by (trace, slot).
        int64_t key = idx * int64_t(maxSlotsPerTrace) + ev.slot;
        if (!deferred && (best < 0 || key < best_key)) {
            best = static_cast<int>(kept);
            best_key = key;
        }
        events[kept++] = ev;
    }
    events.resize(kept);
    if (best < 0)
        return;

    MispEvent ev = events[best];
    events.erase(events.begin() + best);

    InFlightTrace &t = *find(ev.uid);
    ++stats.mispEvents;
    if (ev.indirect) {
        ++stats.indirectMispEvents;
        recoverIndirect(t, ev.slot);
    } else {
        ++stats.condMispEvents;
        recoverCond(t, ev.slot);
    }
}

RenameMap
Processor::mapAfter(const InFlightTrace &t) const
{
    RenameMap m = t.mapBefore;
    for (const auto &lo : t.liveOuts)
        m[lo.arch] = lo.phys;
    return m;
}

PathHistory
Processor::historyUpTo(int idx) const
{
    panic_if(idx >= static_cast<int>(window.size()),
             "historyUpTo: bad index %d", idx);
    if (window.empty())
        return PathHistory();
    // idx == -1 legitimately yields "history before the oldest trace".
    PathHistory h = entryAt(0).histBefore;
    for (int i = 0; i <= idx; ++i)
        h.push(entryAt(i).trace->id);
    return h;
}

void
Processor::redirectAfterTrace(InFlightTrace &t, Cycle resume_at)
{
    int idx = windowIndex(t.uid);
    PathHistory h = historyUpTo(idx);
    const Trace &tr = *t.trace;

    lastDispatchedUid = t.uid;
    if (tr.end == TraceEnd::HALT) {
        // Wrong-path halts are cleaned up by older recoveries; fetch
        // simply stops until then.
        frontend.redirect(h, invalidAddr, invalidAddr, resume_at);
        dispatchExpectedPc = invalidAddr;
        return;
    }
    if (tr.fallthroughPc != invalidAddr) {
        frontend.redirect(h, tr.fallthroughPc, invalidAddr, resume_at);
        dispatchExpectedPc = tr.fallthroughPc;
        return;
    }

    // Trace ends in an indirect branch.
    const DynSlot &last = t.slots.back();
    if (last.completed) {
        frontend.redirect(h, last.brTarget, invalidAddr, resume_at);
        dispatchExpectedPc = last.brTarget;
    } else {
        frontend.redirect(h, invalidAddr, last.pc, resume_at);
        dispatchExpectedPc = invalidAddr;
    }
}

void
Processor::redispatchFrom(int start_idx, Cycle first_cycle)
{
    Cycle cyc = first_cycle;
    for (size_t i = static_cast<size_t>(start_idx); i < window.size();
         ++i) {
        InFlightTrace &t = entryAt(i);
        t.histBefore = historyUpTo(static_cast<int>(i) - 1);
        auto changed = redispatchInFlightTrace(t, map);
        for (int s : changed) {
            ++stats.reissueRedisp;
            reissueSlot(t, s, cyc);
        }
        ++stats.redispatchedTraces;
        ++cyc;
    }
    dispatchBusyUntil = std::max(dispatchBusyUntil, cyc);
}

int
Processor::findCgciTarget(int t_idx, const DynSlot &branch)
{
    if (cfg.cgci == CgciHeuristic::NONE)
        return -1;

    int n = static_cast<int>(window.size());

    // MLB: a mispredicted backward branch is assumed to be a loop
    // branch; the nearest trace starting at its not-taken target is the
    // likely re-convergent point (Section 4.2).
    if (cfg.cgci == CgciHeuristic::MLB_RET && branch.isCondBr &&
        isBackwardBranch(branch.inst, branch.pc)) {
        Addr fallthrough = branch.pc + 1;
        for (int i = t_idx + 1; i < n; ++i) {
            if (entryAt(i).trace->id.startPc == fallthrough)
                return i;
        }
        // Fall through to RET below.
    }

    // RET: the nearest trace ending in a return; its successor is
    // assumed control independent. The mispredicted trace itself only
    // qualifies if the repaired trace still ends in the same return,
    // which the caller checks (we use the pre-repair window here).
    for (int i = t_idx; i < n; ++i) {
        if (entryAt(i).trace->endsInReturn() &&
            i + 1 < n) {
            return i + 1;
        }
    }
    return -1;
}

void
Processor::recoverCond(InFlightTrace &t, int slot)
{
    DynSlot &branch = t.slots[slot];
    bool corrected = branch.resolvedTaken;
    bool covered = cfg.fgci && branch.inRegion;

    // Only one unspliced CGCI gap can be outstanding: a new coarse
    // recovery first abandons any insertion still in flight (otherwise
    // the old gap would be orphaned inside the newly preserved region
    // with nothing left to splice or validate it).
    if (!covered && insertMode.active)
        exitInsertModeAbandon();

    int t_idx = windowIndex(t.uid);

    // Choose the CGCI re-convergent trace from the pre-repair window.
    int ci_idx = covered ? -1 : findCgciTarget(t_idx, branch);

    // 1. Repair the mispredicted trace in its outstanding trace buffer.
    auto rep = frontend.buildRepair(curCycle, *t.trace, slot, corrected,
                                    covered);

    if (covered) {
        // FGCI padding guarantees the repaired trace ends where the
        // original did, so subsequent traces are unaffected.
        panic_if(rep.trace->fallthroughPc != t.trace->fallthroughPc ||
                 rep.trace->end != t.trace->end,
                 "FGCI repair moved the trace boundary (pc %llu)",
                 static_cast<unsigned long long>(branch.pc));
    }

    // ARB cleanup for the suffix being replaced.
    for (size_t i = rep.prefixLen; i < t.slots.size(); ++i) {
        DynSlot &d = t.slots[i];
        if (d.isLoad())
            arb.loadRemove(t.uid, static_cast<int>(i));
        if (d.isStore() && d.performed)
            arb.storeUndo(t.uid, static_cast<int>(i));
    }

    // 2. Back the global rename maps up to this trace and re-rename.
    map = t.mapBefore;
    repairInFlightTrace(t, rep.trace, rep.prefixLen, map, prf, curCycle,
                        deferredFree);
    for (size_t i = rep.prefixLen; i < t.slots.size(); ++i)
        t.slots[i].earliestIssue = rep.readyAt;

    if (covered) {
        // 3a. Fine-grain recovery: the PE arrangement is unaffected;
        // re-dispatch subsequent traces to repair register dependences.
        ++stats.recoveriesFgci;
        stats.tracesPreserved += window.size() - t_idx - 1;
        redispatchFrom(t_idx + 1, rep.readyAt + 1);
        if (insertMode.active) {
            // The dispatch point is mid-window (between the inserted
            // control dependent traces and the CI trace); the re-dispatch
            // pass left the map at the window tail, so restore it to the
            // insertion point.
            map = find(insertMode.targetUid)->mapBefore;
        }
        releaseDeferredFrees();
        return;
    }

    if (ci_idx > t_idx) {
        // 3b. Coarse-grain recovery: squash the (assumed) incorrect
        // control dependent traces and insert the correct ones.
        ++stats.recoveriesCgci;
        InFlightTrace *ci = &entryAt(ci_idx);
        stats.tracesPreserved += window.size() - ci_idx;
        // Squash strictly between the mispredicted trace and the CI one.
        for (int i = ci_idx - 1; i > t_idx; --i)
            squashTrace(window[i]);
        insertMode.active = true;
        insertMode.targetUid = ci->uid;
        insertMode.deadline = curCycle + cfg.cgciReconvergeTimeout;
        redirectAfterTrace(t, rep.readyAt + 1);
        return;
    }

    // 3c. No control independence: squash everything after the branch.
    ++stats.recoveriesFull;
    squashAllAfter(t_idx);
    releaseDeferredFrees();
    redirectAfterTrace(t, rep.readyAt + 1);
}

void
Processor::recoverIndirect(InFlightTrace &t, int slot)
{
    // The trace itself is intact (indirects terminate traces); only the
    // trace-level sequencing after it was wrong. Squash and refetch from
    // the resolved target.
    int t_idx = windowIndex(t.uid);
    ++stats.recoveriesFull;
    squashAllAfter(t_idx);
    releaseDeferredFrees();
    map = mapAfter(t);
    redirectAfterTrace(t, curCycle + 1);
    (void)slot;
}

void
Processor::squashTrace(TraceUid uid)
{
    InFlightTrace *t = find(uid);
    panic_if(!t, "squashTrace: unknown trace");

    for (size_t i = 0; i < t->slots.size(); ++i) {
        DynSlot &d = t->slots[i];
        if (d.isLoad())
            arb.loadRemove(uid, static_cast<int>(i));
        if (d.isStore() && d.performed)
            arb.storeUndo(uid, static_cast<int>(i));
    }
    for (const auto &lo : t->liveOuts)
        deferredFree.push_back(lo.phys);

    stats.squashedInsts += t->slots.size();
    ++stats.squashedTraces;

    int pe = t->peId;
    int idx = static_cast<int>(t->logicalPos);
    freePes.push_back(pe);
    peUid[pe] = invalidTraceUid;
    t->trace.reset();
    t->uid = invalidTraceUid;
    window.erase(window.begin() + idx);
    windowPe.erase(windowPe.begin() + idx);
    refreshLogicalPositions();

    if (insertMode.active && insertMode.targetUid == uid)
        insertMode.active = false;
    if (lastDispatchedUid == uid)
        lastDispatchedUid = invalidTraceUid;
}

void
Processor::squashAllAfter(int idx)
{
    for (int i = static_cast<int>(window.size()) - 1; i > idx; --i)
        squashTrace(window[i]);
}

void
Processor::exitInsertModeAbandon()
{
    // Abandoning an insertion means the retained traces' data flow was
    // never repaired; they cannot be kept.
    ++stats.cgciAbandoned;
    int ci_idx = windowIndex(insertMode.targetUid);
    panic_if(ci_idx < 0, "abandon: CI trace missing");
    for (int i = static_cast<int>(window.size()) - 1; i >= ci_idx; --i)
        squashTrace(window[i]);
    insertMode.active = false;
    releaseDeferredFrees();
}

void
Processor::releaseDeferredFrees()
{
    if (insertMode.active)
        return;
    for (PhysReg r : deferredFree)
        prf.free(r);
    deferredFree.clear();
}

// ---------------------------------------------------------------------
// Dispatch (including CGCI insertion mode).
// ---------------------------------------------------------------------

void
Processor::phaseDispatch()
{
    if (curCycle < dispatchBusyUntil)
        return;
    if (!frontend.hasReady(curCycle))
        return;

    // Peek at the head of the outstanding trace buffers; it is consumed
    // only when actually dispatched or discarded as wrong-path.
    const TraceId id = frontend.peek().trace->id;

    if (insertMode.active) {
        InFlightTrace *ci = find(insertMode.targetUid);
        panic_if(!ci, "insert mode with missing CI trace");

        if (id == ci->trace->id &&
            (dispatchExpectedPc == invalidAddr ||
             id.startPc == dispatchExpectedPc)) {
            // Re-convergence detected: the next trace prediction matches
            // the first control independent trace (Section 2.1) *and*
            // the CI trace begins where the inserted control dependent
            // path actually leads (a prediction alone could splice a
            // wrong-path trace into the window).
            frontend.pop();
            ++stats.cgciReconverged;
            insertMode.active = false;
            int ci_idx = windowIndex(ci->uid);
            redispatchFrom(ci_idx, curCycle + 1);
            InFlightTrace &tail = entryAt(window.size() - 1);
            redirectAfterTrace(tail, curCycle + 1);
            releaseDeferredFrees();
            return;
        }

        if (id.startPc == ci->trace->id.startPc) {
            // Same start, different internal outcomes: the assumed CI
            // trace is itself wrong. Squash it and everything after and
            // continue as a normal (now tail) dispatch.
            exitInsertModeAbandon();
        }
    }

    // Wrong-path fetch check: the dispatched trace must begin where the
    // previous one leads. An unresolved indirect (dispatchExpectedPc ==
    // invalidAddr) dispatches speculatively on the trace predictor's
    // say-so; the indirect's resolution validates the successor and
    // triggers recovery on a mismatch.
    if (dispatchExpectedPc != invalidAddr &&
        id.startPc != dispatchExpectedPc) {
        frontend.pop();     // discard the wrong-path trace
        if (window.empty()) {
            PathHistory h;
            frontend.redirect(h, dispatchExpectedPc, invalidAddr,
                              curCycle + 1);
        } else if (insertMode.active) {
            // Fetch is between the repaired trace and the CI trace; the
            // expected pc tracks the last inserted trace.
            int ci_idx = windowIndex(insertMode.targetUid);
            if (ci_idx == 0) {
                // Everything before the CI trace has retired; resume
                // from the tracked continuation directly.
                frontend.redirect(historyUpTo(-1), dispatchExpectedPc,
                                  invalidAddr, curCycle + 1);
            } else {
                redirectAfterTrace(entryAt(ci_idx - 1), curCycle + 1);
            }
        } else {
            redirectAfterTrace(entryAt(window.size() - 1), curCycle + 1);
        }
        return;
    }

    if (freePes.empty()) {
        if (!insertMode.active)
            return;     // structural stall: wait for retirement
        // Reclaim a PE from the most speculative preserved trace; if
        // only the CI trace itself is left, the insertion degenerates
        // to a full squash.
        if (window.back() == insertMode.targetUid) {
            exitInsertModeAbandon();
        } else {
            squashTrace(window.back());
        }
        if (freePes.empty())
            return;
    }

    PendingTrace pt = frontend.pop();

    // Rename and (re)initialise the PE's pool entry in place — the slot
    // vector and live-out list keep their capacity across occupants.
    int pe = freePes.back();
    freePes.pop_back();

    InFlightTrace &t = pePool[pe];
    initInFlightTrace(t, nextUid++, pt.trace, map, prf);
    t.peId = pe;
    t.histBefore = pt.histBefore;
    t.fromPredictor = pt.fromPredictor;
    t.dispatchedAt = curCycle;
    for (auto &d : t.slots)
        d.earliestIssue = curCycle + 1;

    lastDispatchedUid = t.uid;

    // Continuation expectation for the next dispatch.
    const Trace &tr = *t.trace;
    if (tr.end == TraceEnd::HALT || tr.fallthroughPc == invalidAddr)
        dispatchExpectedPc = invalidAddr;
    else
        dispatchExpectedPc = tr.fallthroughPc;

    peUid[pe] = t.uid;
    if (insertMode.active) {
        int ci_idx = windowIndex(insertMode.targetUid);
        window.insert(window.begin() + ci_idx, t.uid);
        windowPe.insert(windowPe.begin() + ci_idx, pe);
    } else {
        window.push_back(t.uid);
        windowPe.push_back(pe);
    }
    refreshLogicalPositions();
    ++stats.dispatchedTraces;
}

// ---------------------------------------------------------------------
// Retirement.
// ---------------------------------------------------------------------

void
Processor::verifyRetiredSlot(const InFlightTrace &t, const DynSlot &d)
{
    StepResult g = golden->step();
    auto mismatch = [&](const char *what) {
        fprintf(stderr, "--- trace %llu (pe %d, pos %lld) ---\n",
                static_cast<unsigned long long>(t.uid), t.peId,
                static_cast<long long>(t.logicalPos));
        for (size_t i = 0; i < t.slots.size(); ++i) {
            const DynSlot &s = t.slots[i];
            fprintf(stderr,
                    "  [%2zu] %-28s dep=(%d,%d) src=(%u,%u) dest=%u "
                    "val=%lld addr=%llu ic=%u%s%s\n",
                    i, disassemble(s.pc, s.inst).c_str(), s.dep1, s.dep2,
                    s.src1, s.src2, s.dest,
                    static_cast<long long>(s.value),
                    static_cast<unsigned long long>(s.effAddr),
                    s.issueCount, s.completed ? " C" : "",
                    s.performed ? " P" : "");
        }
        panic("retire verify: %s mismatch at %s (uid %llu, golden pc "
              "%llu, golden val %lld, got %lld, golden addr %llu)",
              what, disassemble(d.pc, d.inst).c_str(),
              static_cast<unsigned long long>(t.uid),
              static_cast<unsigned long long>(g.pc),
              static_cast<long long>(g.destValue),
              static_cast<long long>(d.value),
              static_cast<unsigned long long>(g.memAddr));
    };

    if (g.pc != d.pc || !(g.inst == d.inst))
        mismatch("instruction");
    if (d.isCondBr && g.taken != d.resolvedTaken)
        mismatch("branch outcome");
    if (writesReg(d.inst) && g.destValue != d.value)
        mismatch("dest value");
    if ((d.isLoad() || d.isStore())) {
        if (g.memAddr != d.effAddr)
            mismatch("memory address");
        if (g.memValue != d.value)
            mismatch("memory value");
    }
    if (isIndirect(d.inst.op) && g.nextPc != d.brTarget)
        mismatch("indirect target");
}

void
Processor::phaseRetire()
{
    if (window.empty())
        return;
    InFlightTrace &t = entryAt(0);

    // A CGCI insertion in flight: the assumed-CI trace's data flow has
    // not been repaired yet (the trace re-dispatch sequence runs at
    // re-convergence), so it and everything after it must wait.
    if (insertMode.active && t.uid == insertMode.targetUid)
        return;

    for (const auto &d : t.slots) {
        if (!d.completed)
            return;
        if (d.isCondBr && d.resolvedTaken != d.predTaken)
            return;     // a misprediction event is pending
    }
    // The head trace may not retire while any of its live-out broadcasts
    // is still queued on the (possibly starved) global result buses:
    // releasing the PE would drop the request, and the destination
    // physical register would never become ready for consumers in later
    // traces — the starved-bus deadlock. The queue is FIFO and its front
    // entry is granted or discarded every cycle, so this wait is bounded
    // by the backlog depth, never the watchdog.
    for (const auto &req : busQueue) {
        if (req.uid == t.uid)
            return;
    }
    // Any live event against the head trace blocks retirement.
    for (const auto &ev : events) {
        if (ev.uid == t.uid)
            return;
    }
    // An unconfirmed indirect at the trace end: the successor must have
    // been validated (or no successor exists yet, in which case the
    // dispatchExpectedPc mechanism guards the next dispatch).
    if (t.trace->endsInIndirect() && window.size() > 1) {
        if (entryAt(1).trace->id.startPc != t.slots.back().brTarget)
            return;     // event is in flight
    }

    // Sequencing invariant: a retiring trace's statically known
    // continuation must match its successor. The only sanctioned
    // violation is the unspliced gap in front of a pending CGCI
    // insertion target.
    if (t.trace->fallthroughPc != invalidAddr && window.size() > 1 &&
        !(insertMode.active && window[1] == insertMode.targetUid)) {
        panic_if(entryAt(1).trace->id.startPc !=
                 t.trace->fallthroughPc,
                 "retire: successor does not continue the head trace "
                 "(head uid=%llu end=%s ft=%lld; succ uid=%llu start=%lld;"
                 " insert=%d target=%llu)",
                 static_cast<unsigned long long>(t.uid),
                 traceEndName(t.trace->end),
                 static_cast<long long>(t.trace->fallthroughPc),
                 static_cast<unsigned long long>(entryAt(1).uid),
                 static_cast<long long>(
                     entryAt(1).trace->id.startPc),
                 insertMode.active ? 1 : 0,
                 static_cast<unsigned long long>(insertMode.targetUid));
    }

    // Commit.
    bool halted = false;
    for (size_t i = 0; i < t.slots.size(); ++i) {
        const DynSlot &d = t.slots[i];
        if (golden)
            verifyRetiredSlot(t, d);
        if (d.isStore()) {
            arb.commitStore(t.uid, static_cast<int>(i), mem);
            dcache.storeCommit(d.effAddr);
        }
        if (d.isLoad())
            arb.loadRemove(t.uid, static_cast<int>(i));
        if (d.isCondBr) {
            ++stats.retiredCondBranches;
            frontend.branchPredictor().update(d.pc, d.resolvedTaken);
        }
        if (isIndirect(d.inst.op))
            frontend.branchPredictor().updateTarget(d.pc, d.brTarget);
        if (d.inst.op == Opcode::HALT)
            halted = true;
        ++stats.retiredInsts;
    }

    // Architectural register state: free superseded mappings.
    for (const auto &lo : t.liveOuts) {
        PhysReg old = retireMap[lo.arch];
        if (old != lo.phys)
            prf.free(old);
        retireMap[lo.arch] = lo.phys;
    }

    frontend.trainRetire(t.trace->id);

    ++stats.retiredTraces;
    stats.retiredTraceLenSum += t.slots.size();
    lastRetireCycle = curCycle;

    freePes.push_back(t.peId);
    TraceUid uid = t.uid;
    if (lastDispatchedUid == uid)
        lastDispatchedUid = invalidTraceUid;
    peUid[t.peId] = invalidTraceUid;
    t.trace.reset();
    t.uid = invalidTraceUid;
    window.erase(window.begin());
    windowPe.erase(windowPe.begin());
    refreshLogicalPositions();

    if (halted)
        simDone = true;
}

void
Processor::checkSlotMasks(const InFlightTrace &t, size_t pos) const
{
    const size_t n = t.slots.size();
    panic_if(n > maxSlotsPerTrace, "trace wider than the slot masks "
             "(pos %zu, %zu slots)", pos, n);
    uint64_t not_issued = 0, in_flight = 0, completed = 0, ready = 0;
    std::vector<uint64_t> consumers(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const DynSlot &d = t.slots[i];
        const uint64_t bit = slotBit(static_cast<int>(i));
        panic_if(d.completed && !d.issued,
                 "completed slot not issued (pos %zu, slot %zu)", pos, i);
        if (d.completed)
            completed |= bit;
        else if (d.issued)
            in_flight |= bit;
        else
            not_issued |= bit;

        // Renamed operands: a source is either an earlier in-trace
        // producer or a live-in register, exactly when it is read.
        uint64_t producers = 0;
        auto check_src = [&](bool reads, int dep, PhysReg src) {
            panic_if(dep >= static_cast<int>(i),
                     "producer not earlier (pos %zu, slot %zu)", pos, i);
            panic_if((reads && dep < 0) != (src != invalidPhysReg) ||
                         (!reads && dep >= 0),
                     "renamed source out of sync (pos %zu, slot %zu)",
                     pos, i);
            if (dep >= 0) {
                producers |= slotBit(dep);
                consumers[dep] |= bit;
            }
        };
        check_src(readsRs1(d.inst), d.dep1, d.src1);
        check_src(readsRs2(d.inst), d.dep2, d.src2);
        panic_if(d.producers != producers,
                 "producer mask out of sync (pos %zu, slot %zu)", pos, i);

        // Between cycles a parked slot still waits on a live-in with no
        // value, and parkSig covers that register.
        if (t.parkedMask & bit) {
            auto waits_on = [&](PhysReg r) {
                return r != invalidPhysReg && !prf.hasValue(r) &&
                    (t.parkSig & PhysRegFile::sigBit(r));
            };
            panic_if(d.issued || d.completed ||
                         !(waits_on(d.src1) || waits_on(d.src2)),
                     "parked slot can issue (pos %zu, slot %zu)", pos, i);
        }
    }
    for (size_t i = 0; i < n; ++i) {
        panic_if(t.slots[i].consumers != consumers[i],
                 "consumer mask out of sync (pos %zu, slot %zu)", pos, i);
        if ((t.slots[i].producers & ~completed) == 0)
            ready |= slotBit(static_cast<int>(i));
    }
    panic_if(not_issued != t.notIssuedMask ||
                 in_flight != t.inFlightMask ||
                 completed != t.completedMask,
             "slot masks out of sync with slot flags (pos %zu)", pos);
    panic_if(ready != t.localReadyMask,
             "local-ready mask out of sync (pos %zu)", pos);
}

void
Processor::checkInvariants() const
{
    panic_if(window.size() + freePes.size() !=
             static_cast<size_t>(cfg.numPEs),
             "PE accounting broken: %zu in window + %zu free != %d",
             window.size(), freePes.size(), cfg.numPEs);
    for (size_t i = 0; i < window.size(); ++i) {
        int pe = windowPe[i];
        panic_if(peUid[pe] != window[i],
                 "window entry without trace (pos %zu)", i);
        const InFlightTrace &t = pePool[pe];
        panic_if(t.uid != window[i], "pool uid out of sync");
        panic_if(t.logicalPos != static_cast<int64_t>(i),
                 "stale logical position");
        checkSlotMasks(t, i);
    }
}

} // namespace tproc
