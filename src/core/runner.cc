#include "core/runner.hh"

#include <ostream>

#include "common/hires_timer.hh"
#include "common/stats.hh"

namespace tproc
{

ProcessorStats
runModel(const Program &prog, std::string_view model, uint64_t max_insts,
         bool verify)
{
    ProcessorConfig cfg = ProcessorConfig::forModel(model);
    cfg.verifyRetirement = verify;
    return runConfig(prog, cfg, max_insts);
}

ProcessorStats
runConfig(const Program &prog, const ProcessorConfig &cfg,
          uint64_t max_insts, std::unique_ptr<ArchSource> golden,
          RunMetrics *metrics_out)
{
    auto simulate = PhaseTimers::global().scope("simulate");
    Processor p(prog, cfg, std::move(golden));
    ProcessorStats stats = p.run(max_insts);
    if (metrics_out)
        metrics_out->sched = p.schedWork();
    if (const IntervalSeries *series = p.metricsSeries()) {
        // The per-cycle split accumulates lock-free inside the
        // processor; fold it into the global registry once per run.
        const double compute = p.metricsComputeSeconds();
        const double cycle = p.metricsCycleSeconds();
        PhaseTimers::global().add("cycle_compute", compute);
        PhaseTimers::global().add("cycle_commit",
                                  cycle > compute ? cycle - compute
                                                  : 0.0);
        if (metrics_out) {
            metrics_out->series = *series;
            metrics_out->computeSeconds = compute;
            metrics_out->cycleSeconds = cycle;
        }
    }
    return stats;
}

std::string
statsSummaryLine(const ProcessorStats &s)
{
    return "ipc=" + fmtDouble(s.ipc(), 3) +
        " cycles=" + std::to_string(s.cycles) +
        " insts=" + std::to_string(s.retiredInsts) +
        " misp/1k=" + fmtDouble(s.traceMispPerKilo(), 2);
}

void
printStats(std::ostream &os, const std::string &title,
           const ProcessorStats &s)
{
    os << "=== " << title << " ===\n"
       << "  cycles              " << s.cycles << '\n'
       << "  retired insts       " << s.retiredInsts << '\n'
       << "  IPC                 " << fmtDouble(s.ipc(), 3) << '\n'
       << "  retired traces      " << s.retiredTraces << '\n'
       << "  avg trace length    " << fmtDouble(s.avgRetiredTraceLen(), 1)
       << '\n'
       << "  trace misp events   " << s.mispEvents << " ("
       << fmtDouble(s.traceMispPerKilo(), 2) << " /1k insts)\n"
       << "  recoveries fg/cg/fu " << s.recoveriesFgci << "/"
       << s.recoveriesCgci << "/" << s.recoveriesFull << '\n'
       << "  cgci reconv/aband   " << s.cgciReconverged << "/"
       << s.cgciAbandoned << '\n'
       << "  traces preserved    " << s.tracesPreserved << '\n'
       << "  reissued slots      " << s.reissuedSlots << '\n'
       << "  squashed insts      " << s.squashedInsts << '\n'
       << "  tcache miss         " << s.tcMisses << "/" << s.tcLookups
       << '\n'
       << "  trace preds         " << s.tracePredictions
       << " (fallback " << s.fallbackFetches << ")\n";
}

} // namespace tproc
