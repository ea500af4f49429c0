#include "harness/soak.hh"

#include <chrono>
#include <ostream>
#include <sstream>

#include "harness/oracle.hh"
#include "harness/sweep.hh"
#include "workloads/generator.hh"

namespace tproc::harness
{

SoakReport
runSoak(const SoakOptions &opts_)
{
    SoakOptions opts = opts_;
    if (opts.maxPoints == 0 && opts.maxSeconds == 0.0)
        opts.maxSeconds = 30.0;
    if (opts.scratchDir.empty())
        opts.scratchDir = opts.failureDir + ".store";

    // Fail on a bad mix up front, not at point 0 inside fault capture.
    parsePatternMix(opts.mix);

    SoakReport report;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    for (uint64_t i = 0;; ++i) {
        if (opts.maxPoints && i >= opts.maxPoints)
            break;
        if (opts.maxSeconds > 0.0 && elapsed() >= opts.maxSeconds)
            break;

        const std::string name = generatedName(opts.mix, i);
        const std::string model =
            opts.models[i % opts.models.size()];

        SweepPoint base;
        base.workload = name;
        base.model = model;
        base.seed = opts.seed;
        base.maxInsts = opts.insts;
        base.verify = true;
        base.index = i;

        SweepPoint replayPoint = base;
        replayPoint.traceDir = opts.scratchDir;
        const SweepResult live = SweepEngine::runPoint(base);
        const SweepResult replayed = SweepEngine::runPoint(replayPoint);
        ++report.points;

        const OracleVerdict verdict = judgeOracles(
            live, replayed,
            opts.injectFailureAt >= 0 &&
                static_cast<uint64_t>(opts.injectFailureAt) == i);
        if (verdict.ok()) {
            if (opts.log) {
                *opts.log << "soak [" << i << "] " << name << "/"
                          << model << ": ok ipc="
                          << (live.stats.cycles ? live.stats.ipc() : 0.0)
                          << "\n";
            }
            continue;
        }

        SoakFailure f;
        f.index = i;
        f.workload = name;
        f.model = model;
        f.seed = opts.seed;
        f.kind = verdict.kind;
        f.message = verdict.message;
        f.tracePath = captureFailure(opts.failureDir, name, opts.seed,
                                     base.scale, opts.insts, f.message);
        {
            std::ostringstream os;
            os << "tproc-sweep --workloads='" << name << "' --models='"
               << model << "' --seed=" << opts.seed
               << " --insts=" << opts.insts
               << " --trace-dir=" << opts.failureDir;
            f.repro = os.str();
        }
        if (opts.log) {
            *opts.log << "soak FAILURE [" << i << "] " << name << "/"
                      << model << " (seed " << opts.seed
                      << "): " << f.kind << ": " << f.message << "\n";
            if (!f.tracePath.empty())
                *opts.log << "  captured: " << f.tracePath << "\n";
            *opts.log << "  repro: " << f.repro << "\n";
        }
        report.failures.push_back(std::move(f));
    }

    report.wallSeconds = elapsed();
    return report;
}

} // namespace tproc::harness
