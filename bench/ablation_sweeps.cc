/**
 * @file
 * Ablation sweeps beyond the paper's tables: sensitivity of the control
 * independence gain to three design points — PE count (window size),
 * maximum trace length, and the CGCI re-convergence bound. Run on the
 * two most CI-sensitive workload analogs (docs/workloads.md says what
 * their branch profiles pin).
 *
 * All (configuration, baseline) pairs are enqueued as explicit-config
 * sweep points and fanned across the harness engine in one batch; the
 * tables are assembled from the results afterwards.
 */

#include <iostream>

#include "bench/common.hh"

using namespace tproc;

namespace
{

/** One ablation cell: a CI config and its matching baseline. */
struct Cell
{
    size_t ciIdx;
    size_t baseIdx;
};

struct PointSet
{
    std::vector<harness::SweepPoint> points;

    size_t
    add(const std::string &workload, const ProcessorConfig &cfg,
        const std::string &label)
    {
        harness::SweepPoint p;
        p.workload = workload;
        p.config = cfg;
        p.useConfig = true;
        p.seed = bench::options().seed;
        p.maxInsts = bench::options().insts / 2;
        p.labelOverride = workload + "/" + label;
        points.push_back(std::move(p));
        return points.size() - 1;
    }

    Cell
    addPair(const std::string &workload, ProcessorConfig ci,
            ProcessorConfig base, const std::string &label)
    {
        ci.verifyRetirement = base.verifyRetirement = false;
        Cell c;
        c.ciIdx = add(workload, ci, label + "(ci)");
        c.baseIdx = add(workload, base, label + "(base)");
        return c;
    }
};

double
gain(const std::vector<harness::SweepResult> &results, const Cell &c)
{
    return results[c.ciIdx].stats.ipc() / results[c.baseIdx].stats.ipc() -
        1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::printHeaderNote(
        "ABLATIONS: CI gain (FG+MLB-RET vs base) sensitivity");

    const std::vector<std::string> workloads = {"compress", "li"};

    // Enqueue every (CI, base) pair for all three sweeps up front so the
    // engine can run the whole batch in parallel.
    PointSet set;
    std::map<std::string, std::vector<Cell>> pe_cells, len_cells,
        bound_cells;
    for (const auto &name : workloads) {
        for (int pes : {4, 8, 16, 32}) {
            ProcessorConfig ci = ProcessorConfig::forModel("FG+MLB-RET");
            ProcessorConfig base = ProcessorConfig::forModel("base");
            ci.numPEs = base.numPEs = pes;
            pe_cells[name].push_back(
                set.addPair(name, ci, base, "pes=" + std::to_string(pes)));
        }
        for (int len : {8, 16, 32}) {
            ProcessorConfig ci = ProcessorConfig::forModel("FG+MLB-RET");
            ProcessorConfig base = ProcessorConfig::forModel("base");
            ci.selection.maxTraceLen = base.selection.maxTraceLen = len;
            ci.bit.maxTraceLen = base.bit.maxTraceLen = len;
            len_cells[name].push_back(
                set.addPair(name, ci, base, "len=" + std::to_string(len)));
        }
        for (uint64_t bound : {32u, 128u, 1024u}) {
            ProcessorConfig ci = ProcessorConfig::forModel("FG+MLB-RET");
            ProcessorConfig base = ProcessorConfig::forModel("base");
            ci.cgciReconvergeTimeout = bound;
            bound_cells[name].push_back(set.addPair(
                name, ci, base, "bound=" + std::to_string(bound)));
        }
    }

    auto results = bench::runSweep(set.points);

    for (const auto &name : workloads) {
        std::cout << "--- " << name << " ---\n";
        {
            TextTable t;
            t.header({"PEs", "4", "8", "16", "32"});
            std::vector<std::string> row = {"CI gain"};
            for (const Cell &c : pe_cells[name])
                row.push_back(fmtPct(gain(results, c), 1));
            t.row(row);
            t.print(std::cout);
        }
        {
            TextTable t;
            t.header({"max trace len", "8", "16", "32"});
            std::vector<std::string> row = {"CI gain"};
            for (const Cell &c : len_cells[name])
                row.push_back(fmtPct(gain(results, c), 1));
            t.row(row);
            t.print(std::cout);
        }
        {
            TextTable t;
            t.header({"reconv. bound (cycles)", "32", "128", "1024"});
            std::vector<std::string> row = {"CI gain"};
            for (const Cell &c : bound_cells[name])
                row.push_back(fmtPct(gain(results, c), 1));
            t.row(row);
            t.print(std::cout);
        }
        std::cout << '\n';
    }

    std::cout << "Expected shape: CI gains grow with window size (the "
                 "paper simulates 16 PEs\n\"in anticipation of future "
                 "large instruction windows\") and with trace length\n"
                 "(FGCI needs regions to fit); the re-convergence bound "
                 "matters little once\npast the typical insertion "
                 "length.\n";
    return 0;
}
