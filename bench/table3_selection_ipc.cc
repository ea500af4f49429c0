/**
 * @file
 * Table 3: IPC without control independence for the four trace selection
 * variants — base, base(ntb), base(fg), base(fg,ntb). The paper's
 * conclusion to reproduce: extra selection constraints tend to *hurt*
 * baseline performance slightly (shorter traces worsen trace prediction
 * and PE utilization), which is the cost control independence must
 * overcome.
 *
 * The 32-point (workload x selection-variant) matrix runs through the
 * parallel harness engine (--threads controls the fan-out; --json
 * archives per-point stats).
 */

#include <iostream>

#include "bench/common.hh"

using namespace tproc;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::printHeaderNote("TABLE 3: IPC without control independence");

    const std::vector<std::string> models = {
        "base", "base(ntb)", "base(fg)", "base(fg,ntb)",
    };
    auto matrix = bench::runMatrix(models);

    TextTable t;
    t.header({"benchmark", "base", "base(ntb)", "base(fg)",
              "base(fg,ntb)"});
    std::map<std::string, std::vector<double>> per_model;
    for (const auto &name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (const auto &m : models) {
            double ipc = matrix[name][m].ipc();
            per_model[m].push_back(ipc);
            row.push_back(fmtDouble(ipc, 2));
        }
        t.row(row);
    }
    std::vector<std::string> hm = {"Harmonic Mean"};
    for (const auto &m : models)
        hm.push_back(fmtDouble(harmonicMean(per_model[m]), 2));
    t.row(hm);
    t.print(std::cout);

    std::cout << "\nPaper (Table 3) harmonic means: base 4.26, base(ntb) "
                 "4.18, base(fg) 4.17, base(fg,ntb) 4.11\n"
                 "(shape: selection constraints alone cost a few percent "
                 "of baseline IPC).\n";
    return 0;
}
