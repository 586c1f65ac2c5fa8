/**
 * @file
 * Fig. 10: PyTFHE distributed CPU vs single-threaded CPU on VIP-Bench.
 *
 * Every workload (18 VIP-Bench kernels + MNIST_S/M/L + Attention_S/L) is
 * compiled and executed through the Algorithm-1 cluster simulator on one
 * node (18 workers) and four nodes (72 workers). Rows are sorted by gate
 * count ascending, exactly like the figure. The dummy independent-program
 * throughput gives the ideal ceiling.
 *
 * Paper reference points: 17.4x of ideal 18 on one node and 60.5x of
 * ideal 72 on four nodes for the MNIST networks; small and serial
 * benchmarks (Hamming, Euler, NRSolver) scale poorly.
 */
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace pytfhe;

int main() {
    backend::ClusterConfig one_node;
    backend::ClusterConfig four_nodes;
    four_nodes.nodes = 4;

    struct Row {
        std::string name;
        uint64_t gates;
        uint64_t waves;
        double single;
        double s1, s4;
    };
    std::vector<Row> rows;

    const vip::BenchScale scale;
    for (const auto& w : vip::AllWorkloads(scale)) {
        const core::Compiled c = bench::CompileWorkload(w);
        Row r;
        r.name = w.name;
        r.gates = c.program.NumGates();
        const auto r1 = backend::SimulateCluster(c.program, one_node);
        const auto r4 = backend::SimulateCluster(c.program, four_nodes);
        r.waves = r1.waves;
        r.single = r1.single_core_seconds;
        r.s1 = r1.Speedup();
        r.s4 = r4.Speedup();
        rows.push_back(r);
        std::fflush(stdout);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.gates < b.gates; });

    std::printf("=== Fig. 10: distributed CPU speedup over single-threaded "
                "CPU (simulated cluster, Table II platform) ===\n");
    std::printf("ideal: 1 node = %.1fx, 4 nodes = %.1fx "
                "(dummy independent-gate throughput)\n\n",
                backend::IdealThroughput(one_node) *
                    one_node.cpu.bootstrap_gate_seconds,
                backend::IdealThroughput(four_nodes) *
                    four_nodes.cpu.bootstrap_gate_seconds);
    std::printf("%-16s %12s %8s %12s %10s %10s\n", "benchmark", "gates",
                "waves", "1-core (s)", "1 node", "4 nodes");
    bench::PrintRule(76);
    for (const auto& r : rows) {
        std::printf("%-16s %12llu %8llu %12.2f %9.1fx %9.1fx\n",
                    r.name.c_str(), static_cast<unsigned long long>(r.gates),
                    static_cast<unsigned long long>(r.waves), r.single, r.s1,
                    r.s4);
    }
    std::printf("\npaper: MNIST networks reach 17.4x (ideal 18) and 60.5x "
                "(ideal 72); serial kernels stay near 1x.\n");
    return 0;
}
