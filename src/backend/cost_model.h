/**
 * @file
 * Cost models for the simulated execution platforms.
 *
 * The paper evaluates on hardware this repository does not have: a 4-node
 * Ray cluster of 2x Xeon Gold 5215 servers (Table II) and NVIDIA RTX
 * A5000 / RTX 4090 GPUs running cuFHE kernels under CUDA Graphs
 * (Table III). The simulators in cluster_sim.h / gpu_sim.h execute the real
 * schedules of real compiled programs against the parameter sets below.
 *
 * Calibration: per-gate CPU cost defaults to the paper's Fig. 7 scale
 * (~15 ms per bootstrapped gate on one core) and can be overridden with a
 * locally measured value (bench_fig07 measures it). GPU parameters are
 * chosen so that the modeled platform reproduces the paper's *relative*
 * throughputs (Table IV: A5000 ~72x and 4090 ~146x a single CPU core;
 * cuFHE's per-gate discipline per Fig. 8). Absolute times are modeled
 * milliseconds, not measurements — EXPERIMENTS.md tracks paper-vs-model.
 */
#ifndef PYTFHE_BACKEND_COST_MODEL_H
#define PYTFHE_BACKEND_COST_MODEL_H

#include <cmath>
#include <cstdint>
#include <string>

namespace pytfhe::backend {

/** TFHE ciphertext size on the wire (Section IV-D: 2.46 KB). */
constexpr double kCiphertextBytes = 2460.0;

/** Cost of one gate on one CPU core. */
struct CpuCostModel {
    double bootstrap_gate_seconds = 0.015;  ///< Bootstrapped gate.
    /**
     * Non-bootstrapped gate: NOT/COPY and the elided linear gates
     * (LXOR/LXNOR/LNOT), all O(n) sample arithmetic — four orders of
     * magnitude below a bootstrap, which is the entire point of elision.
     */
    double linear_gate_seconds = 2e-6;

    /**
     * Measured batched-bootstrap throughput gains (bench_micro_tfhe's
     * `batched` block): speedup of per-gate time at batch 2/4/8 over the
     * scalar path. Defaults match the committed BENCH_micro_tfhe.json
     * sweep (AVX-512 host); override from a local bench run via
     * MeasureBatchSpeedups. A batch runs the scalar external-product
     * kernel once per lane, at full vector width for any B, so what
     * batching buys is the shared bootstrapping-key traffic: each key
     * block is read from memory once per batch and from L1 by the other
     * lanes. The gain grows with B and flattens once key streaming is
     * amortized.
     */
    double batch2_speedup = 1.31;
    double batch4_speedup = 1.66;
    double batch8_speedup = 1.83;

    /**
     * Per-gate cost of a bootstrapped gate evaluated inside a batch of
     * `b`: scalar cost scaled by the calibrated speedup, piecewise-linear
     * between the measured points, with the batch-8 gain held flat beyond
     * B = 8 (the kernel saturates once key streaming is amortized).
     * b <= 1 is exactly the scalar cost.
     */
    double BatchedGateSeconds(int32_t b) const {
        if (b <= 1) return bootstrap_gate_seconds;
        auto lerp = [](double lo, double hi, double t) {
            return lo + (hi - lo) * t;
        };
        double speedup;
        if (b >= 8) {
            speedup = batch8_speedup;
        } else if (b >= 4) {
            speedup = lerp(batch4_speedup, batch8_speedup, (b - 4) / 4.0);
        } else {
            speedup = lerp(batch2_speedup, batch4_speedup, (b - 2) / 2.0);
        }
        if (speedup < 1.0) speedup = 1.0;
        return bootstrap_gate_seconds / speedup;
    }
};

/** The distributed CPU platform (Table II + Section IV-D). */
struct ClusterConfig {
    std::string name = "xeon-cluster";
    int32_t nodes = 1;
    int32_t workers_per_node = 18;  ///< Ray actors per node (paper: ideal 18).
    CpuCostModel cpu;

    /** Driver-side serial cost to submit one Ray task. */
    double submit_seconds = 100e-6;
    /** Wave barrier cost within one node. */
    double barrier_local_seconds = 2e-3;
    /** Additional wave barrier cost once tasks span nodes. */
    double barrier_remote_seconds = 8e-3;
    /** NIC bandwidth in bytes/second (Table II: gigabit NIC). */
    double net_bandwidth = 125e6;
    /** Ciphertexts moved per remote task (result ship-back; inputs are
     *  pipelined with compute, matching the 0.094 % share of Fig. 7). */
    double ciphertexts_per_task = 1.0;
    /**
     * Bootstrapped gates fused into one worker task via the batched
     * bootstrap (bootstrap_batch.h). Each task costs
     * `batch_size * cpu.BatchedGateSeconds(batch_size)` and one submit /
     * ship-back, so batching amortizes both the FFT-domain key streaming
     * and the driver-side submission cost. 1 reproduces the unbatched
     * model exactly.
     */
    int32_t batch_size = 1;

    int32_t TotalWorkers() const { return nodes * workers_per_node; }
};

/**
 * Worker failure and straggler model for the cluster simulator. A Ray
 * task on a failure-prone node may die mid-bootstrap (the driver detects
 * the loss after `detect_seconds` and re-executes, losing the partial
 * work) or land on a straggling worker (the task runs
 * `straggler_slowdown` times slower). Decisions are deterministic hashes
 * of (seed, wave, task, attempt) — the same model replays the same
 * failure schedule, like backend::FaultInjector.
 */
struct ClusterFaultModel {
    uint64_t seed = 1;
    /** Per-task-attempt probability the task dies before completing. */
    double task_failure_rate = 0.0;
    /** Driver-side delay to detect a lost task and resubmit it. */
    double detect_seconds = 0.5;
    /** Per-task probability of landing on a straggling worker. */
    double straggler_rate = 0.0;
    /** Execution-time multiplier for a straggling task. */
    double straggler_slowdown = 4.0;
    /**
     * Re-execution budget per task. After this many failed attempts the
     * next attempt always completes — the simulator models a driver that
     * reschedules onto a healthy worker rather than an unbounded loop.
     */
    int32_t max_reexecutions = 3;

    /**
     * Checkpoint interval in task-seconds: a failed attempt loses only
     * the work past its last multiple of this interval instead of the
     * whole attempt. 0 disables checkpointing (a failure restarts the
     * task from zero — the pre-checkpoint behavior, bit-exactly).
     */
    double checkpoint_interval_seconds = 0.0;
    /** Cost of writing one checkpoint (added per interval crossed). */
    double checkpoint_write_seconds = 0.0;

    bool Enabled() const {
        return task_failure_rate > 0.0 || straggler_rate > 0.0;
    }

    /**
     * Young/Daly optimal checkpoint interval for a task of
     * `task_seconds`: tau = sqrt(2 * C * MTBF) with C the checkpoint
     * write cost and MTBF the mean time between failures, here
     * task_seconds / task_failure_rate (one failure opportunity per
     * attempt). Returns 0 — checkpointing cannot pay off — when the
     * failure rate or the write cost is zero.
     */
    double OptimalCheckpointIntervalSeconds(double task_seconds) const {
        if (task_failure_rate <= 0.0 || checkpoint_write_seconds <= 0.0 ||
            task_seconds <= 0.0)
            return 0.0;
        return std::sqrt(2.0 * checkpoint_write_seconds *
                         (task_seconds / task_failure_rate));
    }
};

/** A GPU platform for the cuFHE / PyTFHE backend simulation. */
struct GpuConfig {
    std::string name;
    int32_t sms;                   ///< Streaming multiprocessors.
    int32_t sms_per_gate;          ///< SMs one bootstrap kernel occupies.
    double kernel_seconds;         ///< One bootstrapped gate kernel.
    double launch_seconds;         ///< Per-kernel-launch CPU cost (cuFHE).
    double transfer_sync_seconds;  ///< Per-transfer PCIe+sync latency.
    double pcie_bandwidth;         ///< Bytes/second.
    double graph_launch_seconds;   ///< Per CUDA-graph launch.
    double graph_build_per_gate;   ///< Host-side graph construction per gate.
    uint64_t batch_gates;          ///< Max sub-DAG batch size (GPU memory).
    /**
     * One elided linear gate (LXOR/LXNOR/LNOT) inside a CUDA graph: an
     * elementwise vector add over n+1 coefficients, bandwidth-bound and
     * ~1000x cheaper than a bootstrap kernel. Not subject to the
     * sms_per_gate occupancy limit.
     */
    double linear_kernel_seconds = 3e-6;

    /** Concurrent gate kernels the device sustains. */
    int32_t Concurrency() const { return sms / sms_per_gate; }
};

/** NVIDIA RTX A5000 24 GB (Table III). */
GpuConfig A5000();
/** NVIDIA RTX 4090 24 GB (Table III). */
GpuConfig Rtx4090();

/** Single-core runtime of a program under the CPU cost model. */
struct GateMix {
    uint64_t bootstrap_gates = 0;
    uint64_t linear_gates = 0;
};

inline double SingleCoreSeconds(const GateMix& mix, const CpuCostModel& cpu) {
    return mix.bootstrap_gates * cpu.bootstrap_gate_seconds +
           mix.linear_gates * cpu.linear_gate_seconds;
}


}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_COST_MODEL_H
