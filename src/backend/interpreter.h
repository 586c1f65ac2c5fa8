/**
 * @file
 * The sequential reference interpreter: run a PyTFHE binary against any
 * evaluator, one gate at a time in instruction order (indices are
 * topological by construction).
 *
 * RunProgram is the bit-exact reference every other configuration is
 * checked against; RunProgramCheckpointed adds checkpoint capture and
 * resume. Concurrent execution is the serving scheduler (serving.h), and
 * wall-clock models of Algorithm 1's wave-barrier discipline on clusters
 * and GPUs live in cluster_sim.h and gpu_sim.h.
 *
 * Prefer the dispatcher backend::Execute (execute.h) over calling these
 * entry points directly. Its ExecOptions select the engine:
 *   - num_threads == 1 and batch_size == 1
 *       -> RunProgram / RunProgramCheckpointed (this file): in-order
 *          interpretation, RunControl honored per gate.
 *   - otherwise
 *       -> one job on a ServingExecutor (serving.h) with num_threads
 *          workers: gates start the moment their inputs exist, up to
 *          batch_size ready gates share one kernel call, RunControl
 *          honored per gate. ExecOptions::executor reuses a caller-owned
 *          worker pool; otherwise a transient pool serves the call.
 */
#ifndef PYTFHE_BACKEND_INTERPRETER_H
#define PYTFHE_BACKEND_INTERPRETER_H

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/arena.h"
#include "backend/checkpoint.h"
#include "backend/evaluator.h"
#include "backend/fault.h"
#include "backend/run_control.h"
#include "pasm/memory_plan.h"
#include "pasm/program.h"

namespace pytfhe::backend {

namespace detail {

/**
 * Rejects malformed run requests. A plain assert would vanish in release
 * builds and let the interpreter silently read default-constructed
 * ciphertexts, so misuse throws instead.
 */
inline void ValidateRunArgs(const pasm::Program& program, size_t num_inputs,
                            int32_t num_threads) {
    if (num_inputs != program.NumInputs())
        throw std::invalid_argument(
            "RunProgram: program expects " +
            std::to_string(program.NumInputs()) + " inputs, got " +
            std::to_string(num_inputs));
    if (num_threads < 1)
        throw std::invalid_argument("RunProgram: num_threads must be >= 1, "
                                    "got " +
                                    std::to_string(num_threads));
}

}  // namespace detail

/**
 * Executes `program` on `inputs` (one ciphertext per input instruction).
 * Returns one ciphertext per output instruction. Throws
 * std::invalid_argument if inputs.size() != program.NumInputs();
 * CancelledError / DeadlineExceededError when `control` triggers mid-run;
 * GateExecutionError when a gate evaluation throws (including faults
 * injected by `fault` — a disengaged hook costs one branch per gate).
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> RunProgram(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const RunControl& control = {}, const FaultHook& fault = {}) {
    detail::ValidateRunArgs(program, inputs.size(), 1);
    const bool guarded = control.Engaged();

    const uint64_t first_gate = program.FirstGateIndex();
    const uint64_t end_gate = first_gate + program.NumGates();
    // In-order execution tolerates any memory plan (a value's slot is not
    // overwritten before its last in-order reader by plan validity).
    ValuePlane<Evaluator> plane;
    plane.Reset(program, inputs);
    // Injected stalls respect this run's cancel/deadline token.
    FaultHook hook = fault;
    if (hook.control == nullptr) hook.control = &control;
    typename detail::WorkerScratchOf<Evaluator>::type scratch{};
    for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
        if (guarded) {
            const RunControl::Abort abort = control.Check();
            if (abort != RunControl::Abort::kNone) RunControl::Raise(abort);
        }
        try {
            hook.OnGate(idx - first_gate);
            plane.Apply(eval, program, idx, scratch);
        } catch (...) {
            RethrowAsGateError(idx - first_gate, fault.attempt);
        }
    }
    return plane.Harvest(program);
}

/**
 * Checkpoint-aware sequential interpreter. Behaves like RunProgram, plus:
 *
 *  - If `store` holds a record, it is decoded (CRC + fingerprint
 *    verified); on success the run restores the snapshotted live set and
 *    skips every gate at or below the cut. A corrupt or mismatched
 *    record is cleared from the store, counted in
 *    `stats->corrupt_discarded`, and the run falls back to executing
 *    from gate zero — a bad checkpoint can cost time, never correctness.
 *  - When `policy` is enabled, a fresh ordinal-cut record is written
 *    into `store` at wave boundaries (all levels <= L complete) selected
 *    by the policy knobs. A fault that aborts the run (thrown
 *    GateExecutionError, cancel, deadline) leaves the last record in the
 *    store for the caller's retry.
 *
 * The checkpoint cadence is level-based even though the cut is ordinal:
 * a boundary is considered each time every gate of some wave level has
 * retired, which is when the live set is at its narrowest.
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> RunProgramCheckpointed(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const CheckpointPolicy& policy, JobCheckpoint* store,
    const RunControl& control = {}, const FaultHook& fault = {},
    CheckpointRunStats* stats = nullptr) {
    using C = typename Evaluator::Ciphertext;
    detail::ValidateRunArgs(program, inputs.size(), 1);
    if constexpr (!CiphertextCodec<C>::kSupported) {
        if (store != nullptr) store->Clear();
        return RunProgram(program, eval, inputs, control, fault);
    } else {
        const bool guarded = control.Engaged();
        const uint64_t first_gate = program.FirstGateIndex();
        const uint64_t end_gate = first_gate + program.NumGates();
        const bool capture = policy.Enabled() && store != nullptr;

        ValuePlane<Evaluator> plane;
        plane.Reset(program, inputs);

        const std::optional<DecodedCheckpoint<C>> resume =
            DecodeStoredCheckpoint<C>(program, store, stats);

        std::vector<uint64_t> level;
        std::vector<uint64_t> suffmin;  // Min level over instrs >= idx.
        pasm::ValueLiveness liveness;
        if (capture || (resume && resume->cut == CheckpointCut::kLevel))
            level = program.ValueLevels();
        if (capture) {
            liveness = pasm::ComputeValueLiveness(program);
            suffmin.assign(end_gate + 1, ~UINT64_C(0));
            for (uint64_t idx = end_gate; idx > first_gate; --idx)
                suffmin[idx - 1] = std::min(suffmin[idx], level[idx - 1]);
        }

        uint64_t done_count = 0;
        uint64_t last_ckpt_level = 0;
        if (resume) {
            RestoreCheckpoint(plane, *resume);
            done_count = resume->gates_completed;
            if (capture)
                last_ckpt_level =
                    resume->cut == CheckpointCut::kLevel
                        ? resume->boundary - 1
                        : suffmin[std::min(resume->boundary + 1,
                                           end_gate)] - 1;
        }
        auto is_done = [&](uint64_t idx) {
            if (!resume) return false;
            return resume->cut == CheckpointCut::kOrdinal
                       ? idx <= resume->boundary
                       : level[idx] < resume->boundary;
        };

        typename detail::WorkerScratchOf<Evaluator>::type scratch{};
        // Injected stalls respect this run's cancel/deadline token.
        FaultHook hook = fault;
        if (hook.control == nullptr) hook.control = &control;
        uint64_t gates_since_ckpt = 0;
        for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
            if (is_done(idx)) continue;
            if (guarded) {
                const RunControl::Abort abort = control.Check();
                if (abort != RunControl::Abort::kNone)
                    RunControl::Raise(abort);
            }
            try {
                hook.OnGate(idx - first_gate);
                plane.Apply(eval, program, idx, scratch);
            } catch (...) {
                RethrowAsGateError(idx - first_gate, fault.attempt);
            }
            ++done_count;
            ++gates_since_ckpt;
            // A checkpoint is worthwhile only strictly mid-run: after the
            // last gate the outputs are about to be harvested anyway.
            if (capture && idx + 1 < end_gate) {
                const uint64_t completed = suffmin[idx + 1] - 1;
                if (completed >= last_ckpt_level + policy.every_n_levels &&
                    gates_since_ckpt >= policy.min_gates_between) {
                    const std::vector<uint64_t> live =
                        pasm::LiveValuesAtOrdinalCut(liveness, idx);
                    std::string record = EncodeCheckpoint(
                        program, plane, live, CheckpointCut::kOrdinal, idx,
                        done_count);
                    if (policy.max_bytes == 0 ||
                        record.size() <= policy.max_bytes) {
                        store->gates_completed = done_count;
                        store->record = std::move(record);
                        last_ckpt_level = completed;
                        gates_since_ckpt = 0;
                        if (stats) {
                            ++stats->checkpoints_taken;
                            stats->checkpoint_bytes = store->record.size();
                        }
                    }
                }
            }
        }
        return plane.Harvest(program);
    }
}

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_INTERPRETER_H
