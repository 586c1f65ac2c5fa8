/**
 * @file
 * backend::Execute — the single documented entry point for functional
 * program execution.
 *
 * Local execution has two disciplines. One thread without batching runs
 * the sequential reference interpreter (interpreter.h); everything else
 * runs the program as one job on the serving scheduler (serving.h), the
 * only concurrent engine. Algorithm 1's wave-barrier schedule is a cost
 * model for clusters and GPUs and lives in cluster_sim.h / gpu_sim.h.
 */
#ifndef PYTFHE_BACKEND_EXECUTE_H
#define PYTFHE_BACKEND_EXECUTE_H

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/checkpoint.h"
#include "backend/executor.h"
#include "backend/interpreter.h"
#include "backend/serving.h"

namespace pytfhe::backend {

/**
 * Options for one Execute call. `executor` optionally names a caller-owned
 * persistent Executor whose worker pool the run reuses (recommended for
 * repeated runs — a null executor makes a concurrent run spin up and tear
 * down a transient pool per call). `control` carries the cooperative
 * deadline/cancel token. `fault` optionally names a FaultInjector (fault.h)
 * plus the (job, attempt) identity of this execution; both engines honor
 * it identically, and a disengaged hook costs one branch per gate.
 */
struct ExecOptions {
    int32_t num_threads = 1;
    Executor* executor = nullptr;
    RunControl control;
    FaultHook fault;
    /**
     * Maximum simultaneously ready gates fused into one batched bootstrap
     * kernel call (evaluators opt in via ApplyBatch — others run the batch
     * gate-by-gate). 1 disables batching. batch_size > 1 routes even
     * single-threaded runs to the serving scheduler, since only its ready
     * set exposes batchable groups; outputs stay bit-identical to the
     * sequential path.
     */
    int32_t batch_size = 1;
    /**
     * Checkpoint/resume (checkpoint.h). With a non-null caller-owned
     * `checkpoint_store`, a run that finds a valid record there restores
     * the snapshot and executes only the gates past the cut — on either
     * engine; a corrupt or mismatched record is cleared, counted, and the
     * run re-executes from scratch. Capture (`checkpoint` policy) runs on
     * the sequential path, which owns an ordinal quiesce point by
     * construction; a concurrent run consumes a checkpoint but does not
     * take one. The store is left intact after a successful run; clearing
     * it is the caller's retry-loop decision.
     */
    CheckpointPolicy checkpoint;
    JobCheckpoint* checkpoint_store = nullptr;
    CheckpointRunStats* checkpoint_stats = nullptr;
};

/**
 * Executes `program` over `inputs` with `eval`. num_threads == 1 with
 * batch_size == 1 runs the sequential reference (RunProgram, or
 * RunProgramCheckpointed when a checkpoint store is given). Otherwise the
 * program runs as one job on a ServingExecutor over `options.executor` (or
 * a transient pool) with num_threads workers, the given batch size, a
 * per-job in-flight cap of num_threads × batch_size — so the lone job may
 * occupy every worker — and admission bounds of one; the call waits for
 * the job. Both engines produce bit-identical outputs.
 *
 * Throws std::invalid_argument on malformed arguments, CancelledError /
 * DeadlineExceededError on control aborts, and GateExecutionError when a
 * gate evaluation throws (the run fails cleanly; the pool stays reusable).
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> Execute(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const ExecOptions& options = {}) {
    using C = typename Evaluator::Ciphertext;
    detail::ValidateRunArgs(program, inputs.size(), options.num_threads);
    if (options.batch_size < 1)
        throw std::invalid_argument("Execute: batch_size must be >= 1, got " +
                                    std::to_string(options.batch_size));
    if (options.num_threads == 1 && options.batch_size == 1) {
        if (options.checkpoint_store != nullptr)
            return RunProgramCheckpointed(
                program, eval, inputs, options.checkpoint,
                options.checkpoint_store, options.control, options.fault,
                options.checkpoint_stats);
        return RunProgram(program, eval, inputs, options.control,
                          options.fault);
    }
    const std::optional<DecodedCheckpoint<C>> resume =
        DecodeStoredCheckpoint<C>(program, options.checkpoint_store,
                                  options.checkpoint_stats);

    ServingOptions engine;
    engine.num_workers = options.num_threads;
    engine.batch_size = options.batch_size;
    engine.per_job_inflight_cap =
        static_cast<uint32_t>(options.num_threads) *
        static_cast<uint32_t>(options.batch_size);
    engine.max_active_jobs = 1;
    engine.max_pending_jobs = 1;
    typename ServingExecutor<Evaluator>::SubmitOptions submit;
    submit.control = options.control;
    submit.fault = options.fault;
    submit.resume = resume ? &*resume : nullptr;

    std::optional<Executor> transient;
    Executor& pool =
        options.executor != nullptr ? *options.executor : transient.emplace();
    ServingExecutor<Evaluator> serving(pool, engine);
    // The job borrows the caller's program: the call outlives the job.
    const std::shared_ptr<const pasm::Program> borrowed(
        std::shared_ptr<const pasm::Program>(), &program);
    return serving.Submit(borrowed, eval, inputs, submit)->Outputs();
}

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_EXECUTE_H
