/**
 * @file
 * Deterministic fault injection and typed execution failures.
 *
 * The cloud protocol ships hour-long gate programs to untrusted, failure-
 * prone machines; the serving runtime must survive a crashing gate
 * evaluation, a stalled worker, and a job that needs re-execution. This
 * module provides the three pieces the executors and the serving layer
 * share:
 *
 *  - FaultInjector: a seedable source of injected faults (gate-eval
 *    exceptions, worker stalls) whose decisions are a pure function of
 *    (seed, job, attempt, gate) — the same plan replays the same fault
 *    schedule regardless of thread interleaving, so fault-recovery tests
 *    and benchmarks are reproducible. Threaded through Executor,
 *    ServingExecutor, and backend::Execute behind a null-pointer check:
 *    a disabled injector costs one predictable branch per gate.
 *
 *  - GateExecutionError: the typed failure every executor throws when a
 *    gate evaluation raises (injected or real). Carries the gate ordinal,
 *    the attempt number, and whether the underlying fault was transient —
 *    the signal the retry machinery keys on.
 *
 *  - RetryPolicy: exponential backoff with deterministic jitter, consumed
 *    by ServingExecutor to transparently re-run jobs killed by transient
 *    faults (serving.h documents the degradation ladder).
 */
#ifndef PYTFHE_BACKEND_FAULT_H
#define PYTFHE_BACKEND_FAULT_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "backend/run_control.h"

namespace pytfhe::backend {

/**
 * The deterministic hash every fault decision in this module is built on:
 * a splitmix64 mix of (seed, key, site, salt). Exposed so other
 * deterministic failure models (the cluster simulator's worker-failure
 * model) draw from the same reproducible source.
 */
uint64_t FaultSiteHash(uint64_t seed, uint64_t key, uint64_t site,
                       uint64_t salt);

/** Maps a FaultSiteHash to a uniform double in [0, 1). */
double FaultHashUnit(uint64_t h);

/**
 * The exception a FaultInjector raises in place of a gate evaluation.
 * `permanent` faults fire on every attempt at the same site; transient
 * ones clear after FaultPlan::transient_clears_after attempts.
 */
class FaultInjectedError : public std::runtime_error {
  public:
    FaultInjectedError(const std::string& what, bool permanent)
        : std::runtime_error(what), permanent_(permanent) {}

    bool permanent() const { return permanent_; }

  private:
    bool permanent_;
};

/**
 * A gate evaluation threw (injected fault or a real evaluator exception).
 * The executors translate any exception escaping an Apply call into this
 * type: the failing job resolves with it while the worker pool stays
 * healthy. `transient()` is true only for injected transient faults —
 * the retry machinery re-runs those; real exceptions and permanent
 * injected faults fail the job immediately.
 */
class GateExecutionError : public std::runtime_error {
  public:
    GateExecutionError(uint64_t gate_ordinal, uint32_t attempt,
                       const std::string& cause, bool transient)
        : std::runtime_error("gate " + std::to_string(gate_ordinal) +
                             " failed (attempt " + std::to_string(attempt) +
                             "): " + cause),
          gate_ordinal_(gate_ordinal),
          attempt_(attempt),
          transient_(transient) {}

    /** 0-based index of the failing gate within the program's gate list. */
    uint64_t gate_ordinal() const { return gate_ordinal_; }
    /** 0-based execution attempt the failure occurred on. */
    uint32_t attempt() const { return attempt_; }
    /** True when re-execution can be expected to succeed. */
    bool transient() const { return transient_; }

  private:
    uint64_t gate_ordinal_;
    uint32_t attempt_;
    bool transient_;
};

/**
 * Rethrows the in-flight exception as a GateExecutionError, preserving an
 * already-typed error. Call from a catch block only.
 */
[[noreturn]] inline void RethrowAsGateError(uint64_t gate_ordinal,
                                            uint32_t attempt) {
    try {
        throw;
    } catch (const GateExecutionError&) {
        throw;
    } catch (const FaultInjectedError& e) {
        throw GateExecutionError(gate_ordinal, attempt, e.what(),
                                 /*transient=*/!e.permanent());
    } catch (const std::exception& e) {
        throw GateExecutionError(gate_ordinal, attempt, e.what(),
                                 /*transient=*/false);
    } catch (...) {
        throw GateExecutionError(gate_ordinal, attempt, "unknown exception",
                                 /*transient=*/false);
    }
}

/**
 * One deterministic fault schedule. All decisions hash (seed, job,
 * attempt, gate); two injectors built from equal plans inject identical
 * faults. Rates are probabilities in [0, 1] evaluated per gate site.
 */
struct FaultPlan {
    uint64_t seed = 1;

    /** Per-gate probability that evaluation throws FaultInjectedError. */
    double gate_fault_rate = 0.0;

    /**
     * Deterministic schedule: fault gate `fault_gate_ordinal` of every
     * nth job (job ids n-1, 2n-1, ...). 0 disables. Composes with
     * gate_fault_rate; handy for "exactly 25% of jobs fail" acceptance
     * runs.
     */
    uint32_t fault_every_nth_job = 0;

    /**
     * The gate the fault_every_nth_job schedule fires at (0-based gate
     * ordinal). Faulting a late gate makes the cost of a retry visible:
     * a job killed at gate 0 loses nothing to re-execution, one killed at
     * 3N/4 loses three quarters of its work — the scenario checkpointed
     * retry exists for.
     */
    uint64_t fault_gate_ordinal = 0;

    /**
     * Of the faulted sites, the fraction whose fault is permanent
     * (fires on every attempt). The rest are transient.
     */
    double permanent_fraction = 0.0;

    /**
     * Attempt number from which a transient site stops faulting: with the
     * default 1, a transient fault fires on attempt 0 only and the first
     * retry succeeds.
     */
    uint32_t transient_clears_after = 1;

    /** Per-gate probability of an injected stall (straggling worker). */
    double stall_rate = 0.0;
    /** Duration of one injected stall. */
    double stall_microseconds = 0.0;

    bool Enabled() const {
        return gate_fault_rate > 0.0 || fault_every_nth_job != 0 ||
               stall_rate > 0.0;
    }
};

/**
 * Executes a FaultPlan. Thread-safe; decisions are pure functions of the
 * plan and the (job, attempt, gate) site, counters are relaxed atomics.
 */
class FaultInjector {
  public:
    struct Counters {
        uint64_t transient_faults = 0;
        uint64_t permanent_faults = 0;
        uint64_t stalls = 0;
        uint64_t Total() const { return transient_faults + permanent_faults; }
    };

    explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

    /**
     * The per-gate hook: may sleep (injected stall) and/or throw
     * FaultInjectedError according to the plan. `gate_ordinal` is the
     * 0-based gate index within the program (stable across schedules and
     * thread interleavings, unlike evaluation order). A non-null
     * `control` makes injected stalls cooperative: the sleep runs in
     * <= 1 ms slices and stops early once the control reports an abort
     * (cancel raised or deadline passed), so an abandoned run is not
     * pinned down by its own injected stragglers. A non-null `interrupt`
     * is a second flag with the same effect on the sleep (the serving
     * scheduler's per-job abort hint); it never causes an error itself.
     */
    void OnGate(uint64_t job, uint32_t attempt, uint64_t gate_ordinal,
                const RunControl* control = nullptr,
                const std::atomic<bool>* interrupt = nullptr);

    /**
     * Pure decision: would this site fault at this attempt? Sets
     * *permanent when returning true. Exposed so tests and schedulers can
     * predict the schedule without triggering it.
     */
    bool WouldFault(uint64_t job, uint32_t attempt, uint64_t gate_ordinal,
                    bool* permanent) const;

    Counters counters() const {
        Counters c;
        c.transient_faults = transient_faults_.load(std::memory_order_relaxed);
        c.permanent_faults = permanent_faults_.load(std::memory_order_relaxed);
        c.stalls = stalls_.load(std::memory_order_relaxed);
        return c;
    }

    /** Fresh job id for anonymous (non-serving) runs. */
    uint64_t NextRunId() {
        return next_run_id_.fetch_add(1, std::memory_order_relaxed);
    }

    const FaultPlan& plan() const { return plan_; }

  private:
    const FaultPlan plan_;
    std::atomic<uint64_t> transient_faults_{0};
    std::atomic<uint64_t> permanent_faults_{0};
    std::atomic<uint64_t> stalls_{0};
    std::atomic<uint64_t> next_run_id_{0};
};

/**
 * The value the executors thread through a run: which injector (null =
 * disabled, zero work), the (job, attempt) identity of this execution,
 * and optionally the run's control token so injected stalls respect
 * cancellation and deadlines (the executors wire their own RunControl in
 * before the hot loop; callers constructing hooks by hand may leave it
 * null).
 */
struct FaultHook {
    FaultInjector* injector = nullptr;
    uint64_t job = 0;
    uint32_t attempt = 0;
    const RunControl* control = nullptr;

    void OnGate(uint64_t gate_ordinal) const {
        if (injector != nullptr)
            injector->OnGate(job, attempt, gate_ordinal, control);
    }
};

/**
 * Exponential backoff with deterministic jitter for re-running jobs
 * killed by transient faults. max_attempts == 1 disables retries.
 */
struct RetryPolicy {
    /** Total executions of a job, first attempt included. */
    uint32_t max_attempts = 1;
    /** Delay before the first retry (attempt 1). */
    double initial_backoff_seconds = 0.0;
    /** Backoff growth per further attempt. */
    double backoff_multiplier = 2.0;
    /**
     * Jitter as a fraction of the backoff, in [0, 1]: the delay is scaled
     * by a deterministic factor in [1 - jitter, 1 + jitter] hashed from
     * (job, attempt), de-synchronizing retry storms reproducibly.
     */
    double jitter = 0.0;

    /** Delay before executing `attempt` (>= 1) of `job`. */
    double BackoffSeconds(uint64_t job, uint32_t attempt) const;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_FAULT_H
