/**
 * @file
 * ServingExecutor fault tolerance: a throwing gate fails only its own
 * job, transient faults are retried (with backoff and the sequential
 * degradation ladder) until the job completes bit-exactly, permanent
 * faults resolve kFailed without hurting the pool, and OverloadedError
 * carries its machine-readable retry-after hint. Labeled `concurrency` +
 * `robustness`: run under -DPYTFHE_SANITIZE=thread.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "backend/fault.h"
#include "backend/serving.h"
#include "pasm/assembler.h"

namespace pytfhe::backend {
namespace {

using circuit::GateType;
using circuit::Netlist;
using circuit::NodeId;

std::shared_ptr<const pasm::Program> ChainProgram(int32_t length) {
    Netlist n;
    const NodeId a = n.AddInput();
    NodeId cur = a;
    for (int32_t i = 0; i < length; ++i)
        cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::make_shared<const pasm::Program>(std::move(*p));
}

std::shared_ptr<const pasm::Program> WideProgram(int32_t width) {
    Netlist n;
    std::vector<NodeId> gates;
    for (int32_t i = 0; i < width; ++i) {
        const NodeId a = n.AddInput();
        const NodeId b = n.AddInput();
        gates.push_back(n.AddGate(GateType::kAnd, a, b));
    }
    NodeId acc = gates[0];
    for (size_t i = 1; i < gates.size(); ++i)
        acc = n.AddGate(GateType::kXor, acc, gates[i]);
    n.AddOutput(acc);
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::make_shared<const pasm::Program>(std::move(*p));
}

std::vector<bool> RandomBits(uint64_t seed, size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<bool> bits(count);
    for (size_t i = 0; i < count; ++i) bits[i] = rng() & 1;
    return bits;
}

/** Apply spin-waits while `hold` is raised (for backpressure tests). */
struct HoldEvaluator {
    using Ciphertext = bool;
    std::atomic<bool>* hold = nullptr;

    bool Apply(GateType t, bool a, bool b) const {
        while (hold && hold->load())
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        return circuit::EvalGate(t, a, b);
    }
};

TEST(ServingFaults, ThrowingGateFailsOnlyItsJob) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 3;
    FaultPlan plan;
    plan.fault_every_nth_job = 2;  // Jobs 1, 3, 5, ... fault at gate 0.
    FaultInjector inj(plan);
    options.fault_injector = &inj;  // No retry: max_attempts defaults to 1.
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(24);
    const auto in0 = RandomBits(10, program->NumInputs());
    const auto in1 = RandomBits(11, program->NumInputs());
    const auto in2 = RandomBits(12, program->NumInputs());
    auto job0 = serving.Submit(program, eval, in0);
    auto job1 = serving.Submit(program, eval, in1);

    EXPECT_EQ(job0->Wait(), JobStatus::kDone);
    EXPECT_EQ(job1->Wait(), JobStatus::kFailed);
    EXPECT_EQ(job0->Outputs(), RunProgram(*program, eval, in0));
    EXPECT_THROW(job1->Outputs(), GateExecutionError);
    const auto error = job1->Error();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->gate_ordinal(), 0u);
    EXPECT_TRUE(error->transient());

    // The pool keeps serving: job seq 2 is clean and completes.
    auto job2 = serving.Submit(program, eval, in2);
    EXPECT_EQ(job2->Wait(), JobStatus::kDone);
    EXPECT_EQ(job2->Outputs(), RunProgram(*program, eval, in2));

    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_failed, 1u);
    EXPECT_EQ(stats.jobs_completed, 2u);
    EXPECT_EQ(stats.job_retries, 0u);
    const JobMetrics failed = job1->Metrics();
    EXPECT_EQ(failed.attempts, 1u);
    EXPECT_EQ(failed.gate_failures, 1u);
    EXPECT_FALSE(failed.degraded_sequential);
}

// The ISSUE acceptance scenario: a fault plan injecting transient gate
// failures into 25% of jobs; with RetryPolicy enabled every job completes
// and outputs are bit-exact vs the fault-free run.
TEST(ServingFaults, TransientQuarterOfJobsAllRecoverBitExact) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    options.max_active_jobs = 4;
    FaultPlan plan;
    plan.fault_every_nth_job = 4;   // 25% of jobs fault...
    plan.transient_clears_after = 1; // ...transiently, on attempt 0 only.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(12);
    constexpr int kJobs = 16;
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < kJobs; ++i) {
        inputs.push_back(RandomBits(100 + i, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(jobs[i]->Wait(), JobStatus::kDone) << i;
        EXPECT_EQ(jobs[i]->Outputs(),
                  RunProgram(*program, eval, inputs[i]))
            << i;
        const JobMetrics m = jobs[i]->Metrics();
        if (i % 4 == 3) {
            EXPECT_GE(m.attempts, 2u) << i;
            EXPECT_GE(m.gate_failures, 1u) << i;
        } else {
            EXPECT_EQ(m.attempts, 1u) << i;
            EXPECT_EQ(m.gate_failures, 0u) << i;
        }
    }
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_completed, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(stats.jobs_failed, 0u);
    EXPECT_GE(stats.job_retries, static_cast<uint64_t>(kJobs / 4));
    EXPECT_GE(inj.counters().transient_faults,
              static_cast<uint64_t>(kJobs / 4));
}

TEST(ServingFaults, PermanentFaultExhaustsNoRetries) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan plan;
    plan.fault_every_nth_job = 2;
    plan.permanent_fraction = 1.0;  // Faulted sites never recover.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 5;  // Retries allowed but pointless.
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(12);
    const auto in0 = RandomBits(20, program->NumInputs());
    const auto in1 = RandomBits(21, program->NumInputs());
    auto job0 = serving.Submit(program, eval, in0);  // seq 0: clean.
    auto job1 = serving.Submit(program, eval, in1);  // seq 1: permanent.
    EXPECT_EQ(job0->Wait(), JobStatus::kDone);
    EXPECT_EQ(job1->Wait(), JobStatus::kFailed);
    // A permanent fault is non-transient: failed on the first attempt.
    EXPECT_EQ(job1->Metrics().attempts, 1u);
    ASSERT_TRUE(job1->Error().has_value());
    EXPECT_FALSE(job1->Error()->transient());
    EXPECT_EQ(serving.stats().job_retries, 0u);

    // The pool survives: the next clean job is bit-exact.
    const auto in2 = RandomBits(22, program->NumInputs());
    auto job2 = serving.Submit(program, eval, in2);
    EXPECT_EQ(job2->Wait(), JobStatus::kDone);
    EXPECT_EQ(job2->Outputs(), RunProgram(*program, eval, in2));
}

TEST(ServingFaults, DegradationLadderRunsFinalAttemptSequentially) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 3;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;    // Every job faults at gate 0...
    plan.transient_clears_after = 2; // ...on attempts 0 and 1.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(16);
    const auto inputs = RandomBits(30, program->NumInputs());
    auto job = serving.Submit(program, eval, inputs);
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_EQ(job->Outputs(), RunProgram(*program, eval, inputs));

    const JobMetrics m = job->Metrics();
    EXPECT_EQ(m.attempts, 3u);
    EXPECT_EQ(m.gate_failures, 2u);
    EXPECT_TRUE(m.degraded_sequential);
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.job_retries, 2u);
    EXPECT_EQ(stats.jobs_degraded, 1u);
    EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(ServingFaults, RetryBackoffDelaysReadmission) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    options.retry.initial_backoff_seconds = 0.05;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(8);
    const auto inputs = RandomBits(40, program->NumInputs());
    const auto start = std::chrono::steady_clock::now();
    auto job = serving.Submit(program, eval, inputs);
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    // One retry with a 50 ms backoff: the wall clock must show the wait.
    EXPECT_GE(wall, 0.05);
    EXPECT_EQ(job->Outputs(), RunProgram(*program, eval, inputs));
    EXPECT_EQ(job->Metrics().attempts, 2u);
}

TEST(ServingFaults, OverloadedErrorCarriesRetryAfterHint) {
    std::atomic<bool> hold{true};
    HoldEvaluator eval;
    eval.hold = &hold;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    options.max_active_jobs = 1;
    options.max_pending_jobs = 2;
    ServingExecutor<HoldEvaluator> serving(executor, options);

    const auto program = ChainProgram(4);
    const auto inputs = RandomBits(50, program->NumInputs());
    auto job0 = serving.Submit(program, eval, inputs);  // Active, held.
    auto job1 = serving.Submit(program, eval, inputs);  // Queued.
    try {
        serving.Submit(program, eval, inputs);
        FAIL() << "expected OverloadedError";
    } catch (const OverloadedError& e) {
        EXPECT_EQ(e.queue_depth(), 2u);
        // No completed jobs yet: no drain history to estimate from.
        EXPECT_DOUBLE_EQ(e.estimated_drain_seconds(), 0.0);
        EXPECT_NE(std::string(e.what()).find("retry later"),
                  std::string::npos);
    }
    hold.store(false);
    EXPECT_EQ(job0->Wait(), JobStatus::kDone);
    EXPECT_EQ(job1->Wait(), JobStatus::kDone);

    // With drain history and a rebuilt backlog, the hint is positive.
    hold.store(true);
    auto job2 = serving.Submit(program, eval, inputs);
    auto job3 = serving.Submit(program, eval, inputs);
    try {
        serving.Submit(program, eval, inputs);
        FAIL() << "expected OverloadedError";
    } catch (const OverloadedError& e) {
        EXPECT_EQ(e.queue_depth(), 2u);
        EXPECT_GT(e.estimated_drain_seconds(), 0.0);
    }
    hold.store(false);
    EXPECT_EQ(job2->Wait(), JobStatus::kDone);
    EXPECT_EQ(job3->Wait(), JobStatus::kDone);
    EXPECT_EQ(serving.stats().jobs_rejected, 2u);
}

TEST(ServingFaults, InjectedStallsDoNotCorruptResults) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    FaultPlan plan;
    plan.stall_rate = 0.5;
    plan.stall_microseconds = 200.0;
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(10);
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < 6; ++i) {
        inputs.push_back(RandomBits(60 + i, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(jobs[i]->Wait(), JobStatus::kDone) << i;
        EXPECT_EQ(jobs[i]->Outputs(),
                  RunProgram(*program, eval, inputs[i]))
            << i;
    }
    EXPECT_GT(inj.counters().stalls, 0u);
    EXPECT_EQ(inj.counters().Total(), 0u);
}

TEST(ServingFaults, MixedFaultStormEveryJobResolves) {
    // Stress: random fault rate + stalls + retries across many jobs; every
    // job must terminate (kDone or kFailed), completed jobs bit-exact.
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    options.max_active_jobs = 4;
    options.max_pending_jobs = 64;
    FaultPlan plan;
    plan.seed = 99;
    plan.gate_fault_rate = 0.02;
    plan.permanent_fraction = 0.3;
    plan.stall_rate = 0.05;
    plan.stall_microseconds = 100.0;
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(8);
    constexpr int kJobs = 24;
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < kJobs; ++i) {
        inputs.push_back(RandomBits(200 + i, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    uint64_t done = 0, failed = 0;
    for (int i = 0; i < kJobs; ++i) {
        const JobStatus status = jobs[i]->Wait();
        if (status == JobStatus::kDone) {
            ++done;
            EXPECT_EQ(jobs[i]->Outputs(),
                      RunProgram(*program, eval, inputs[i]))
                << i;
        } else {
            ++failed;
            EXPECT_EQ(status, JobStatus::kFailed) << i;
        }
    }
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_completed, done);
    EXPECT_EQ(stats.jobs_failed, failed);
    EXPECT_EQ(done + failed, static_cast<uint64_t>(kJobs));
    EXPECT_GT(done, 0u);
}

// --------------------------------------------- checkpointed retry + resume

TEST(ServingCheckpoint, RetryResumesFromSnapshotBitExact) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;     // Every job faults...
    plan.fault_gate_ordinal = 24;     // ...late (3/4 of the chain)...
    plan.transient_clears_after = 1;  // ...transiently, attempt 0 only.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    options.checkpoint.every_n_levels = 1;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(32);
    constexpr int kJobs = 4;
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < kJobs; ++i) {
        inputs.push_back(RandomBits(300 + i, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(jobs[i]->Wait(), JobStatus::kDone) << i;
        EXPECT_EQ(jobs[i]->Outputs(),
                  RunProgram(*program, eval, inputs[i]))
            << i;
        const JobMetrics m = jobs[i]->Metrics();
        EXPECT_EQ(m.attempts, 2u) << i;
        EXPECT_GT(m.checkpoints_taken, 0u) << i;
        EXPECT_EQ(m.checkpoint_resumes, 1u) << i;
        // The fault fires at gate 24 of 32 with a snapshot every level:
        // the retry restores nearly the whole prefix instead of
        // re-executing it.
        EXPECT_GE(m.gates_resumed, 20u) << i;
        EXPECT_LE(m.gates_reexecuted, 4u) << i;
    }
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_completed, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(stats.checkpoint_resumes, static_cast<uint64_t>(kJobs));
    EXPECT_GT(stats.checkpoints_taken, 0u);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    EXPECT_GE(stats.gates_resumed, static_cast<uint64_t>(kJobs) * 20);
    EXPECT_EQ(stats.checkpoints_corrupt_discarded, 0u);
    // Without checkpoints those retries would have re-executed ~24 gates
    // per job; with them the waste is a sliver.
    EXPECT_LE(stats.gates_reexecuted, static_cast<uint64_t>(kJobs) * 4);
}

TEST(ServingCheckpoint, CheckpointingOffLeavesCountersZero) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    plan.fault_gate_ordinal = 12;
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;  // Checkpoint policy left disabled.
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(16);
    const auto inputs = RandomBits(310, program->NumInputs());
    auto job = serving.Submit(program, eval, inputs);
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_EQ(job->Outputs(), RunProgram(*program, eval, inputs));
    const JobMetrics m = job->Metrics();
    EXPECT_EQ(m.checkpoints_taken, 0u);
    EXPECT_EQ(m.checkpoint_resumes, 0u);
    EXPECT_EQ(m.gates_resumed, 0u);
    // The from-scratch retry re-executed the whole pre-fault prefix.
    EXPECT_GE(m.gates_reexecuted, 12u);
    EXPECT_EQ(serving.stats().checkpoints_taken, 0u);
}

TEST(ServingCheckpoint, PoisonJobIsQuarantinedWithTypedError) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    plan.fault_gate_ordinal = 6;
    plan.transient_clears_after = 100;  // Never clears within the budget.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 6;
    options.checkpoint.every_n_levels = 1;
    options.max_resume_failures = 2;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(8);
    const auto inputs = RandomBits(320, program->NumInputs());
    auto job = serving.Submit(program, eval, inputs);
    EXPECT_EQ(job->Wait(), JobStatus::kFailed);
    // Two checkpoint-resumed attempts failed at the same gate: the job is
    // poison and fails with the typed quarantine error well before the
    // retry budget (6 attempts) is spent.
    EXPECT_THROW(job->Outputs(), JobQuarantinedError);
    const JobMetrics m = job->Metrics();
    EXPECT_TRUE(m.quarantined);
    EXPECT_LT(m.attempts, 6u);
    EXPECT_GE(m.checkpoint_resumes, 2u);
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_quarantined, 1u);
    EXPECT_EQ(stats.jobs_failed, 1u);

    // The pool survives quarantine: a clean job still completes.
    FaultPlan clean_plan;
    (void)clean_plan;
    const auto inputs2 = RandomBits(321, program->NumInputs());
    // Job seq 1 also faults (every job does), but a fresh submit proves
    // the executor did not wedge; it quarantines identically.
    auto job2 = serving.Submit(program, eval, inputs2);
    EXPECT_EQ(job2->Wait(), JobStatus::kFailed);
    EXPECT_THROW(job2->Outputs(), JobQuarantinedError);
}

// ------------------------------------------------------------ stall watchdog

TEST(ServingWatchdog, StalledJobIsPreemptedAndCompletes) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    options.stall_timeout_seconds = 0.05;
    FaultPlan plan;
    plan.stall_rate = 1.0;              // Every gate stalls...
    plan.stall_microseconds = 250000.0; // ...for 250 ms (>> timeout).
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 2;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(3);
    const auto inputs = RandomBits(330, program->NumInputs());
    auto job = serving.Submit(program, eval, inputs);
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_EQ(job->Outputs(), RunProgram(*program, eval, inputs));
    const JobMetrics m = job->Metrics();
    // The watchdog flagged the first attempt as stalled, preempted it,
    // and the final attempt completed on the sequential path (which the
    // watchdog exempts — it cannot be preempted at a gate boundary).
    EXPECT_GE(m.stalls, 1u);
    EXPECT_EQ(m.attempts, 2u);
    EXPECT_TRUE(m.degraded_sequential);
    EXPECT_GE(serving.stats().jobs_stalled, 1u);
    EXPECT_GE(serving.stats().job_retries, 1u);
}

TEST(ServingWatchdog, HealthyJobsAreNeverFlagged) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    options.stall_timeout_seconds = 5.0;  // Far beyond any real gate.
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(10);
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < 8; ++i) {
        inputs.push_back(RandomBits(340 + i, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(jobs[i]->Wait(), JobStatus::kDone) << i;
        EXPECT_EQ(jobs[i]->Outputs(),
                  RunProgram(*program, eval, inputs[i]))
            << i;
        EXPECT_EQ(jobs[i]->Metrics().stalls, 0u) << i;
    }
    EXPECT_EQ(serving.stats().jobs_stalled, 0u);
}

// ----------------------------------------------- deadlines in retry backoff

TEST(ServingRetry, DeadlineFiresPromptlyWhileParkedInBackoff) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;  // Attempt 0 always faults at gate 0.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    // Backoff far longer than the deadline: the job sits parked in the
    // retry queue when its deadline passes. It must fail at the deadline,
    // not after the backoff drains.
    options.retry.initial_backoff_seconds = 30.0;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = ChainProgram(6);
    const auto inputs = RandomBits(350, program->NumInputs());
    ServingExecutor<PlainEvaluator>::SubmitOptions submit;
    submit.control.deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(150);
    const auto start = std::chrono::steady_clock::now();
    auto job = serving.Submit(program, eval, inputs, submit);
    EXPECT_EQ(job->Wait(), JobStatus::kDeadlineExceeded);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(wall, 5.0);  // Promptly — nowhere near the 30 s backoff.
    EXPECT_THROW(job->Outputs(), DeadlineExceededError);
    EXPECT_EQ(serving.stats().jobs_deadline_exceeded, 1u);
}

}  // namespace
}  // namespace pytfhe::backend
