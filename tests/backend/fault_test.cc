/**
 * @file
 * Fault-injection layer tests: determinism of the FaultPlan schedule,
 * transient-vs-permanent semantics, RetryPolicy backoff arithmetic, and
 * the exception-safety contract of every Execute configuration — a
 * throwing gate fails the run with a typed GateExecutionError, worker
 * threads are joined, and the pool executes the next run bit-exactly.
 * Labeled `concurrency` + `robustness`: run under -DPYTFHE_SANITIZE=thread
 * to prove the failure paths race-free.
 */
#include "backend/fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>

#include "backend/execute.h"
#include "backend/executor.h"
#include "backend/interpreter.h"
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

/** Apply throws a plain runtime_error at one gate evaluation ordinal. */
struct ThrowingEvaluator {
    using Ciphertext = bool;
    mutable std::atomic<uint64_t> calls{0};
    uint64_t throw_at = ~UINT64_C(0);

    bool Apply(GateType t, bool a, bool b) const {
        if (calls.fetch_add(1) == throw_at)
            throw std::runtime_error("evaluator blew up");
        return circuit::EvalGate(t, a, b);
    }
};

/** Execute at `threads` × `batch` on `executor` with a fault hook. */
std::vector<bool> ExecuteAt(const pasm::Program& p, PlainEvaluator& eval,
                      const std::vector<bool>& in, int32_t threads,
                      int32_t batch, Executor& executor,
                      const FaultHook& fault = {}) {
    ExecOptions options;
    options.num_threads = threads;
    options.batch_size = batch;
    options.executor = &executor;
    options.fault = fault;
    return Execute(p, eval, in, options);
}

// ------------------------------------------------------------ the injector

TEST(FaultInjector, ScheduleIsDeterministic) {
    FaultPlan plan;
    plan.seed = 42;
    plan.gate_fault_rate = 0.2;
    plan.permanent_fraction = 0.3;
    const FaultInjector a(plan), b(plan);
    int32_t fired = 0;
    for (uint64_t job = 0; job < 20; ++job) {
        for (uint64_t gate = 0; gate < 50; ++gate) {
            bool pa = false, pb = false;
            const bool fa = a.WouldFault(job, 0, gate, &pa);
            const bool fb = b.WouldFault(job, 0, gate, &pb);
            EXPECT_EQ(fa, fb);
            if (fa) {
                ++fired;
                EXPECT_EQ(pa, pb);
            }
        }
    }
    // ~20% of 1000 sites; generous bounds, but never zero and never all.
    EXPECT_GT(fired, 100);
    EXPECT_LT(fired, 400);

    // A different seed draws a different schedule somewhere.
    plan.seed = 43;
    const FaultInjector c(plan);
    bool differs = false;
    for (uint64_t job = 0; job < 20 && !differs; ++job) {
        for (uint64_t gate = 0; gate < 50 && !differs; ++gate) {
            bool pa = false, pc = false;
            if (a.WouldFault(job, 0, gate, &pa) !=
                c.WouldFault(job, 0, gate, &pc))
                differs = true;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, TransientFaultsClearAfterConfiguredAttempt) {
    FaultPlan plan;
    plan.gate_fault_rate = 0.5;
    plan.permanent_fraction = 0.0;
    plan.transient_clears_after = 2;
    const FaultInjector inj(plan);
    bool found = false;
    for (uint64_t gate = 0; gate < 64; ++gate) {
        bool permanent = true;
        if (!inj.WouldFault(0, 0, gate, &permanent)) continue;
        found = true;
        EXPECT_FALSE(permanent);
        // Fires below the threshold, clears at and beyond it.
        bool p = false;
        EXPECT_TRUE(inj.WouldFault(0, 1, gate, &p));
        EXPECT_FALSE(inj.WouldFault(0, 2, gate, &p));
        EXPECT_FALSE(inj.WouldFault(0, 7, gate, &p));
    }
    EXPECT_TRUE(found);
}

TEST(FaultInjector, PermanentFaultsFireOnEveryAttempt) {
    FaultPlan plan;
    plan.gate_fault_rate = 0.5;
    plan.permanent_fraction = 1.0;
    const FaultInjector inj(plan);
    bool found = false;
    for (uint64_t gate = 0; gate < 64; ++gate) {
        bool permanent = false;
        if (!inj.WouldFault(3, 0, gate, &permanent)) continue;
        found = true;
        EXPECT_TRUE(permanent);
        for (uint32_t attempt : {1u, 2u, 9u}) {
            bool p = false;
            EXPECT_TRUE(inj.WouldFault(3, attempt, gate, &p));
            EXPECT_TRUE(p);
        }
    }
    EXPECT_TRUE(found);
}

TEST(FaultInjector, EveryNthJobScheduleHitsGateZero) {
    FaultPlan plan;
    plan.fault_every_nth_job = 4;
    const FaultInjector inj(plan);
    for (uint64_t job = 0; job < 16; ++job) {
        bool permanent = false;
        const bool fires = inj.WouldFault(job, 0, 0, &permanent);
        EXPECT_EQ(fires, job % 4 == 3) << job;
        // Only gate ordinal 0 participates in the every-nth schedule.
        EXPECT_FALSE(inj.WouldFault(job, 0, 1, &permanent));
    }
}

TEST(FaultInjector, OnGateThrowsAndCounts) {
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    FaultInjector inj(plan);
    EXPECT_THROW(inj.OnGate(0, 0, 0), FaultInjectedError);
    EXPECT_EQ(inj.counters().transient_faults, 1u);
    EXPECT_EQ(inj.counters().Total(), 1u);
    // Attempt 1: the transient fault has cleared.
    inj.OnGate(0, 1, 0);
    EXPECT_EQ(inj.counters().Total(), 1u);
}

TEST(FaultInjector, StallsSleepAndCount) {
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_microseconds = 50.0;
    FaultInjector inj(plan);
    inj.OnGate(0, 0, 0);
    inj.OnGate(0, 0, 1);
    EXPECT_EQ(inj.counters().stalls, 2u);
    EXPECT_EQ(inj.counters().Total(), 0u);
}

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffGrowsGeometrically) {
    RetryPolicy retry;
    retry.max_attempts = 4;
    retry.initial_backoff_seconds = 0.1;
    retry.backoff_multiplier = 2.0;
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(5, 1), 0.1);
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(5, 2), 0.2);
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(5, 3), 0.4);
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministic) {
    RetryPolicy retry;
    retry.initial_backoff_seconds = 1.0;
    retry.backoff_multiplier = 1.0;
    retry.jitter = 0.25;
    bool spread = false;
    for (uint64_t job = 0; job < 32; ++job) {
        const double d = retry.BackoffSeconds(job, 1);
        EXPECT_GE(d, 0.75);
        EXPECT_LE(d, 1.25);
        EXPECT_DOUBLE_EQ(d, retry.BackoffSeconds(job, 1));
        if (d != 1.0) spread = true;
    }
    EXPECT_TRUE(spread);
}

TEST(RetryPolicy, ZeroInitialBackoffMeansImmediateRetry) {
    RetryPolicy retry;
    retry.max_attempts = 3;
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(retry.BackoffSeconds(0, 2), 0.0);
}

// ----------------------------------------- executors under throwing gates

TEST(FaultPaths, SequentialInterpreterThrowsTypedError) {
    const auto program = ChainProgram(20);
    PlainEvaluator eval;
    const auto inputs = RandomBits(1, program->NumInputs());
    FaultPlan plan;
    plan.fault_every_nth_job = 1;  // Gate 0 of job 0 faults on attempt 0.
    FaultInjector inj(plan);
    try {
        RunProgram(*program, eval, inputs, {}, FaultHook{&inj, 0, 0});
        FAIL() << "expected GateExecutionError";
    } catch (const GateExecutionError& e) {
        EXPECT_EQ(e.gate_ordinal(), 0u);
        EXPECT_EQ(e.attempt(), 0u);
        EXPECT_TRUE(e.transient());
    }
    // Attempt 1 clears the transient fault and matches the fault-free run.
    const auto expected = RunProgram(*program, eval, inputs);
    EXPECT_EQ(RunProgram(*program, eval, inputs, {}, FaultHook{&inj, 0, 1}),
              expected);
}

TEST(FaultPaths, RealEvaluatorExceptionIsNonTransient) {
    const auto program = ChainProgram(10);
    ThrowingEvaluator eval;
    eval.throw_at = 4;
    const auto inputs = RandomBits(2, program->NumInputs());
    try {
        RunProgram(*program, eval, inputs);
        FAIL() << "expected GateExecutionError";
    } catch (const GateExecutionError& e) {
        EXPECT_EQ(e.gate_ordinal(), 4u);
        EXPECT_FALSE(e.transient());
        EXPECT_NE(std::string(e.what()).find("evaluator blew up"),
                  std::string::npos);
    }
}

TEST(FaultPaths, ExecutorFailsRunButPoolSurvives) {
    const auto program = WideProgram(32);
    PlainEvaluator eval;
    const auto inputs = RandomBits(3, program->NumInputs());
    const auto expected = RunProgram(*program, eval, inputs);

    FaultPlan plan;
    plan.gate_fault_rate = 0.2;
    FaultInjector inj(plan);
    Executor executor;
    for (int32_t batch : {1, 4}) {
        EXPECT_THROW(ExecuteAt(*program, eval, inputs, 4, batch, executor,
                         FaultHook{&inj, 0, 0}),
                     GateExecutionError)
            << "batch=" << batch;
        // The same pool executes the next (fault-free) runs bit-exactly.
        for (int round = 0; round < 3; ++round)
            EXPECT_EQ(ExecuteAt(*program, eval, inputs, 4, batch, executor),
                      expected);
    }
    EXPECT_GT(inj.counters().Total(), 0u);
}

TEST(FaultPaths, TransientPoolThrowsAndJoins) {
    // Without a caller-owned executor every concurrent run stands up and
    // joins its own pool; a faulted run must still join it cleanly.
    const auto program = WideProgram(16);
    PlainEvaluator eval;
    const auto inputs = RandomBits(4, program->NumInputs());
    FaultPlan plan;
    plan.gate_fault_rate = 0.3;
    FaultInjector inj(plan);
    ExecOptions options;
    options.num_threads = 4;
    options.fault = FaultHook{&inj, 0, 0};
    EXPECT_THROW(Execute(*program, eval, inputs, options),
                 GateExecutionError);
    // Fault-free rerun still works and matches the reference.
    options.fault = {};
    EXPECT_EQ(Execute(*program, eval, inputs, options),
              RunProgram(*program, eval, inputs));
}

TEST(FaultPaths, ExecuteForwardsFaultHookOnEveryPath) {
    const auto program = ChainProgram(8);
    PlainEvaluator eval;
    const auto inputs = RandomBits(5, program->NumInputs());
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    plan.transient_clears_after = 4;  // Still fires at caller attempt 3.
    FaultInjector inj(plan);
    for (int32_t threads : {1, 2, 4}) {
        for (int32_t batch : {1, 4}) {
            ExecOptions options;
            options.num_threads = threads;
            options.batch_size = batch;
            options.fault = FaultHook{&inj, inj.NextRunId(), 3};
            try {
                (void)Execute(*program, eval, inputs, options);
                FAIL() << "threads=" << threads << " batch=" << batch;
            } catch (const GateExecutionError& e) {
                // Same site and caller attempt identity on both engines.
                EXPECT_EQ(e.gate_ordinal(), 0u);
                EXPECT_EQ(e.attempt(), 3u);
            }
        }
    }
}

TEST(FaultPaths, ThrowingChainMidwayKeepsExecutorReusable) {
    const auto program = ChainProgram(30);
    ThrowingEvaluator eval;
    eval.throw_at = 17;
    const auto inputs = RandomBits(6, program->NumInputs());
    Executor executor;
    ExecOptions options;
    options.num_threads = 4;
    options.executor = &executor;
    EXPECT_THROW(Execute(*program, eval, inputs, options),
                 GateExecutionError);
    // Counter is past the trigger: subsequent runs evaluate normally.
    PlainEvaluator plain;
    for (int32_t batch : {1, 4})
        EXPECT_EQ(ExecuteAt(*program, plain, inputs, 4, batch, executor),
                  RunProgram(*program, plain, inputs));
}

// ------------------------------------------------- interruptible stalls

TEST(FaultInjector, InjectedStallShedsOnCancel) {
    // A 5-second injected stall must not pin down a cancelled run: the
    // cooperative sleep checks the run's control token every millisecond
    // and the run aborts with the typed cancel error almost immediately.
    const auto program = ChainProgram(4);
    const auto inputs = RandomBits(70, program->NumInputs());
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_microseconds = 5e6;
    FaultInjector inj(plan);

    std::atomic<bool> cancel{false};
    ExecOptions options;
    options.num_threads = 2;
    options.control.cancel = &cancel;
    options.fault.injector = &inj;

    PlainEvaluator eval;
    const auto start = std::chrono::steady_clock::now();
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cancel.store(true);
    });
    EXPECT_THROW(Execute(*program, eval, inputs, options), CancelledError);
    canceller.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(wall, 2.5);  // Sheds the 5 s sleep, does not serve it out.
    EXPECT_GT(inj.counters().stalls, 0u);
}

TEST(FaultInjector, InjectedStallShedsOnDeadline) {
    // Same contract on the sequential path with a deadline token, and on
    // the serving scheduler.
    const auto program = ChainProgram(4);
    const auto inputs = RandomBits(71, program->NumInputs());
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_microseconds = 5e6;
    FaultInjector inj(plan);

    PlainEvaluator eval;
    for (int32_t threads : {1, 2}) {
        ExecOptions options;
        options.num_threads = threads;
        options.control.deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(100);
        options.fault.injector = &inj;
        const auto start = std::chrono::steady_clock::now();
        EXPECT_THROW(Execute(*program, eval, inputs, options),
                     DeadlineExceededError)
            << "threads=" << threads;
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        EXPECT_LT(wall, 2.5) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace pytfhe::backend
