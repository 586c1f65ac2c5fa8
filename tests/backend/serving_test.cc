/**
 * @file
 * ServingExecutor tests: multi-job correctness against the sequential
 * interpreter, fairness under the per-job in-flight cap, cancellation
 * (queued and mid-run), deadlines, backpressure, and a randomized
 * multi-submitter stress test. Labeled `concurrency`: run under
 * -DPYTFHE_SANITIZE=thread to prove the scheduler race-free.
 */
#include "backend/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "pasm/assembler.h"

namespace pytfhe::backend {
namespace {

using circuit::GateType;
using circuit::Netlist;
using circuit::NodeId;

Netlist RandomNetlist(uint64_t seed, int32_t inputs, int32_t gates) {
    std::mt19937_64 rng(seed);
    Netlist n;
    std::vector<NodeId> pool;
    for (int32_t i = 0; i < inputs; ++i) pool.push_back(n.AddInput());
    for (int32_t i = 0; i < gates; ++i) {
        GateType t =
            static_cast<GateType>(rng() % circuit::kNumFrontendGateTypes);
        pool.push_back(n.AddGate(t, pool[rng() % pool.size()],
                                 pool[rng() % pool.size()]));
    }
    for (int i = 0; i < 4; ++i) n.AddOutput(pool[pool.size() - 1 - i]);
    return n;
}

std::shared_ptr<const pasm::Program> AssembleShared(const Netlist& n) {
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::make_shared<const pasm::Program>(std::move(*p));
}

/** A serial NAND chain: exactly one gate ready at any time. */
std::shared_ptr<const pasm::Program> ChainProgram(int32_t length) {
    Netlist n;
    NodeId a = n.AddInput();
    NodeId cur = a;
    for (int32_t i = 0; i < length; ++i)
        cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    return AssembleShared(n);
}

/** `width` independent AND gates: the whole program is ready at once. */
std::shared_ptr<const pasm::Program> WideProgram(int32_t width) {
    Netlist n;
    std::vector<NodeId> gates;
    for (int32_t i = 0; i < width; ++i) {
        NodeId a = n.AddInput();
        NodeId b = n.AddInput();
        gates.push_back(n.AddGate(GateType::kAnd, a, b));
    }
    NodeId acc = gates[0];
    for (size_t i = 1; i < gates.size(); ++i)
        acc = n.AddGate(GateType::kXor, acc, gates[i]);
    n.AddOutput(acc);
    return AssembleShared(n);
}

std::vector<bool> RandomBits(uint64_t seed, size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<bool> bits(count);
    for (size_t i = 0; i < count; ++i) bits[i] = rng() & 1;
    return bits;
}

/**
 * Plain semantics plus a hook: every Apply bumps a per-job gauge (and
 * global counters) and dwells long enough for overlap to be observable.
 */
struct GaugeEvaluator {
    using Ciphertext = bool;

    std::atomic<int32_t>* gauge = nullptr;        ///< This job's in-Apply.
    std::atomic<int32_t>* peak = nullptr;         ///< Max of `gauge` seen.
    std::atomic<int32_t>* other_gauge = nullptr;  ///< Another job's gauge.
    std::atomic<bool>* overlap = nullptr;  ///< Both jobs in Apply at once.
    std::atomic<uint64_t>* applied = nullptr;     ///< Total Apply calls.
    std::atomic<bool>* hold = nullptr;  ///< While true, Apply spin-waits.

    bool Apply(GateType t, bool a, bool b) const {
        if (applied) applied->fetch_add(1);
        if (gauge) {
            const int32_t cur = gauge->fetch_add(1) + 1;
            if (peak) {
                int32_t seen = peak->load();
                while (cur > seen && !peak->compare_exchange_weak(seen, cur)) {
                }
            }
            if (overlap && other_gauge && other_gauge->load() > 0)
                overlap->store(true);
        }
        if (hold) {
            while (hold->load())
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (gauge) gauge->fetch_sub(1);
        return circuit::EvalGate(t, a, b);
    }
};

TEST(Serving, SingleJobMatchesSequentialInterpreter) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 4;
    ServingExecutor<PlainEvaluator> serving(executor, opts);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const auto program = AssembleShared(RandomNetlist(seed, 8, 250));
        const auto in = RandomBits(seed * 31, 8);
        const auto want = RunProgram(*program, eval, in);
        auto job = serving.Submit(program, eval, in);
        ASSERT_EQ(job->Wait(), JobStatus::kDone) << seed;
        EXPECT_EQ(job->Outputs(), want) << seed;
        const JobMetrics m = job->Metrics();
        EXPECT_EQ(m.gates_executed, program->NumGates());
        EXPECT_EQ(m.gates_skipped, 0u);
        EXPECT_EQ(m.total_gates, program->NumGates());
        EXPECT_GE(m.wall_seconds, m.run_seconds);
    }
}

TEST(Serving, ManySubmittersManyJobsAllMatchSequential) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 4;
    opts.max_active_jobs = 6;
    ServingExecutor<PlainEvaluator> serving(executor, opts);

    std::vector<std::shared_ptr<const pasm::Program>> programs;
    for (uint64_t s = 0; s < 3; ++s)
        programs.push_back(AssembleShared(RandomNetlist(s + 40, 6, 180)));

    constexpr int kThreads = 4;
    constexpr int kJobsPerThread = 6;
    std::vector<std::thread> submitters;
    std::vector<std::string> failures(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int j = 0; j < kJobsPerThread; ++j) {
                const auto& program = programs[(t + j) % programs.size()];
                const auto in =
                    RandomBits(static_cast<uint64_t>(t) * 100 + j, 6);
                const auto want = RunProgram(*program, eval, in);
                auto job = serving.Submit(program, eval, in);
                if (job->Wait() != JobStatus::kDone ||
                    job->Outputs() != want) {
                    failures[t] = "job mismatch, thread " +
                                  std::to_string(t) + " job " +
                                  std::to_string(j);
                    return;
                }
            }
        });
    }
    for (auto& th : submitters) th.join();
    for (const auto& f : failures) EXPECT_EQ(f, "");

    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_submitted,
              static_cast<uint64_t>(kThreads * kJobsPerThread));
    EXPECT_EQ(stats.jobs_completed, stats.jobs_submitted);
    EXPECT_EQ(stats.jobs_cancelled, 0u);
    EXPECT_GE(stats.max_active_observed, 1u);
}

TEST(Serving, InflightCapBoundsOneJobAndJobsOverlap) {
    // Two wide jobs (every gate ready immediately) on 4 workers with a cap
    // of 2: neither job may ever have more than 2 gates in Apply, and with
    // both active the round-robin must interleave them.
    std::atomic<int32_t> gauge_a{0}, gauge_b{0}, peak_a{0}, peak_b{0};
    std::atomic<bool> overlap{false};
    GaugeEvaluator eval_a{&gauge_a, &peak_a, &gauge_b, &overlap,
                          nullptr, nullptr};
    GaugeEvaluator eval_b{&gauge_b, &peak_b, &gauge_a, &overlap,
                          nullptr, nullptr};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 4;
    opts.per_job_inflight_cap = 2;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    const auto program = WideProgram(64);
    const auto in = RandomBits(5, program->NumInputs());
    auto job_a = serving.Submit(program, eval_a, in);
    auto job_b = serving.Submit(program, eval_b, in);
    ASSERT_EQ(job_a->Wait(), JobStatus::kDone);
    ASSERT_EQ(job_b->Wait(), JobStatus::kDone);

    EXPECT_LE(peak_a.load(), 2);
    EXPECT_LE(peak_b.load(), 2);
    EXPECT_GE(peak_a.load(), 1);
    EXPECT_TRUE(overlap.load())
        << "two active wide jobs never ran concurrently";

    PlainEvaluator plain;
    EXPECT_EQ(job_a->Outputs(), RunProgram(*program, plain, in));
    EXPECT_EQ(job_a->Outputs(), job_b->Outputs());
}

TEST(Serving, CancelBeforeStartResolvesInstantly) {
    // One long-running job occupies the single active slot; the second job
    // sits queued, so its cancellation must not wait for the first.
    std::atomic<bool> hold{true};
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr, &applied, &hold};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    opts.max_active_jobs = 1;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    const auto chain = ChainProgram(64);
    auto blocker = serving.Submit(chain, eval, {true});
    while (applied.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));

    auto queued = serving.Submit(chain, eval, {true});
    EXPECT_EQ(queued->TryGet(), std::nullopt);
    EXPECT_TRUE(queued->Cancel());
    EXPECT_EQ(queued->TryGet(), JobStatus::kCancelled);
    EXPECT_THROW((void)queued->Outputs(), CancelledError);
    const JobMetrics m = queued->Metrics();
    EXPECT_EQ(m.gates_executed, 0u);
    EXPECT_FALSE(queued->Cancel()) << "already terminal";

    hold.store(false);
    EXPECT_EQ(blocker->Wait(), JobStatus::kDone);
}

TEST(Serving, CancelMidRunDrainsWithoutEvaluating) {
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr,
                        &applied, nullptr};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    const auto chain = ChainProgram(4000);
    auto job = serving.Submit(chain, eval, {true});
    while (applied.load() < 3)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_TRUE(job->Cancel());
    EXPECT_EQ(job->Wait(), JobStatus::kCancelled);
    EXPECT_THROW((void)job->Outputs(), CancelledError);

    const JobMetrics m = job->Metrics();
    EXPECT_GT(m.gates_executed, 0u);
    EXPECT_GT(m.gates_skipped, 0u) << "cancellation should skip the tail";
    EXPECT_EQ(m.gates_executed + m.gates_skipped, m.total_gates);
    EXPECT_LT(m.gates_executed, m.total_gates);
}

TEST(Serving, DeadlineAtAdmissionAndMidRun) {
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr,
                        &applied, nullptr};
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    ServingExecutor<GaugeEvaluator>::SubmitOptions expired;
    expired.control.deadline = std::chrono::steady_clock::now() -
                               std::chrono::milliseconds(1);
    auto dead_on_arrival = serving.Submit(ChainProgram(16), eval, {true},
                                          expired);
    EXPECT_EQ(dead_on_arrival->Wait(), JobStatus::kDeadlineExceeded);
    EXPECT_EQ(dead_on_arrival->Metrics().gates_executed, 0u);
    EXPECT_THROW((void)dead_on_arrival->Outputs(), DeadlineExceededError);

    // A 4000-gate serial chain at >= 200us per gate cannot finish within
    // 20ms; the deadline check at gate granularity must cut it off.
    ServingExecutor<GaugeEvaluator>::SubmitOptions tight;
    tight.control.deadline = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(20);
    auto slow = serving.Submit(ChainProgram(4000), eval, {true}, tight);
    EXPECT_EQ(slow->Wait(), JobStatus::kDeadlineExceeded);
    const JobMetrics m = slow->Metrics();
    EXPECT_LT(m.gates_executed, m.total_gates);
    EXPECT_GT(m.gates_skipped, 0u);

    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_deadline_exceeded, 2u);
}

TEST(Serving, BackpressureRejectsWithTypedError) {
    std::atomic<bool> hold{true};
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr, &applied, &hold};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    opts.max_active_jobs = 1;
    opts.max_pending_jobs = 2;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    const auto chain = ChainProgram(8);
    auto running = serving.Submit(chain, eval, {true});
    while (applied.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    auto queued = serving.Submit(chain, eval, {true});
    EXPECT_THROW((void)serving.Submit(chain, eval, {true}), OverloadedError);
    EXPECT_EQ(serving.stats().jobs_rejected, 1u);

    hold.store(false);
    EXPECT_EQ(running->Wait(), JobStatus::kDone);
    EXPECT_EQ(queued->Wait(), JobStatus::kDone);
    // Capacity freed: submission succeeds again.
    EXPECT_EQ(serving.Submit(chain, eval, {true})->Wait(), JobStatus::kDone);
}

TEST(Serving, ZeroGatePassThroughProgram) {
    Netlist n;
    NodeId a = n.AddInput();
    NodeId b = n.AddInput();
    n.AddOutput(b);
    n.AddOutput(a);
    const auto program = AssembleShared(n);
    ASSERT_EQ(program->NumGates(), 0u);

    PlainEvaluator eval;
    Executor executor;
    ServingExecutor<PlainEvaluator> serving(executor, ServingOptions{});
    auto job = serving.Submit(program, eval, {true, false});
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_EQ(job->Outputs(), RunProgram(*program, eval, {true, false}));
}

TEST(Serving, RejectsInvalidArgumentsAndSubmitAfterStop) {
    PlainEvaluator eval;
    Executor executor;
    EXPECT_THROW(
        (ServingExecutor<PlainEvaluator>(executor,
                                         ServingOptions{.num_workers = 0})),
        std::invalid_argument);

    ServingExecutor<PlainEvaluator> serving(executor, ServingOptions{});
    const auto chain = ChainProgram(4);
    EXPECT_THROW((void)serving.Submit(nullptr, eval, {true}),
                 std::invalid_argument);
    EXPECT_THROW((void)serving.Submit(chain, eval, {true, false}),
                 std::invalid_argument);
    serving.Stop();
    EXPECT_THROW((void)serving.Submit(chain, eval, {true}),
                 std::runtime_error);
}

TEST(Serving, StopCancelsOutstandingJobs) {
    std::atomic<bool> hold{true};
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr, &applied, &hold};
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    opts.max_active_jobs = 1;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);

    auto running = serving.Submit(ChainProgram(8), eval, {true});
    while (applied.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    auto queued = serving.Submit(ChainProgram(8), eval, {true});
    hold.store(false);  // Let the in-flight gate drain so Stop can join.
    serving.Stop();
    EXPECT_TRUE(IsTerminal(running->TryGet().value()));
    EXPECT_EQ(queued->TryGet(), JobStatus::kCancelled);
}

/**
 * Randomized stress: four submitter threads race jobs (some cancelled
 * immediately) against the scheduler. Every completed job must match the
 * sequential interpreter exactly. Run under TSan via `ctest -L
 * concurrency` in a -DPYTFHE_SANITIZE=thread build.
 */
TEST(Serving, StressRandomJobsWithCancellations) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 4;
    opts.max_active_jobs = 4;
    opts.max_pending_jobs = 256;
    opts.per_job_inflight_cap = 3;
    ServingExecutor<PlainEvaluator> serving(executor, opts);

    std::vector<std::shared_ptr<const pasm::Program>> programs;
    for (uint64_t s = 0; s < 4; ++s)
        programs.push_back(AssembleShared(RandomNetlist(s + 77, 7, 220)));

    constexpr int kThreads = 4;
    constexpr int kJobsPerThread = 10;
    std::atomic<int32_t> mismatches{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            std::mt19937_64 rng(900 + t);
            for (int j = 0; j < kJobsPerThread; ++j) {
                const auto& program = programs[rng() % programs.size()];
                const auto in = RandomBits(rng(), 7);
                auto job = serving.Submit(program, eval, in);
                if (j % 5 == 4) {
                    (void)job->Cancel();
                    if (!IsTerminal(job->Wait())) mismatches.fetch_add(1);
                    continue;
                }
                if (job->Wait() != JobStatus::kDone ||
                    job->Outputs() != RunProgram(*program, eval, in))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& th : submitters) th.join();
    EXPECT_EQ(mismatches.load(), 0);

    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.jobs_submitted,
              static_cast<uint64_t>(kThreads * kJobsPerThread));
    EXPECT_EQ(stats.jobs_completed + stats.jobs_cancelled,
              stats.jobs_submitted);
}

TEST(ServingTenant, PendingQuotaRejectsOnlyTheHoggingTenant) {
    std::atomic<bool> hold{true};
    std::atomic<uint64_t> applied{0};
    GaugeEvaluator eval{nullptr, nullptr, nullptr, nullptr, &applied, &hold};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    opts.max_active_jobs = 1;
    opts.max_pending_jobs = 64;
    opts.max_pending_jobs_per_tenant = 2;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);
    using SubmitOptions = ServingExecutor<GaugeEvaluator>::SubmitOptions;

    const auto chain = ChainProgram(8);
    SubmitOptions hog;
    hog.tenant = 1;
    auto running = serving.Submit(chain, eval, {true}, hog);
    while (applied.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    auto queued = serving.Submit(chain, eval, {true}, hog);
    // Tenant 1 is at its quota: a third job bounces with the same typed
    // retry-after error as global backpressure, counted separately.
    EXPECT_THROW((void)serving.Submit(chain, eval, {true}, hog),
                 OverloadedError);
    EXPECT_EQ(serving.stats().jobs_rejected_tenant_quota, 1u);
    EXPECT_EQ(serving.stats().jobs_rejected, 0u);

    // The service-wide queue has room: another tenant submits fine.
    SubmitOptions other;
    other.tenant = 2;
    auto bystander = serving.Submit(chain, eval, {true}, other);

    hold.store(false);
    EXPECT_EQ(running->Wait(), JobStatus::kDone);
    EXPECT_EQ(queued->Wait(), JobStatus::kDone);
    EXPECT_EQ(bystander->Wait(), JobStatus::kDone);
    // Quota slots freed: tenant 1 submits again.
    EXPECT_EQ(serving.Submit(chain, eval, {true}, hog)->Wait(),
              JobStatus::kDone);
}

TEST(ServingTenant, ActiveQuotaThrottlesTenantWithoutBlockingOthers) {
    std::atomic<bool> hold{true};
    std::atomic<uint64_t> applied_t1{0};
    std::atomic<uint64_t> applied_t2{0};
    GaugeEvaluator held{nullptr, nullptr, nullptr, nullptr, &applied_t1,
                        &hold};
    GaugeEvaluator free_run{nullptr, nullptr, nullptr, nullptr,
                            &applied_t2, nullptr};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    opts.max_active_jobs = 4;
    opts.max_active_jobs_per_tenant = 1;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);
    using SubmitOptions = ServingExecutor<GaugeEvaluator>::SubmitOptions;

    const auto chain = ChainProgram(8);
    SubmitOptions t1;
    t1.tenant = 1;
    auto first = serving.Submit(chain, held, {true}, t1);
    while (applied_t1.load() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    // Tenant 1's second job must wait in the queue (active quota 1)...
    auto second = serving.Submit(chain, held, {true}, t1);
    // ...but it does NOT block tenant 2's admission behind it: tenant 2
    // runs to completion while tenant 1's first job still holds its slot.
    SubmitOptions t2;
    t2.tenant = 2;
    auto bystander = serving.Submit(chain, free_run, {true}, t2);
    EXPECT_EQ(bystander->Wait(), JobStatus::kDone);
    EXPECT_FALSE(second->TryGet().has_value());

    hold.store(false);
    EXPECT_EQ(first->Wait(), JobStatus::kDone);
    EXPECT_EQ(second->Wait(), JobStatus::kDone);
}

TEST(ServingTenant, WeightScalesTheInflightCap) {
    std::atomic<int32_t> gauge{0};
    std::atomic<int32_t> peak{0};
    std::atomic<bool> hold{true};
    GaugeEvaluator eval{&gauge, &peak, nullptr, nullptr, nullptr, &hold};

    Executor executor;
    ServingOptions opts;
    opts.num_workers = 4;
    opts.per_job_inflight_cap = 1;
    ServingExecutor<GaugeEvaluator> serving(executor, opts);
    using SubmitOptions = ServingExecutor<GaugeEvaluator>::SubmitOptions;

    // Weight 2 doubles the per-job in-flight budget: two workers enter
    // Apply for the same job at once, impossible at weight 1 with cap 1.
    SubmitOptions heavy;
    heavy.weight = 2;
    auto job = serving.Submit(WideProgram(8), eval, 
                              std::vector<bool>(16, true), heavy);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (peak.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_GE(peak.load(), 2);
    hold.store(false);
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_LE(peak.load(), 2);  // Cap x weight, never more.
}

TEST(ServingTenant, PinIsHeldForTheJobLifetime) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 2;
    ServingExecutor<PlainEvaluator> serving(executor, opts);
    using SubmitOptions = ServingExecutor<PlainEvaluator>::SubmitOptions;

    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    SubmitOptions so;
    so.pin = std::move(token);
    auto job = serving.Submit(ChainProgram(4), eval, {true}, so);
    so.pin.reset();  // The job's copy is now the only owner.
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    // Terminal but the handle lives: the pin must still be held (a
    // serving registry relies on this to keep key material alive until
    // the last reference to the job is gone).
    EXPECT_FALSE(watch.expired());
    job.reset();
    // A worker may still hold its transient JobPtr copy for a moment
    // after Wait() returns; only the owning references must be gone.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!watch.expired() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace pytfhe::backend
