/**
 * @file
 * backend::Execute tests: every threads × batch configuration against the
 * sequential interpreter on plaintext and encrypted circuits, exact
 * profile accounting under concurrency, argument validation, run
 * control, worker-pool persistence across runs, and a lone job spreading
 * over several workers. Run under -DPYTFHE_SANITIZE=thread (ctest -L
 * concurrency) to prove race freedom.
 */
#include "backend/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "backend/execute.h"

#include "hdl/word_ops.h"
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
        GateType t = static_cast<GateType>(rng() % circuit::kNumFrontendGateTypes);
        pool.push_back(
            n.AddGate(t, pool[rng() % pool.size()], pool[rng() % pool.size()]));
    }
    for (int i = 0; i < 4; ++i) n.AddOutput(pool[pool.size() - 1 - i]);
    return n;
}

/** An 8-bit ripple-carry adder over two encrypted operands. */
pasm::Program AdderProgram() {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    auto p = pasm::Assemble(b.netlist());
    EXPECT_TRUE(p.has_value());
    return *p;
}

/** Execute at `threads` × `batch`, optionally on a persistent pool. */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> ExecuteAt(
    const pasm::Program& p, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& in, int32_t threads,
    int32_t batch = 1, Executor* executor = nullptr,
    const RunControl& control = {}) {
    ExecOptions options;
    options.num_threads = threads;
    options.batch_size = batch;
    options.executor = executor;
    options.control = control;
    return Execute(p, eval, in, options);
}

/** Bootstrapped (two-input) gates in a program; NOT/COPY are noiseless. */
uint64_t CountBootstrappedGates(const pasm::Program& p) {
    uint64_t n = 0;
    const uint64_t first = p.FirstGateIndex();
    for (uint64_t idx = first; idx < first + p.NumGates(); ++idx)
        if (p.GateAt(idx).type != GateType::kNot) ++n;
    return n;
}

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The name predates the removal of the wave-barrier interpreter; the
// property is now every Execute configuration against the reference.
TEST_P(ExecutorPropertyTest, MatchesSequentialAndWavePathOnPlainBits) {
    const Netlist n = RandomNetlist(GetParam() ^ 0xD06, 8, 300);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    Executor executor;
    std::mt19937_64 rng(GetParam());
    for (int32_t threads : {1, 2, 4}) {
        for (int32_t batch : {1, 4}) {
            std::vector<bool> in(8);
            for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
            const auto want = RunProgram(*p, eval, in);
            EXPECT_EQ(ExecuteAt(*p, eval, in, threads, batch), want)
                << "threads=" << threads << " batch=" << batch;
            EXPECT_EQ(ExecuteAt(*p, eval, in, threads, batch, &executor), want)
                << "persistent, threads=" << threads << " batch=" << batch;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Executor, DeepNarrowChainExecutesInDependencyOrder) {
    // A serial 400-gate NAND chain: exactly one gate is ever ready, so any
    // scheduling mistake (missed decrement, early start) corrupts the
    // result.
    Netlist n;
    NodeId a = n.AddInput();
    NodeId cur = a;
    for (int i = 0; i < 400; ++i) cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    Executor executor;
    for (bool in : {false, true}) {
        const std::vector<bool> bits{in};
        const auto want = n.EvaluatePlain(bits);
        for (int32_t threads : {1, 2, 4})
            for (int32_t batch : {1, 4})
                EXPECT_EQ(ExecuteAt(*p, eval, bits, threads, batch, &executor),
                          want)
                    << "in=" << in << " threads=" << threads
                    << " batch=" << batch;
    }
}

TEST(Executor, PoolPersistsAcrossProgramsAndRuns) {
    PlainEvaluator eval;
    Executor executor;
    const auto adder = AdderProgram();
    const auto random_p = pasm::Assemble(RandomNetlist(3, 6, 120));
    ASSERT_TRUE(random_p.has_value());
    std::mt19937_64 rng(17);
    for (int run = 0; run < 4; ++run) {
        std::vector<bool> a(16), b(6);
        for (size_t i = 0; i < a.size(); ++i) a[i] = rng() & 1;
        for (size_t i = 0; i < b.size(); ++i) b[i] = rng() & 1;
        EXPECT_EQ(ExecuteAt(adder, eval, a, 4, 1, &executor),
                  RunProgram(adder, eval, a));
        EXPECT_EQ(ExecuteAt(*random_p, eval, b, 4, 4, &executor),
                  RunProgram(*random_p, eval, b));
    }
    // Workers were created once and reused, never torn down between runs.
    EXPECT_EQ(executor.NumWorkers(), 3);
}

TEST(Executor, RejectsBadArguments) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> too_few(3, false);
    const std::vector<bool> right(16, false);
    EXPECT_THROW((void)ExecuteAt(p, eval, too_few, 2, 1, &executor),
                 std::invalid_argument);
    EXPECT_THROW((void)ExecuteAt(p, eval, too_few, 1, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)ExecuteAt(p, eval, right, 0, 1, &executor),
                 std::invalid_argument);
    EXPECT_THROW((void)ExecuteAt(p, eval, right, -4), std::invalid_argument);
    EXPECT_THROW((void)ExecuteAt(p, eval, right, 2, 0), std::invalid_argument);
    EXPECT_THROW((void)RunProgram(p, eval, too_few), std::invalid_argument);
}

TEST(Executor, RunControlCancelAbortsAllPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> in(16, true);
    std::atomic<bool> cancel{true};  // Pre-raised: aborts at the first gate.
    RunControl control;
    control.cancel = &cancel;
    EXPECT_THROW((void)RunProgram(p, eval, in, control), CancelledError);
    for (int32_t threads : {1, 2, 4})
        for (int32_t batch : {1, 4})
            EXPECT_THROW((void)ExecuteAt(p, eval, in, threads, batch,
                                         &executor, control),
                         CancelledError)
                << "threads=" << threads << " batch=" << batch;
    // The pool survives an aborted run and executes the next one.
    cancel.store(false);
    EXPECT_EQ(ExecuteAt(p, eval, in, 4, 4, &executor, control),
              RunProgram(p, eval, in));
}

TEST(Executor, RunControlDeadlineAbortsAllPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> in(16, false);
    RunControl control;
    control.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    EXPECT_THROW((void)RunProgram(p, eval, in, control),
                 DeadlineExceededError);
    for (int32_t threads : {1, 2, 4})
        for (int32_t batch : {1, 4})
            EXPECT_THROW((void)ExecuteAt(p, eval, in, threads, batch,
                                         &executor, control),
                         DeadlineExceededError)
                << "threads=" << threads << " batch=" << batch;
    control.deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(1);
    EXPECT_EQ(ExecuteAt(p, eval, in, 4, 1, &executor, control),
              RunProgram(p, eval, in));
}

TEST(Execute, DispatcherSelectsEquivalentPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    std::mt19937_64 rng(31);
    std::vector<bool> in(16);
    for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
    const auto want = RunProgram(p, eval, in);

    for (int32_t threads : {1, 2, 4}) {
        for (int32_t batch : {1, 4}) {
            EXPECT_EQ(ExecuteAt(p, eval, in, threads, batch), want)
                << "threads=" << threads << " batch=" << batch;
            // And again through a caller-owned persistent executor.
            EXPECT_EQ(ExecuteAt(p, eval, in, threads, batch, &executor), want)
                << "persistent, threads=" << threads << " batch=" << batch;
        }
    }
}

/**
 * Plaintext evaluator whose every gate waits (bounded) until a second
 * thread is inside Apply too: `met` records that two gates of the job ran
 * at once. After one timed-out wait the rest run unhindered, so a failing
 * schedule costs one timeout, not one per gate.
 */
struct RendezvousEvaluator {
    using Ciphertext = bool;

    std::atomic<int32_t>* in_apply = nullptr;
    std::atomic<bool>* met = nullptr;
    std::atomic<bool>* gave_up = nullptr;

    bool Apply(GateType t, bool a, bool b) const {
        in_apply->fetch_add(1);
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!met->load() && !gave_up->load()) {
            if (in_apply->load() >= 2) {
                met->store(true);
            } else if (std::chrono::steady_clock::now() >= until) {
                gave_up->store(true);
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
        }
        in_apply->fetch_sub(1);
        return circuit::EvalGate(t, a, b);
    }
};

TEST(Execute, LoneJobRunsOnSeveralWorkersAtOnce) {
    // 64 independent gates: the whole program is ready at once. With the
    // library default in-flight cap (4) one claim of batch 4 would fill
    // the job's allowance and confine it to a single worker; Execute's
    // cap of threads × batch lets a second worker claim alongside.
    Netlist n;
    std::vector<NodeId> ins;
    for (int i = 0; i < 8; ++i) ins.push_back(n.AddInput());
    for (int i = 0; i < 64; ++i)
        n.AddOutput(n.AddGate(GateType::kXor, ins[i % 8], ins[(i + 3) % 8]));
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());

    std::atomic<int32_t> in_apply{0};
    std::atomic<bool> met{false};
    std::atomic<bool> gave_up{false};
    RendezvousEvaluator eval{&in_apply, &met, &gave_up};
    std::vector<bool> in(8);
    for (size_t i = 0; i < in.size(); ++i) in[i] = i % 3 == 0;
    const auto out = ExecuteAt(*p, eval, in, 3, 4);
    EXPECT_TRUE(met.load()) << "no two gates of the lone job ran at once";
    EXPECT_FALSE(gave_up.load());
    PlainEvaluator plain;
    EXPECT_EQ(out, RunProgram(*p, plain, in));
}

/** Encrypted equivalence across every Execute configuration. */
class EncryptedExecutorTest : public ::testing::Test {
  protected:
    EncryptedExecutorTest()
        : rng_(2024),
          secret_(tfhe::ToyParams(), rng_),
          gates_(secret_, rng_),
          eval_(gates_) {}

    std::vector<tfhe::LweSample> Encrypt(const std::vector<bool>& bits) {
        std::vector<tfhe::LweSample> out;
        for (bool b : bits) out.push_back(secret_.Encrypt(b, rng_));
        return out;
    }

    std::vector<bool> Decrypt(const std::vector<tfhe::LweSample>& samples) {
        std::vector<bool> out;
        for (const auto& s : samples) out.push_back(secret_.Decrypt(s));
        return out;
    }

    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    tfhe::GateEvaluator gates_;
    TfheEvaluator eval_;
};

TEST_F(EncryptedExecutorTest, AdderEquivalentAcrossAllPathsWithExactProfile) {
    const auto p = AdderProgram();
    const uint64_t expected_bootstraps = CountBootstrappedGates(p);
    ASSERT_GT(expected_bootstraps, 0u);

    // 161 + 94 = 255, little-endian bits.
    std::vector<bool> bits;
    for (uint64_t v : {161u, 94u})
        for (int i = 0; i < 8; ++i) bits.push_back((v >> i) & 1);
    const auto inputs = Encrypt(bits);

    gates_.profile().Reset();
    const auto want = Decrypt(RunProgram(p, eval_, inputs));
    ASSERT_EQ(gates_.profile().bootstrap_count(), expected_bootstraps);

    Executor executor;
    for (int32_t threads : {1, 2, 4}) {
        for (int32_t batch : {1, 4}) {
            gates_.profile().Reset();
            EXPECT_EQ(Decrypt(ExecuteAt(p, eval_, inputs, threads, batch,
                                  &executor)),
                      want)
                << "threads=" << threads << " batch=" << batch;
            // Concurrent accounting is exact, not approximate: every
            // configuration reports the same bootstrap total.
            EXPECT_EQ(gates_.profile().bootstrap_count(),
                      expected_bootstraps)
                << "threads=" << threads << " batch=" << batch;
        }
    }

    uint64_t decoded = 0;
    for (size_t i = 0; i < 8; ++i)
        if (want[i]) decoded |= UINT64_C(1) << i;
    EXPECT_EQ(decoded, (161u + 94u) % 256);
}

TEST_F(EncryptedExecutorTest, SingleThreadBypassIsBitIdentical) {
    // Execute at one thread without batching must skip scheduling and
    // produce the exact same ciphertexts as the sequential interpreter,
    // not just the same decryptions.
    const auto p = AdderProgram();
    std::vector<bool> bits(16);
    for (size_t i = 0; i < bits.size(); ++i) bits[i] = (i * 7) % 3 == 0;
    const auto inputs = Encrypt(bits);

    const auto sequential = RunProgram(p, eval_, inputs);
    Executor executor;
    const auto bypass = ExecuteAt(p, eval_, inputs, 1, 1, &executor);
    ASSERT_EQ(bypass.size(), sequential.size());
    for (size_t i = 0; i < bypass.size(); ++i) {
        EXPECT_EQ(bypass[i].a, sequential[i].a) << i;
        EXPECT_EQ(bypass[i].b, sequential[i].b) << i;
    }
}

}  // namespace
}  // namespace pytfhe::backend
