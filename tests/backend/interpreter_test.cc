#include "backend/interpreter.h"

#include <gtest/gtest.h>
#include <random>

#include "backend/execute.h"
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

class InterpreterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpreterPropertyTest, PlainInterpreterMatchesNetlistSemantics) {
    const Netlist n = RandomNetlist(GetParam(), 6, 150);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    std::mt19937_64 rng(GetParam() * 31);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<bool> in(6);
        for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
        const auto want = n.EvaluatePlain(in);
        const auto got = RunProgram(*p, eval, in);
        EXPECT_EQ(got, want);
    }
}

TEST_P(InterpreterPropertyTest, ThreadedMatchesSequential) {
    const Netlist n = RandomNetlist(GetParam() ^ 0xBEEF, 8, 300);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    std::mt19937_64 rng(GetParam());
    for (int32_t threads : {1, 2, 4}) {
        for (int32_t batch : {1, 4}) {
            std::vector<bool> in(8);
            for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
            ExecOptions options;
            options.num_threads = threads;
            options.batch_size = batch;
            EXPECT_EQ(Execute(*p, eval, in, options), RunProgram(*p, eval, in))
                << "threads=" << threads << " batch=" << batch;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Interpreter, CountingEvaluatorCountsGates) {
    Netlist n;
    const NodeId a = n.AddInput();
    const NodeId b = n.AddInput();
    const NodeId x = n.AddGate(GateType::kXor, a, b);
    const NodeId y = n.AddGate(GateType::kAnd, a, x);
    n.AddOutput(n.AddGate(GateType::kNot, y, y));
    const auto p = pasm::Assemble(n);
    CountingEvaluator eval;
    (void)RunProgram(*p, eval, {true, false});
    EXPECT_EQ(eval.Total(), 3u);
    EXPECT_EQ(eval.CountOf(GateType::kXor), 1u);
    EXPECT_EQ(eval.CountOf(GateType::kNot), 1u);
    EXPECT_EQ(eval.CountOf(GateType::kNand), 0u);
}

/** Full encrypted execution of an assembled program (toy parameters). */
class TfheExecutionTest : public ::testing::Test {
  protected:
    TfheExecutionTest()
        : rng_(91),
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

TEST_F(TfheExecutionTest, HalfAdderEncryptedEndToEnd) {
    Netlist n;
    const NodeId a = n.AddInput("A");
    const NodeId b = n.AddInput("B");
    n.AddOutput(n.AddGate(GateType::kXor, a, b), "Sum");
    n.AddOutput(n.AddGate(GateType::kAnd, a, b), "Carry");
    const auto p = pasm::Assemble(n);
    for (int av = 0; av < 2; ++av) {
        for (int bv = 0; bv < 2; ++bv) {
            const auto out =
                Decrypt(RunProgram(*p, eval_, Encrypt({av == 1, bv == 1})));
            EXPECT_EQ(out[0], (av ^ bv) != 0);
            EXPECT_EQ(out[1], (av & bv) != 0);
        }
    }
}

TEST_F(TfheExecutionTest, RandomCircuitEncryptedMatchesPlain) {
    const Netlist n = RandomNetlist(1234, 4, 40);
    const auto p = pasm::Assemble(n);
    std::mt19937_64 prng(7);
    for (int trial = 0; trial < 2; ++trial) {
        std::vector<bool> in(4);
        for (size_t i = 0; i < in.size(); ++i) in[i] = prng() & 1;
        EXPECT_EQ(Decrypt(RunProgram(*p, eval_, Encrypt(in))),
                  n.EvaluatePlain(in));
    }
}

TEST_F(TfheExecutionTest, ThreadedEncryptedExecutionIsCorrect) {
    const Netlist n = RandomNetlist(555, 4, 30);
    const auto p = pasm::Assemble(n);
    const std::vector<bool> in{true, false, true, true};
    ExecOptions options;
    options.num_threads = 4;
    EXPECT_EQ(Decrypt(Execute(*p, eval_, Encrypt(in), options)),
              n.EvaluatePlain(in));
}

}  // namespace
}  // namespace pytfhe::backend
