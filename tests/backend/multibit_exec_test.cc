/**
 * @file
 * Encrypted LUT-gate execution across every Execute configuration:
 * threads {1, 2, 4} x batch {1, 4} (LUT gates take the scalar lane of a
 * batch-enabled run), each with and without a memory plan — all
 * bit-exact against the plain
 * reference under toy multibit parameters. Also the functional planes:
 * PlainEvaluator interprets LUT digits, CountingEvaluator charges one
 * bootstrap per LUT gate.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "backend/execute.h"
#include "hdl/multibit_ops.h"
#include "hdl/word_ops.h"
#include "pasm/assembler.h"
#include "pasm/memory_plan.h"
#include "tfhe/multibit.h"
#include "tfhe/noise.h"
#include "tfhe/params.h"

namespace pytfhe::backend {
namespace {

class MultibitExecTest : public ::testing::Test {
  protected:
    MultibitExecTest()
        : params_(tfhe::ToyMultibitParams()),
          rng_(1234),
          secret_(params_, rng_),
          gates_(secret_, rng_) {
        hdl::Builder b;
        const hdl::MultibitPlan plan{
            16, tfhe::MaxMultibitWeightBudget(params_, 16)};
        EXPECT_TRUE(plan.Fits(hdl::kMultibitMaxWeightSq));
        const hdl::Bits x = hdl::InputBits(b, 8, "x");
        const hdl::Bits y = hdl::InputBits(b, 8, "y");
        hdl::OutputBits(b, hdl::MultibitAdd(b, plan, x, y), "s");
        b.AddOutput(hdl::MultibitUlt(b, plan, x, y), "lt");
        netlist_ = b.netlist();
        std::string error;
        auto prog = pasm::Assemble(netlist_, &error);
        EXPECT_TRUE(prog.has_value()) << error;
        program_ = std::move(*prog);
        auto planned =
            program_.WithPlan(pasm::ComputeMemoryPlan(program_, {}), &error);
        EXPECT_TRUE(planned.has_value()) << error;
        planned_ = std::move(*planned);
    }

    static std::vector<bool> InputBits(uint32_t a, uint32_t c) {
        std::vector<bool> in;
        for (int i = 0; i < 8; ++i) in.push_back((a >> i) & 1);
        for (int i = 0; i < 8; ++i) in.push_back((c >> i) & 1);
        return in;
    }

    std::vector<tfhe::LweSample> Encrypt(const std::vector<bool>& bits) {
        std::vector<tfhe::LweSample> enc;
        enc.reserve(bits.size());
        for (bool b : bits)
            enc.push_back(tfhe::LweEncryptDigit(b ? 1 : 0, 16,
                                                params_.lwe_noise_stddev,
                                                secret_.lwe_key, rng_));
        return enc;
    }

    std::vector<bool> Decrypt(const std::vector<tfhe::LweSample>& cts) {
        std::vector<bool> out;
        for (const auto& c : cts) {
            const int32_t d = tfhe::LweDecryptDigit(c, secret_.lwe_key, 16);
            EXPECT_TRUE(d == 0 || d == 1) << "outputs are 1-bit digits";
            out.push_back(d != 0);
        }
        return out;
    }

    tfhe::Params params_;
    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    tfhe::GateEvaluator gates_;
    circuit::Netlist netlist_;
    pasm::Program program_;
    pasm::Program planned_;
};

TEST_F(MultibitExecTest, PlainEvaluatorInterpretsLutDigits) {
    PlainEvaluator plain;
    for (uint32_t t = 0; t < 32; ++t) {
        const std::vector<bool> in =
            InputBits((t * 37u + 5u) & 0xFF, (t * 101u + 9u) & 0xFF);
        EXPECT_EQ(Execute(program_, plain, in), netlist_.EvaluatePlain(in))
            << "t=" << t;
    }
}

TEST_F(MultibitExecTest, CountingEvaluatorChargesOneBootstrapPerLut) {
    CountingEvaluator counting;
    const std::vector<bool> in = InputBits(0x5A, 0xC3);
    const std::vector<uint8_t> cin(in.begin(), in.end());
    const auto out = Execute(program_, counting, cin);
    EXPECT_EQ(counting.Total(), program_.NumGates());
    EXPECT_EQ(counting.CountOf(circuit::GateType::kLut), program_.NumGates());
    std::vector<bool> bits;
    for (uint8_t v : out) bits.push_back(v != 0);
    EXPECT_EQ(bits, netlist_.EvaluatePlain(in));
}

TEST_F(MultibitExecTest, EncryptedAcrossEveryBackendConfiguration) {
    TfheEvaluator eval(gates_);
    for (uint32_t trial = 0; trial < 2; ++trial) {
        const uint32_t a = (0x5Au + 31u * trial) & 0xFF;
        const uint32_t c = (0xC3u + 77u * trial) & 0xFF;
        const std::vector<bool> in = InputBits(a, c);
        const std::vector<bool> want = netlist_.EvaluatePlain(in);
        const auto enc = Encrypt(in);
        for (const bool planned : {false, true}) {
            const pasm::Program& prog = planned ? planned_ : program_;
            for (const int32_t threads : {1, 2, 4}) {
                for (const int32_t batch : {1, 4}) {
                    ExecOptions opts;
                    opts.num_threads = threads;
                    opts.batch_size = batch;
                    EXPECT_EQ(Decrypt(Execute(prog, eval, enc, opts)), want)
                        << "threads=" << threads << " batch=" << batch
                        << " planned=" << planned << " trial " << trial
                        << " (a=" << a << " c=" << c << ")";
                }
            }
        }
    }
}

TEST_F(MultibitExecTest, LutGatesAreNotBatchFusable) {
    // Per-gate test vectors cannot share one sign-bootstrap batch kernel
    // call; the batch dispatcher must route LUT gates down the scalar
    // lane. Compile-time check on the dispatch predicate.
    EXPECT_FALSE(TfheEvaluator::Batchable(circuit::GateType::kLut));
    EXPECT_TRUE(circuit::NeedsBootstrap(circuit::GateType::kLut));
}

}  // namespace
}  // namespace pytfhe::backend
