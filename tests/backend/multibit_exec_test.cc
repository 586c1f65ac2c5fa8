/**
 * @file
 * Encrypted LUT-gate execution across every Execute configuration:
 * threads {1, 2, 4} x batch {1, 4} (LUT gates ride the batched rotation of
 * a batch-enabled run), each with and without a memory plan — all
 * bit-exact against the plain reference under toy multibit parameters.
 * Serving claims may mix LUT and boolean jobs on one key. Also the
 * functional planes: PlainEvaluator interprets LUT digits,
 * CountingEvaluator charges one bootstrap per LUT gate.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/execute.h"
#include "backend/serving.h"
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

TEST_F(MultibitExecTest, LutGatesAreBatchFusable) {
    // Each lane of the batched rotation starts from its own test vector,
    // so the batch dispatcher claims LUT gates like any bootstrapped gate.
    EXPECT_TRUE(TfheEvaluator::Batchable(circuit::GateType::kLut));
    EXPECT_TRUE(circuit::NeedsBootstrap(circuit::GateType::kLut));
}

TEST_F(MultibitExecTest, ObjectFlavorApplyRejectsLutGates) {
    // The object-flavor Apply has no operand list or table for a LUT
    // gate; it must refuse one instead of returning an operand unchanged.
    TfheEvaluator eval(gates_);
    TfheEvaluator::WorkerScratch scratch;
    const auto enc = Encrypt({true, false});
    try {
        eval.Apply(circuit::GateType::kLut, enc[0], false, enc[1], false,
                   scratch);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("ApplyLutInto"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(eval.Apply(circuit::GateType::kLut, enc[0], enc[1]),
                 std::invalid_argument);
}

/** TfheEvaluator that counts batch calls mixing LUT and boolean lanes. */
class MixCountingEvaluator : public TfheEvaluator {
  public:
    using TfheEvaluator::ApplyBatch;
    using TfheEvaluator::TfheEvaluator;

    void ApplyBatch(const BatchGateView* items, int32_t count,
                    BatchScratch& s) const {
        int32_t luts = 0;
        for (int32_t i = 0; i < count; ++i)
            luts += items[i].type == circuit::GateType::kLut ? 1 : 0;
        if (luts > 0 && luts < count)
            mixed_.fetch_add(1, std::memory_order_relaxed);
        TfheEvaluator::ApplyBatch(items, count, s);
    }

    uint64_t mixed() const { return mixed_.load(std::memory_order_relaxed); }

  private:
    mutable std::atomic<uint64_t> mixed_{0};
};

bool SameCiphertexts(const std::vector<tfhe::LweSample>& x,
                     const std::vector<tfhe::LweSample>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i)
        if (x[i].a != y[i].a || x[i].b != y[i].b) return false;
    return true;
}

/**
 * Two jobs on one evaluator — the multibit adder (LUT gates) and a
 * boolean 8-bit adder (sign bootstraps) — through one serving worker with
 * batch 4 and a per-job cap of 2, so claims take lanes from both jobs and
 * each mixed claim runs as one rotation. Both jobs' outputs must equal
 * the batch-1 sequential run bit for bit.
 */
TEST_F(MultibitExecTest, OneClaimMixesLutAndBooleanJobsBitExactly) {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "s");
    std::string error;
    auto boolean = pasm::Assemble(b.netlist(), &error);
    ASSERT_TRUE(boolean.has_value()) << error;

    const std::vector<bool> in = InputBits(0xA7, 0x5C);
    const std::vector<tfhe::LweSample> lut_in = Encrypt(in);
    std::vector<tfhe::LweSample> bool_in;
    for (bool bit : in) bool_in.push_back(secret_.Encrypt(bit, rng_));

    TfheEvaluator reference(gates_);
    const auto lut_want = Execute(program_, reference, lut_in);
    const auto bool_want = Execute(*boolean, reference, bool_in);

    MixCountingEvaluator eval(gates_);
    Executor executor;
    ServingOptions opts;
    opts.num_workers = 1;
    opts.batch_size = 4;
    opts.per_job_inflight_cap = 2;
    ServingExecutor<MixCountingEvaluator> serving(executor, opts);
    auto lut_job = serving.Submit(
        std::make_shared<const pasm::Program>(program_), eval, lut_in);
    auto bool_job = serving.Submit(
        std::make_shared<const pasm::Program>(std::move(*boolean)), eval,
        bool_in);
    EXPECT_TRUE(SameCiphertexts(lut_job->Outputs(), lut_want));
    EXPECT_TRUE(SameCiphertexts(bool_job->Outputs(), bool_want));
    EXPECT_EQ(Decrypt(lut_job->Outputs()), netlist_.EvaluatePlain(in));
    EXPECT_GT(eval.mixed(), 0u) << "no claim mixed LUT and boolean lanes";
}

}  // namespace
}  // namespace pytfhe::backend
