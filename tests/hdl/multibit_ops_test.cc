/**
 * @file
 * Word arithmetic on weighted LUT bootstraps (hdl/multibit_ops.h).
 *
 * Plain semantics first: MultibitAdd, MultibitUlt, MultibitEq and the
 * full-width MultibitUMul are checked against integer arithmetic for
 * every operand pair at widths 1-4, on LUT netlists (the plan always
 * fits, so no generator falls back to boolean gates). Then the two
 * programs of examples/multibit_calculator — a chained (a * b + c) mod 4
 * and a 7-bit add with carries — run encrypted through
 * Compile(multibit = 16) and Execute on every threads x batch
 * configuration under toy multibit parameters.
 */
#include "hdl/multibit_ops.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "backend/execute.h"
#include "core/compiler.h"
#include "hdl_test_util.h"
#include "tfhe/multibit.h"
#include "tfhe/noise.h"

namespace pytfhe::hdl {
namespace {

using Gen = std::function<Bits(Builder&, const Bits&, const Bits&)>;

/** A plan that fits every generator, independent of any parameter set. */
constexpr MultibitPlan kPlan{16, kMultibitMaxWeightSq};

/** Builds gen over two width-bit inputs x, y (x first). */
circuit::Netlist BuildBinary(int32_t width, const Gen& gen) {
    Builder b;
    const Bits x = InputBits(b, width, "x");
    const Bits y = InputBits(b, width, "y");
    OutputBits(b, gen(b, x, y), "o");
    return b.netlist();
}

/**
 * Checks gen's netlist against want(x, y) for every width-bit pair,
 * comparing the LSB-first packed outputs.
 */
void ExpectExhaustive(int32_t width, const Gen& gen,
                      const std::function<uint64_t(uint64_t, uint64_t)>& want) {
    const circuit::Netlist netlist = BuildBinary(width, gen);
    ASSERT_EQ(netlist.MessageModulus(), 16) << "generator fell back";
    const uint64_t n = UINT64_C(1) << width;
    for (uint64_t x = 0; x < n; ++x) {
        for (uint64_t y = 0; y < n; ++y) {
            std::vector<bool> in = ToBools(x, width);
            const std::vector<bool> in_y = ToBools(y, width);
            in.insert(in.end(), in_y.begin(), in_y.end());
            ASSERT_EQ(FromBools(netlist.EvaluatePlain(in)), want(x, y))
                << "width " << width << " x=" << x << " y=" << y;
        }
    }
}

class MultibitWidthTest : public ::testing::TestWithParam<int32_t> {
  protected:
    int32_t W() const { return GetParam(); }
};

TEST_P(MultibitWidthTest, AddWithCarryMatchesIntegerAdd) {
    const int32_t w = W();
    ExpectExhaustive(
        w,
        [](Builder& b, const Bits& x, const Bits& y) {
            return MultibitAdd(b, kPlan, x, y);
        },
        [w](uint64_t x, uint64_t y) { return Mask(x + y, w); });
}

TEST_P(MultibitWidthTest, UltMatchesIntegerCompare) {
    ExpectExhaustive(
        W(),
        [](Builder& b, const Bits& x, const Bits& y) {
            return Bits(std::vector<Signal>{MultibitUlt(b, kPlan, x, y)});
        },
        [](uint64_t x, uint64_t y) -> uint64_t { return x < y ? 1 : 0; });
}

TEST_P(MultibitWidthTest, EqMatchesIntegerEquality) {
    ExpectExhaustive(
        W(),
        [](Builder& b, const Bits& x, const Bits& y) {
            return Bits(std::vector<Signal>{MultibitEq(b, kPlan, x, y)});
        },
        [](uint64_t x, uint64_t y) -> uint64_t { return x == y ? 1 : 0; });
}

TEST_P(MultibitWidthTest, UMulFullProductMatchesIntegerMultiply) {
    const int32_t w = W();
    ExpectExhaustive(
        w,
        [w](Builder& b, const Bits& x, const Bits& y) {
            return MultibitUMul(b, kPlan, x, y, 2 * w);
        },
        [](uint64_t x, uint64_t y) { return x * y; });
}

INSTANTIATE_TEST_SUITE_P(Widths, MultibitWidthTest,
                         ::testing::Values(1, 2, 3, 4));

/**
 * The example's programs under encryption: (a * b + c) mod 4 chains a
 * multiply into an add over 2-bit words; 27 + 57 carries through a
 * 7-bit add. Each runs once per threads x batch configuration.
 */
class MultibitOpsEncryptedTest : public ::testing::Test {
  protected:
    MultibitOpsEncryptedTest()
        : params_(tfhe::ToyMultibitParams()),
          rng_(2024),
          secret_(params_, rng_),
          gates_(secret_, rng_),
          plan_{16, tfhe::MaxMultibitWeightBudget(params_, 16)} {}

    /** Compile(multibit = 16); the result must be a LUT program. */
    pasm::Program CompileLuts(const circuit::Netlist& netlist) {
        core::CompileOptions options;
        options.params = params_;
        options.multibit = 16;
        std::string error;
        auto compiled = core::Compile(netlist, options, &error);
        EXPECT_TRUE(compiled.has_value()) << error;
        if (!compiled) return {};
        EXPECT_EQ(compiled->program.MessageModulus(), 16);
        return std::move(compiled->program);
    }

    /**
     * Encrypts `in` as 1-bit digits, executes on every configuration and
     * expects each run to decrypt to `want`.
     */
    void ExpectEverywhere(const pasm::Program& program,
                          const std::vector<bool>& in,
                          const std::vector<bool>& want) {
        std::vector<tfhe::LweSample> enc;
        for (const bool bit : in)
            enc.push_back(tfhe::LweEncryptDigit(bit ? 1 : 0, 16,
                                                params_.lwe_noise_stddev,
                                                secret_.lwe_key, rng_));
        backend::TfheEvaluator eval(gates_);
        for (const int32_t threads : {1, 2}) {
            for (const int32_t batch : {1, 4}) {
                backend::ExecOptions opts;
                opts.num_threads = threads;
                opts.batch_size = batch;
                const auto out = backend::Execute(program, eval, enc, opts);
                std::vector<bool> got;
                for (const auto& c : out)
                    got.push_back(
                        tfhe::LweDecryptDigit(c, secret_.lwe_key, 16) != 0);
                EXPECT_EQ(got, want)
                    << "threads=" << threads << " batch=" << batch;
            }
        }
    }

    tfhe::Params params_;
    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    tfhe::GateEvaluator gates_;
    MultibitPlan plan_;
};

TEST_F(MultibitOpsEncryptedTest, ChainedMulAddMod4) {
    ASSERT_TRUE(plan_.Fits(kMultibitMaxWeightSq));
    Builder b;
    const Bits a = InputBits(b, 2, "a");
    const Bits m = InputBits(b, 2, "b");
    const Bits c = InputBits(b, 2, "c");
    OutputBits(b, MultibitAdd(b, plan_, MultibitUMul(b, plan_, a, m, 2), c),
               "r");
    const pasm::Program program = CompileLuts(b.netlist());
    std::vector<bool> in = ToBools(3, 2);
    for (const uint64_t v : {2, 3}) {
        const std::vector<bool> more = ToBools(v, 2);
        in.insert(in.end(), more.begin(), more.end());
    }
    ExpectEverywhere(program, in, ToBools((3 * 2 + 3) % 4, 2));
}

TEST_F(MultibitOpsEncryptedTest, SevenBitAddCarries) {
    ASSERT_TRUE(plan_.Fits(kMultibitMaxWeightSq));
    const pasm::Program program =
        CompileLuts(BuildBinary(7, [this](Builder& b, const Bits& x,
                                          const Bits& y) {
            return MultibitAdd(b, plan_, x, y);
        }));
    std::vector<bool> in = ToBools(27, 7);
    const std::vector<bool> in_y = ToBools(57, 7);
    in.insert(in.end(), in_y.begin(), in_y.end());
    ExpectEverywhere(program, in, ToBools(84, 7));
}

}  // namespace
}  // namespace pytfhe::hdl
