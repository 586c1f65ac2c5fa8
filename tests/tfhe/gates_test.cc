#include "tfhe/gates.h"

#include <gtest/gtest.h>

namespace pytfhe::tfhe {
namespace {

/** Shared fixture: one key pair + evaluator for all gate tests (toy params). */
class GatesTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        rng_ = new Rng(61);
        secret_ = new SecretKeySet(ToyParams(), *rng_);
        eval_ = new GateEvaluator(*secret_, *rng_);
    }
    static void TearDownTestSuite() {
        delete eval_;
        delete secret_;
        delete rng_;
        eval_ = nullptr;
        secret_ = nullptr;
        rng_ = nullptr;
    }

    LweSample Enc(bool b) { return secret_->Encrypt(b, *rng_); }
    bool Dec(const LweSample& s) { return secret_->Decrypt(s); }

    static Rng* rng_;
    static SecretKeySet* secret_;
    static GateEvaluator* eval_;
};

Rng* GatesTest::rng_ = nullptr;
SecretKeySet* GatesTest::secret_ = nullptr;
GateEvaluator* GatesTest::eval_ = nullptr;

TEST_F(GatesTest, Constant) {
    EXPECT_TRUE(Dec(eval_->Constant(true)));
    EXPECT_FALSE(Dec(eval_->Constant(false)));
}

TEST_F(GatesTest, NotAndCopy) {
    for (bool a : {false, true}) {
        EXPECT_EQ(Dec(eval_->Not(Enc(a))), !a);
        EXPECT_EQ(Dec(eval_->Copy(Enc(a))), a);
    }
}

struct BinaryGateCase {
    const char* name;
    LweSample (GateEvaluator::*fn)(const LweSample&, const LweSample&,
                                   BootstrapScratch*);
    bool truth[4];  // Output for (a, b) = (0,0), (0,1), (1,0), (1,1).
};

// Lists the case by gate name; the default byte dump would print `fn`
// and `name` as addresses, which change from build to build.
void PrintTo(const BinaryGateCase& c, std::ostream* os) { *os << c.name; }

class BinaryGateTest : public GatesTest,
                       public ::testing::WithParamInterface<BinaryGateCase> {};

TEST_P(BinaryGateTest, TruthTable) {
    const BinaryGateCase& c = GetParam();
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            LweSample ea = Enc(a), eb = Enc(b);
            LweSample out = (eval_->*c.fn)(ea, eb, nullptr);
            EXPECT_EQ(Dec(out), c.truth[a * 2 + b])
                << c.name << "(" << a << "," << b << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, BinaryGateTest,
    ::testing::Values(
        BinaryGateCase{"AND", &GateEvaluator::And, {0, 0, 0, 1}},
        BinaryGateCase{"NAND", &GateEvaluator::Nand, {1, 1, 1, 0}},
        BinaryGateCase{"OR", &GateEvaluator::Or, {0, 1, 1, 1}},
        BinaryGateCase{"NOR", &GateEvaluator::Nor, {1, 0, 0, 0}},
        BinaryGateCase{"XOR", &GateEvaluator::Xor, {0, 1, 1, 0}},
        BinaryGateCase{"XNOR", &GateEvaluator::Xnor, {1, 0, 0, 1}},
        BinaryGateCase{"ANDNY", &GateEvaluator::AndNY, {0, 1, 0, 0}},
        BinaryGateCase{"ANDYN", &GateEvaluator::AndYN, {0, 0, 1, 0}},
        BinaryGateCase{"ORNY", &GateEvaluator::OrNY, {1, 1, 0, 1}},
        BinaryGateCase{"ORYN", &GateEvaluator::OrYN, {1, 0, 1, 1}}),
    [](const ::testing::TestParamInfo<BinaryGateCase>& info) {
        return info.param.name;
    });

TEST_F(GatesTest, MuxTruthTable) {
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            for (int c = 0; c < 2; ++c) {
                LweSample out = eval_->Mux(Enc(a), Enc(b), Enc(c));
                EXPECT_EQ(Dec(out), a ? b : c)
                    << "MUX(" << a << "," << b << "," << c << ")";
            }
        }
    }
}

TEST_F(GatesTest, GatesComposeIntoHalfAdder) {
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            LweSample ea = Enc(a), eb = Enc(b);
            LweSample sum = eval_->Xor(ea, eb);
            LweSample carry = eval_->And(ea, eb);
            EXPECT_EQ(Dec(sum), (a ^ b) != 0);
            EXPECT_EQ(Dec(carry), (a & b) != 0);
        }
    }
}

TEST_F(GatesTest, DeepGateChainStaysCorrect) {
    // 64 chained NAND gates: output noise must stay constant.
    LweSample x = Enc(true);
    bool expected = true;
    for (int i = 0; i < 64; ++i) {
        x = eval_->Nand(x, x);
        expected = !expected;
        ASSERT_EQ(Dec(x), expected) << "depth " << i;
    }
}

TEST_F(GatesTest, ProfileAccountsBootstraps) {
    eval_->profile().Reset();
    LweSample a = Enc(true), b = Enc(false);
    (void)eval_->And(a, b);
    (void)eval_->Xor(a, b);
    (void)eval_->Mux(a, b, b);
    EXPECT_EQ(eval_->profile().bootstrap_count(), 4u);  // 1 + 1 + 2.
    EXPECT_GT(eval_->profile().blind_rotate_seconds(), 0.0);
    EXPECT_GT(eval_->profile().key_switch_seconds(), 0.0);
    // Snapshot is a plain copyable view of the same counters.
    const tfhe::GateProfileSnapshot snap = eval_->profile().Snapshot();
    EXPECT_EQ(snap.bootstrap_count, 4u);
    EXPECT_EQ(snap.TotalSeconds(), eval_->profile().TotalSeconds());
}

TEST(Gates128, RealParameterSetEvaluatesCorrectly) {
    // A few gates at the paper's 128-bit parameter set; this is the slowest
    // test in the suite (key generation dominates).
    Rng rng(62);
    SecretKeySet secret(Tfhe128Params(), rng);
    GateEvaluator eval(secret, rng);
    LweSample t = secret.Encrypt(true, rng);
    LweSample f = secret.Encrypt(false, rng);
    EXPECT_FALSE(secret.Decrypt(eval.Nand(t, t)));
    EXPECT_TRUE(secret.Decrypt(eval.Xor(t, f)));
    EXPECT_TRUE(secret.Decrypt(eval.Or(f, t)));
    EXPECT_FALSE(secret.Decrypt(eval.And(t, f)));
    EXPECT_TRUE(secret.Decrypt(eval.Mux(t, t, f)));
}

}  // namespace
}  // namespace pytfhe::tfhe
