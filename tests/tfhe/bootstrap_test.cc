#include "tfhe/bootstrap.h"

#include <gtest/gtest.h>

namespace pytfhe::tfhe {
namespace {

class BootstrapTest : public ::testing::Test {
  protected:
    BootstrapTest()
        : rng_(51), params_(ToyParams()),
          lwe_key_(params_.n, rng_),
          tlwe_key_(params_.big_n, params_.k, rng_),
          bk_(params_, lwe_key_, tlwe_key_, rng_) {}

    Rng rng_;
    Params params_;
    LweKey lwe_key_;
    TLweKey tlwe_key_;
    BootstrappingKey bk_;
};

TEST_F(BootstrapTest, RefreshesPositivePhaseToPlusMu) {
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    for (int i = 0; i < 10; ++i) {
        LweSample in =
            LweEncrypt(mu, params_.lwe_noise_stddev, lwe_key_, rng_);
        LweSample out = Bootstrap(mu, in, bk_);
        EXPECT_TRUE(LweDecryptBit(out, lwe_key_)) << i;
    }
}

TEST_F(BootstrapTest, RefreshesNegativePhaseToMinusMu) {
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    for (int i = 0; i < 10; ++i) {
        LweSample in =
            LweEncrypt(-mu, params_.lwe_noise_stddev, lwe_key_, rng_);
        LweSample out = Bootstrap(mu, in, bk_);
        EXPECT_FALSE(LweDecryptBit(out, lwe_key_)) << i;
    }
}

TEST_F(BootstrapTest, OutputNoiseIsBoundedRegardlessOfInputNoise) {
    // Feed a sample with noise close to the decryption limit; the
    // bootstrapped output must have small fresh noise.
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    LweSample in = LweEncrypt(mu, 0.01, lwe_key_, rng_);
    LweSample out = Bootstrap(mu, in, bk_);
    const double phase = Torus32ToDouble(LwePhase(out, lwe_key_));
    EXPECT_NEAR(phase, 0.125, 0.02);
}

TEST_F(BootstrapTest, WithoutKeySwitchLivesUnderExtractedKey) {
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    LweSample in = LweEncrypt(mu, params_.lwe_noise_stddev, lwe_key_, rng_);
    LweSample out = BootstrapWithoutKeySwitch(mu, in, bk_);
    EXPECT_EQ(out.N(), params_.ExtractedN());
    LweKey extracted = tlwe_key_.ExtractLweKey();
    EXPECT_TRUE(LweDecryptBit(out, extracted));
}

TEST_F(BootstrapTest, BlindRotateByZeroIsIdentity) {
    TorusPolynomial testvect(params_.big_n);
    for (auto& c : testvect.coefs) c = ModSwitchToTorus32(1, 8);
    TLweSample acc(params_.big_n, params_.k);
    acc.SetTrivial(testvect);
    std::vector<int32_t> bara(params_.n, 0);
    BlindRotate(acc, bara, bk_);
    // All-zero rotation leaves the trivial sample untouched.
    for (int32_t i = 0; i < params_.big_n; ++i)
        EXPECT_EQ(acc.Body().coefs[i], testvect.coefs[i]);
}

TEST_F(BootstrapTest, ChainedBootstrapsStayCorrect) {
    // Repeatedly bootstrapping its own output models a long gate chain.
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    LweSample s = LweEncrypt(mu, params_.lwe_noise_stddev, lwe_key_, rng_);
    for (int i = 0; i < 20; ++i) {
        s = Bootstrap(mu, s, bk_);
        ASSERT_TRUE(LweDecryptBit(s, lwe_key_)) << "iteration " << i;
    }
}

TEST(BootstrapSmallParams, WorksAtLargerDimension) {
    Rng rng(52);
    const Params p = SmallParams();
    LweKey lwe_key(p.n, rng);
    TLweKey tlwe_key(p.big_n, p.k, rng);
    BootstrappingKey bk(p, lwe_key, tlwe_key, rng);
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    for (int i = 0; i < 4; ++i) {
        const bool bit = i % 2;
        LweSample in =
            LweEncrypt(bit ? mu : -mu, p.lwe_noise_stddev, lwe_key, rng);
        LweSample out = Bootstrap(mu, in, bk);
        EXPECT_EQ(LweDecryptBit(out, lwe_key), bit) << i;
    }
}

}  // namespace
}  // namespace pytfhe::tfhe
