#include "tfhe/tgsw.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "tfhe/params.h"

namespace pytfhe::tfhe {
namespace {

double TorusDistance(Torus32 a, Torus32 b) {
    return std::abs(Torus32ToDouble(a - b));
}

class TGswTest : public ::testing::Test {
  protected:
    TGswTest() : rng_(41), params_(ToyParams()),
                 key_(params_.big_n, params_.k, rng_),
                 fft_(GetFftPlan(params_.big_n)) {}

    TLweSample EncryptConst(Torus32 mu) {
        return TLweEncryptConst(mu, params_.tlwe_noise_stddev, key_, rng_);
    }

    TGswSampleFft EncryptBitFft(int32_t bit) {
        return TGswToFft(
            TGswEncrypt(bit, params_.bk_l, params_.bk_bg_bit,
                        params_.tlwe_noise_stddev, key_, rng_),
            fft_);
    }

    Rng rng_;
    Params params_;
    TLweKey key_;
    const NegacyclicFft& fft_;
};

TEST_F(TGswTest, DecomposeRecomposesApproximately) {
    const int32_t n = params_.big_n;
    TLweSample s(n, params_.k);
    for (auto& poly : s.a)
        for (auto& c : poly.coefs) c = rng_.UniformTorus32();

    std::vector<IntPolynomial> dec;
    TGswDecompose(dec, s, params_.bk_l, params_.bk_bg_bit);
    ASSERT_EQ(dec.size(),
              static_cast<size_t>((params_.k + 1) * params_.bk_l));

    // Digits are in [-Bg/2, Bg/2).
    const int32_t half_bg = params_.Bg() / 2;
    for (const auto& poly : dec)
        for (int32_t d : poly.coefs) {
            EXPECT_GE(d, -half_bg);
            EXPECT_LT(d, half_bg);
        }

    // sum_j digit_j * Bg^{-(j+1)} approximates each coefficient to within
    // half of the smallest gadget level.
    const double tol = 1.0 / std::pow(2.0, params_.bk_l * params_.bk_bg_bit);
    for (int32_t c = 0; c <= params_.k; ++c) {
        for (int32_t p = 0; p < n; ++p) {
            double recomposed = 0;
            for (int32_t j = 0; j < params_.bk_l; ++j) {
                recomposed += dec[c * params_.bk_l + j].coefs[p] *
                              std::pow(2.0, -params_.bk_bg_bit * (j + 1));
            }
            double orig = Torus32ToDouble(s.a[c].coefs[p]);
            double diff = std::abs(recomposed - orig);
            diff = std::min(diff, std::abs(1.0 - diff));  // torus distance
            EXPECT_LE(diff, tol) << c << "," << p;
        }
    }
}

TEST_F(TGswTest, ExternalProductByOnePreservesMessage) {
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    TLweSample s = EncryptConst(mu);
    TGswSampleFft one = EncryptBitFft(1);
    TLweSample result;
    TGswExternalProduct(result, one, s, fft_);
    TorusPolynomial phase = TLwePhase(result, key_);
    EXPECT_LT(TorusDistance(phase.coefs[0], mu), 1e-4);
}

TEST_F(TGswTest, ExternalProductByZeroKillsMessage) {
    const Torus32 mu = ModSwitchToTorus32(1, 4);
    TLweSample s = EncryptConst(mu);
    TGswSampleFft zero = EncryptBitFft(0);
    TLweSample result;
    TGswExternalProduct(result, zero, s, fft_);
    TorusPolynomial phase = TLwePhase(result, key_);
    EXPECT_LT(TorusDistance(phase.coefs[0], 0), 1e-4);
}

TEST_F(TGswTest, CMuxSelectsFirstWhenBitIsOne) {
    const Torus32 m1 = ModSwitchToTorus32(1, 8);
    const Torus32 m0 = ModSwitchToTorus32(5, 8);
    TLweSample d1 = EncryptConst(m1);
    TLweSample d0 = EncryptConst(m0);
    TGswSampleFft c = EncryptBitFft(1);
    TLweSample result;
    TGswCMux(result, c, d1, d0, fft_);
    EXPECT_LT(TorusDistance(TLwePhase(result, key_).coefs[0], m1), 1e-4);
}

TEST_F(TGswTest, CMuxSelectsSecondWhenBitIsZero) {
    const Torus32 m1 = ModSwitchToTorus32(1, 8);
    const Torus32 m0 = ModSwitchToTorus32(5, 8);
    TLweSample d1 = EncryptConst(m1);
    TLweSample d0 = EncryptConst(m0);
    TGswSampleFft c = EncryptBitFft(0);
    TLweSample result;
    TGswCMux(result, c, d1, d0, fft_);
    EXPECT_LT(TorusDistance(TLwePhase(result, key_).coefs[0], m0), 1e-4);
}

TEST_F(TGswTest, CMuxChainStaysCorrect) {
    // A chain of CMUXes models blind rotation noise growth; after 32
    // selections the message must still decode.
    const Torus32 mu = ModSwitchToTorus32(1, 8);
    TLweSample acc = EncryptConst(mu);
    for (int i = 0; i < 32; ++i) {
        TGswSampleFft bit = EncryptBitFft(i % 2);
        TLweSample other = EncryptConst(mu);
        TLweSample next;
        TGswCMux(next, bit, other, acc, fft_);
        acc = next;
    }
    EXPECT_LT(TorusDistance(TLwePhase(acc, key_).coefs[0], mu), 0.01);
}

TEST_F(TGswTest, ReusedScratchGivesBitIdenticalResults) {
    TGswSampleFft one = EncryptBitFft(1);
    ExternalProductScratch scratch;
    for (int32_t i = 0; i < 4; ++i) {
        TLweSample s = EncryptConst(ModSwitchToTorus32(i, 8));
        TLweSample with_scratch, without;
        TGswExternalProduct(with_scratch, one, s, fft_, &scratch);
        TGswExternalProduct(without, one, s, fft_);
        ASSERT_EQ(with_scratch.a.size(), without.a.size());
        for (size_t c = 0; c < without.a.size(); ++c)
            for (int32_t p = 0; p < params_.big_n; ++p)
                ASSERT_EQ(with_scratch.a[c].coefs[p], without.a[c].coefs[p])
                    << i << "," << c << "," << p;
    }
}

TEST_F(TGswTest, ExternalProductOnPolynomialMessage) {
    // Message with several nonzero coefficients survives multiply-by-1.
    TorusPolynomial msg(params_.big_n);
    for (int32_t i = 0; i < 8; ++i)
        msg.coefs[i * 4] = ModSwitchToTorus32(i % 4, 4);
    TLweSample s = TLweEncrypt(msg, params_.tlwe_noise_stddev, key_, rng_);
    TGswSampleFft one = EncryptBitFft(1);
    TLweSample result;
    TGswExternalProduct(result, one, s, fft_);
    TorusPolynomial phase = TLwePhase(result, key_);
    for (int32_t i = 0; i < 8; ++i)
        EXPECT_LT(TorusDistance(phase.coefs[i * 4], msg.coefs[i * 4]), 1e-4)
            << i;
}

/**
 * The external product composed from public primitives, one lane: the
 * reference decomposition, one forward transform per digit polynomial,
 * AddMul in (ci, j) row order on cleared accumulators, and the inverse.
 */
TLweSample ComposedExternalProduct(const TGswSampleFft& c,
                                   const TLweSample& sample,
                                   const NegacyclicFft& fft) {
    const int32_t k = sample.K();
    std::vector<IntPolynomial> dec;
    TGswDecompose(dec, sample, c.l, c.bg_bit);
    std::vector<FreqPolynomial> spectra(dec.size());
    for (size_t r = 0; r < dec.size(); ++r) fft.Forward(spectra[r], dec[r]);
    TLweSample out(sample.BigN(), k);
    for (int32_t col = 0; col <= k; ++col) {
        FreqPolynomial acc(fft.Half());
        acc.Clear();
        for (int32_t ci = 0; ci <= k; ++ci)
            for (int32_t j = 0; j < c.l; ++j)
                acc.AddMul(spectra[ci * c.l + j], c.rows[ci * c.l + j][col]);
        fft.InverseInPlace(out.a[col], acc);
    }
    return out;
}

bool SameWords(const TLweSample& a, const TLweSample& b) {
    if (a.K() != b.K() || a.BigN() != b.BigN()) return false;
    for (int32_t c = 0; c <= a.K(); ++c)
        if (std::memcmp(a.a[c].coefs.data(), b.a[c].coefs.data(),
                        a.BigN() * sizeof(Torus32)) != 0)
            return false;
    return true;
}

/**
 * TGswExternalProduct and TGswExternalProductBatch (b = 1..8, one lane an
 * all-zero sample) against ComposedExternalProduct, word for word.
 */
void ExpectProductsMatchComposition(const Params& p, uint64_t seed) {
    Rng rng(seed);
    const TLweKey key(p.big_n, p.k, rng);
    const NegacyclicFft& fft = GetFftPlan(p.big_n);
    const TGswSampleFft c = TGswToFft(
        TGswEncrypt(1, p.bk_l, p.bk_bg_bit, p.tlwe_noise_stddev, key, rng),
        fft);
    std::vector<TLweSample> samples;
    for (int32_t lane = 0; lane < 8; ++lane) {
        TLweSample s(p.big_n, p.k);
        if (lane != 5)
            for (auto& poly : s.a)
                for (auto& x : poly.coefs) x = rng.UniformTorus32();
        samples.push_back(std::move(s));
    }
    std::vector<TLweSample> want;
    for (const TLweSample& s : samples)
        want.push_back(ComposedExternalProduct(c, s, fft));

    ExternalProductScratch scratch;
    for (int32_t lane = 0; lane < 8; ++lane) {
        TLweSample got;
        TGswExternalProduct(got, c, samples[lane], fft, &scratch);
        EXPECT_TRUE(SameWords(got, want[lane])) << p.name << " lane " << lane;
    }
    BatchExternalProductScratch batch;
    for (int32_t b = 1; b <= 8; ++b) {
        std::vector<TLweSample> got;
        TGswExternalProductBatch(got, c, samples, b, fft, batch);
        for (int32_t lane = 0; lane < b; ++lane)
            EXPECT_TRUE(SameWords(got[lane], want[lane]))
                << p.name << " b=" << b << " lane " << lane;
    }
}

/**
 * TGswRotateCMux (b = 1..8) against TLweMulByXai, SubTo,
 * ComposedExternalProduct and AddTo, word for word, at rotations on and
 * around the wrap points.
 */
void ExpectRotateCMuxMatchesComposition(const Params& p, uint64_t seed) {
    Rng rng(seed);
    const TLweKey key(p.big_n, p.k, rng);
    const NegacyclicFft& fft = GetFftPlan(p.big_n);
    const TGswSampleFft c = TGswToFft(
        TGswEncrypt(1, p.bk_l, p.bk_bg_bit, p.tlwe_noise_stddev, key, rng),
        fft);
    const int32_t n = p.big_n;
    std::vector<TLweSample> accs;
    for (int32_t lane = 0; lane < 8; ++lane) {
        TLweSample s(n, p.k);
        for (auto& poly : s.a)
            for (auto& x : poly.coefs) x = rng.UniformTorus32();
        accs.push_back(std::move(s));
    }
    const int32_t rot[8] = {0, 1, n - 1, n, n + 3, 2 * n - 1, 5, 77};
    std::vector<TLweSample> want;
    for (int32_t lane = 0; lane < 8; ++lane) {
        TLweSample diff(n, p.k);
        TLweMulByXai(diff, rot[lane], accs[lane]);
        diff.SubTo(accs[lane]);
        TLweSample w = accs[lane];
        w.AddTo(ComposedExternalProduct(c, diff, fft));
        want.push_back(std::move(w));
    }
    std::vector<ExternalProductScratch> lanes(8);
    for (int32_t b = 1; b <= 8; ++b) {
        std::vector<TLweSample> got = accs;
        TGswRotateCMux(got.data(), rot, b, c, fft, lanes.data());
        for (int32_t lane = 0; lane < 8; ++lane)
            EXPECT_TRUE(SameWords(got[lane], lane < b ? want[lane]
                                                      : accs[lane]))
                << p.name << " b=" << b << " lane " << lane;
    }
}

TEST(TGswOracle, ExternalProductMatchesPrimitiveCompositionToy) {
    ExpectProductsMatchComposition(ToyParams(), 43);
    ExpectProductsMatchComposition(ToyMultibitParams(), 44);
}

TEST(TGswOracle, ExternalProductMatchesPrimitiveCompositionTfhe128) {
    ExpectProductsMatchComposition(Tfhe128Params(), 45);
}

TEST(TGswOracle, ExternalProductMatchesPrimitiveCompositionMultibit128) {
    ExpectProductsMatchComposition(MultibitParams(), 46);
}

TEST(TGswOracle, RotateCMuxMatchesPrimitiveCompositionToy) {
    ExpectRotateCMuxMatchesComposition(ToyParams(), 47);
    ExpectRotateCMuxMatchesComposition(ToyMultibitParams(), 48);
}

TEST(TGswOracle, RotateCMuxMatchesPrimitiveCompositionTfhe128) {
    ExpectRotateCMuxMatchesComposition(Tfhe128Params(), 49);
}

TEST(TGswOracle, RotateCMuxMatchesPrimitiveCompositionMultibit128) {
    ExpectRotateCMuxMatchesComposition(MultibitParams(), 50);
}

}  // namespace
}  // namespace pytfhe::tfhe
