/**
 * @file
 * Key switching on the signed-digit slab: the batched walk against
 * one-lane calls (word for word, b = 1..8 and a ragged wider batch), the
 * signed digit decomposition at its edge cases against an independent
 * reference, and the measured key-switch phase error at tfhe-128 against
 * the analytic variance of tfhe/noise.h.
 */
#include "tfhe/keyswitch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tfhe/fft_batch_kernels.h"
#include "tfhe/noise.h"
#include "tfhe/params.h"
#include "tfhe/tlwe.h"

namespace pytfhe::tfhe {
namespace {

/** A key-switching key from a fresh extracted ring key to a fresh LWE key. */
struct KskFixture {
    LweKey in_key, out_key;
    KeySwitchKey ksk;

    KskFixture(const Params& p, uint64_t seed) {
        Rng rng(seed);
        out_key = LweKey(p.n, rng);
        in_key = TLweKey(p.big_n, p.k, rng).ExtractLweKey();
        ksk = KeySwitchKey(in_key, out_key, p.ks_t, p.ks_base_bit,
                           p.lwe_noise_stddev, rng);
    }
};

LweSample UniformSample(int32_t n, Rng& rng) {
    LweSample s(n);
    for (Torus32& a : s.a) a = rng.UniformTorus32();
    s.b = rng.UniformTorus32();
    return s;
}

/**
 * Reference signed decomposition, least significant digit first with
 * explicit carries: round a to t digits of base B, then take each digit
 * in [-B/2, B/2). Returns digits[j] for j = 0 (most significant) .. t-1.
 */
std::vector<int32_t> ReferenceDigits(uint32_t a, int32_t t, int32_t base_bit) {
    const int32_t base = 1 << base_bit;
    const int32_t bits = t * base_bit;
    const uint32_t rounded = a + (UINT32_C(1) << (32 - (1 + bits)));
    uint64_t x = rounded >> (32 - bits);
    std::vector<int32_t> digits(t);
    for (int32_t j = t - 1; j >= 0; --j) {
        int32_t d = static_cast<int32_t>(x & (base - 1));
        x >>= base_bit;
        if (d >= base / 2) {
            d -= base;
            ++x;  // A carry out of the top digit vanishes mod 1.
        }
        digits[j] = d;
    }
    return digits;
}

/** out = (0, in.b) - sum over digits of sign(d) * row(i, j, |d|). */
LweSample ReferenceKeySwitch(const KeySwitchKey& ksk, const LweSample& in) {
    const int32_t n = ksk.OutputN();
    LweSample out(n);
    out.b = in.b;
    for (int32_t i = 0; i < ksk.InputN(); ++i) {
        const std::vector<int32_t> d =
            ReferenceDigits(in.a[i], ksk.T(), ksk.BaseBit());
        for (int32_t j = 0; j < ksk.T(); ++j) {
            if (d[j] == 0) continue;
            const Torus32* row = ksk.Row(i, j, std::abs(d[j]));
            for (int32_t c = 0; c <= n; ++c) {
                Torus32& word = c < n ? out.a[c] : out.b;
                if (d[j] > 0)
                    word -= row[c];
                else
                    word += row[c];
            }
        }
    }
    return out;
}

double SignedTorus(Torus32 x) { return Torus32ToDouble(x); }

void ExpectBatchMatchesOneLaneCalls(const Params& p, uint64_t seed) {
    KskFixture f(p, seed);
    Rng rng(seed + 1);
    for (int32_t b : {1, 2, 3, 4, 5, 6, 7, 8, 11}) {
        std::vector<LweSample> in;
        for (int32_t l = 0; l < b; ++l)
            in.push_back(UniformSample(f.in_key.N(), rng));
        // Outputs start as garbage: the result must not depend on them.
        std::vector<LweSample> batched, single;
        std::vector<LweView> views;
        for (int32_t l = 0; l < b; ++l) {
            batched.push_back(UniformSample(p.n, rng));
            single.push_back(UniformSample(p.n, rng));
        }
        for (LweSample& s : batched) views.push_back(ViewOf(s));
        f.ksk.ApplyBatchInto(in.data(), views.data(), b);
        for (int32_t l = 0; l < b; ++l) {
            f.ksk.ApplyInto(in[l], ViewOf(single[l]));
            EXPECT_EQ(batched[l].a, single[l].a) << p.name << " b=" << b
                                                 << " lane " << l;
            EXPECT_EQ(batched[l].b, single[l].b) << p.name << " b=" << b
                                                 << " lane " << l;
            const LweSample applied = f.ksk.Apply(in[l]);
            EXPECT_EQ(applied.a, single[l].a) << p.name << " lane " << l;
            EXPECT_EQ(applied.b, single[l].b) << p.name << " lane " << l;
        }
    }
}

TEST(KeySwitch, StoresOnlySignedDigitRows) {
    const Params p = ToyParams();
    KskFixture f(p, 1);
    const KeySwitchKey& k = f.ksk;
    EXPECT_EQ(k.RowsPerDigit(), (1 << p.ks_base_bit) / 2);
    EXPECT_EQ(k.NumRows(), static_cast<size_t>(k.InputN()) * k.T() *
                               k.RowsPerDigit());
    // Rows are 64-byte aligned and padded: mask + body rounded up to 16.
    const size_t stride = (static_cast<size_t>(k.OutputN()) + 1 + 15) / 16 *
                          16;
    EXPECT_EQ(k.ByteSize(), k.NumRows() * stride * sizeof(Torus32));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(k.Row(0, 0, 1)) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(k.Row(1, 2, 2)) % 64, 0u);
    // Row (i, j, v) decrypts to v * s_i / B^{j+1} under the output key.
    const int32_t n = k.OutputN();
    for (int32_t i : {0, 5, k.InputN() - 1})
        for (int32_t j = 0; j < k.T(); ++j)
            for (int32_t v = 1; v <= k.RowsPerDigit(); ++v) {
                LweSample row(n);
                std::copy(k.Row(i, j, v), k.Row(i, j, v) + n, row.a.begin());
                row.b = k.Row(i, j, v)[n];
                const Torus32 mu = static_cast<uint32_t>(v * f.in_key.key[i])
                                   << (32 - k.BaseBit() * (j + 1));
                EXPECT_LT(std::abs(SignedTorus(LwePhase(row, f.out_key) - mu)),
                          1e-6)
                    << i << "," << j << "," << v;
            }
}

TEST(KeySwitch, BatchMatchesOneLaneCallsWordForWordToy) {
    ExpectBatchMatchesOneLaneCalls(ToyParams(), 11);
    ExpectBatchMatchesOneLaneCalls(ToyMultibitParams(), 12);
}

TEST(KeySwitch, BatchMatchesOneLaneCallsWordForWordTfhe128) {
    ExpectBatchMatchesOneLaneCalls(Tfhe128Params(), 13);
}

TEST(KeySwitch, BatchMatchesOneLaneCallsAcrossLaneGroups) {
    // Rows of 2,016 words leave room for four lanes in the accumulator,
    // so wider batches walk the key once per group of four.
    Rng rng(14);
    const LweKey in_key(16, rng), out_key(2000, rng);
    const KeySwitchKey ksk(in_key, out_key, 8, 2, 1e-9, rng);
    for (int32_t b : {1, 4, 5, 9}) {
        std::vector<LweSample> in, batched, single;
        std::vector<LweView> views;
        for (int32_t l = 0; l < b; ++l) {
            in.push_back(UniformSample(in_key.N(), rng));
            batched.push_back(UniformSample(out_key.N(), rng));
            single.push_back(UniformSample(out_key.N(), rng));
        }
        for (LweSample& s : batched) views.push_back(ViewOf(s));
        ksk.ApplyBatchInto(in.data(), views.data(), b);
        for (int32_t l = 0; l < b; ++l) {
            ksk.ApplyInto(in[l], ViewOf(single[l]));
            EXPECT_EQ(batched[l].a, single[l].a) << "b=" << b << " " << l;
            EXPECT_EQ(batched[l].b, single[l].b) << "b=" << b << " " << l;
            EXPECT_EQ(batched[l].b, ReferenceKeySwitch(ksk, in[l]).b);
        }
    }
}

TEST(KeySwitch, EveryTierWalkMatchesPortableWordForWord) {
    using batch_detail::FftKernel;
    std::vector<std::pair<const char*, const FftKernel*>> tiers;
    if (batch_detail::SimdAvailable())
        tiers.emplace_back("avx2", &batch_detail::kAvx2Fft);
    if (batch_detail::Simd512Available())
        tiers.emplace_back("avx512f", &batch_detail::kAvx512Fft);
    if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
    for (const Params& p : {ToyParams(), Tfhe128Params()}) {
        KskFixture f(p, 15);
        Rng rng(16);
        const KeySwitchKey& ksk = f.ksk;
        // Rows are n_out + 1 words padded to a multiple of 16.
        const batch_detail::KeySwitchSlab slab{
            ksk.Row(0, 0, 1), (static_cast<size_t>(p.n) + 16) / 16 * 16,
            ksk.InputN(), ksk.OutputN(), ksk.T(), ksk.BaseBit()};
        for (int32_t b : {1, 3, 8}) {
            std::vector<LweSample> in, want, got;
            for (int32_t l = 0; l < b; ++l) {
                in.push_back(UniformSample(f.in_key.N(), rng));
                want.push_back(UniformSample(p.n, rng));
            }
            std::vector<LweView> want_views;
            for (LweSample& s : want) want_views.push_back(ViewOf(s));
            batch_detail::kPortableFft.ks_walk(slab, in.data(),
                                               want_views.data(), b);
            EXPECT_EQ(want[0].b, ReferenceKeySwitch(ksk, in[0]).b);
            for (const auto& [name, tier] : tiers) {
                got.assign(b, LweSample(p.n));
                std::vector<LweView> views;
                for (LweSample& s : got) views.push_back(ViewOf(s));
                tier->ks_walk(slab, in.data(), views.data(), b);
                for (int32_t l = 0; l < b; ++l) {
                    EXPECT_EQ(got[l].a, want[l].a)
                        << name << " " << p.name << " b=" << b << " " << l;
                    EXPECT_EQ(got[l].b, want[l].b)
                        << name << " " << p.name << " b=" << b << " " << l;
                }
            }
        }
    }
}

TEST(KeySwitch, RejectsOutputDimensionBeyondAccumulator) {
    EXPECT_THROW(KeySwitchKey(4, KeySwitchKey::kMaxOutputN + 1, 8, 2),
                 std::invalid_argument);
    EXPECT_NO_THROW(KeySwitchKey(1, KeySwitchKey::kMaxOutputN, 1, 2));
}

TEST(KeySwitch, DigitEdgeCasesMatchReferenceDecomposition) {
    const Params p = ToyParams();
    KskFixture f(p, 21);
    const int32_t t = p.ks_t;
    const int32_t bb = p.ks_base_bit;
    const int32_t base = 1 << bb;
    const int32_t bits = t * bb;

    // Every digit -B/2: the t-digit integer -sum_j (B/2) B^j mod B^t in
    // the top bits, with the rounding bit clear.
    const uint64_t modulus = UINT64_C(1) << bits;
    uint64_t half_digits = 0;
    for (int32_t j = 0; j < t; ++j) half_digits = half_digits * base + base / 2;
    const uint32_t all_neg_a = static_cast<uint32_t>(
        ((modulus - half_digits) % modulus) << (32 - bits));
    for (int32_t d : ReferenceDigits(all_neg_a, t, bb))
        ASSERT_EQ(d, -base / 2);

    // A carry out of the top digit: rounding carries all the way up.
    const uint32_t carry_a = ~UINT32_C(0) << (32 - bits - 1);
    for (int32_t d : ReferenceDigits(carry_a, t, bb)) ASSERT_EQ(d, 0);
    const uint32_t top_carry_a = UINT32_C(0x7FFFFFFF);  // Digit 0 wraps.

    const std::vector<uint32_t> edges = {0,
                                         ~UINT32_C(0),
                                         all_neg_a,
                                         carry_a,
                                         top_carry_a,
                                         UINT32_C(0x80000000),
                                         UINT32_C(1) << (32 - bits - 1),
                                         (UINT32_C(1) << (32 - bits - 1)) - 1,
                                         UINT32_C(0x55555555),
                                         UINT32_C(0xAAAAAAAA)};
    Rng rng(22);
    const int32_t n_in = f.in_key.N();
    // One sample per edge value (every coefficient equal to it), plus
    // samples whose coefficients cycle through all edges.
    std::vector<LweSample> in;
    for (uint32_t e : edges) {
        LweSample s(n_in);
        for (Torus32& a : s.a) a = e;
        s.b = rng.UniformTorus32();
        in.push_back(s);
    }
    for (int32_t r = 0; r < 3; ++r) {
        LweSample s(n_in);
        for (int32_t i = 0; i < n_in; ++i)
            s.a[i] = edges[(i + r) % edges.size()];
        s.b = rng.UniformTorus32();
        in.push_back(s);
    }
    std::vector<LweSample> out(in.size(), LweSample(p.n));
    std::vector<LweView> views;
    for (LweSample& s : out) views.push_back(ViewOf(s));
    for (size_t l0 = 0; l0 < in.size(); l0 += 8) {
        const int32_t b =
            static_cast<int32_t>(std::min<size_t>(8, in.size() - l0));
        f.ksk.ApplyBatchInto(in.data() + l0, views.data() + l0, b);
    }
    for (size_t l = 0; l < in.size(); ++l) {
        const LweSample want = ReferenceKeySwitch(f.ksk, in[l]);
        EXPECT_EQ(out[l].a, want.a) << "sample " << l;
        EXPECT_EQ(out[l].b, want.b) << "sample " << l;
        // The phase survives: in-key phase minus out-key phase is the
        // rounding of each coefficient plus the key noise.
        const double err = SignedTorus(LwePhase(out[l], f.out_key) -
                                       LwePhase(in[l], f.in_key));
        EXPECT_LT(std::abs(err), n_in * std::ldexp(1.0, -(bits + 1)) + 1e-6)
            << "sample " << l;
    }
}

TEST(KeySwitch, MeasuredPhaseErrorWithinPredictionTfhe128) {
    // Noise-free inputs under the extracted key (phase exactly m), so the
    // output phase error is the key switch's alone: key noise of at most
    // t rows per coefficient plus the rounding of each coefficient.
    const Params p = Tfhe128Params();
    const NoiseAnalysis model = AnalyzeNoise(p);
    const double sigma_pred = std::sqrt(model.key_switch_variance);
    KskFixture f(p, 31);
    Rng rng(32);
    constexpr int32_t kSamples = 2048;
    constexpr int32_t kLanes = 8;
    const int32_t n_in = f.in_key.N();
    std::vector<LweSample> in(kLanes, LweSample(n_in));
    std::vector<LweSample> out(kLanes, LweSample(p.n));
    std::vector<LweView> views;
    for (LweSample& s : out) views.push_back(ViewOf(s));
    std::vector<Torus32> msg(kLanes);
    double sum_sq = 0, max_abs = 0;
    for (int32_t done = 0; done < kSamples; done += kLanes) {
        for (int32_t l = 0; l < kLanes; ++l) {
            msg[l] = rng.UniformTorus32();
            Torus32 b = msg[l];
            for (int32_t i = 0; i < n_in; ++i) {
                in[l].a[i] = rng.UniformTorus32();
                b += in[l].a[i] * static_cast<uint32_t>(f.in_key.key[i]);
            }
            in[l].b = b;
        }
        f.ksk.ApplyBatchInto(in.data(), views.data(), kLanes);
        for (int32_t l = 0; l < kLanes; ++l) {
            const double err =
                SignedTorus(LwePhase(out[l], f.out_key) - msg[l]);
            sum_sq += err * err;
            max_abs = std::max(max_abs, std::abs(err));
        }
    }
    const double measured = sum_sq / kSamples;
    EXPECT_LE(measured, model.key_switch_variance)
        << "measured " << measured << " predicted "
        << model.key_switch_variance;
    EXPECT_LE(max_abs, 6.0 * sigma_pred);
    // Not vacuous: the key noise is really there.
    EXPECT_GT(measured, model.key_switch_variance / 10.0);
}

}  // namespace
}  // namespace pytfhe::tfhe
