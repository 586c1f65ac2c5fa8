#include "tfhe/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <utility>
#include <vector>

#include "tfhe/fft_batch_kernels.h"
#include "tfhe/rng.h"

namespace pytfhe::tfhe {
namespace {

// Max absolute torus error (as uint32 distance) between two polynomials.
uint32_t MaxError(const TorusPolynomial& a, const TorusPolynomial& b) {
    uint32_t max_err = 0;
    for (int32_t i = 0; i < a.Size(); ++i) {
        const uint32_t d = a.coefs[i] - b.coefs[i];
        const uint32_t err = std::min(d, static_cast<uint32_t>(-d));
        max_err = std::max(max_err, err);
    }
    return max_err;
}

class FftParamTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(FftParamTest, MatchesNaiveWithSmallDigits) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(11);
    IntPolynomial a(n);
    TorusPolynomial b(n), expected(n), got(n);
    // Digits like gadget decomposition output: [-128, 128).
    for (auto& c : a.coefs)
        c = static_cast<int32_t>(rng.UniformBelow(256)) - 128;
    for (auto& c : b.coefs) c = rng.UniformTorus32();

    NaiveNegacyclicMul(expected, a, b);
    fft.Multiply(got, a, b);
    // Round-off must stay far below the noise budget (2^-15 of the torus
    // is about 1.3e5 in uint32 units); allow 2^8.
    EXPECT_LE(MaxError(expected, got), 256u) << "n=" << n;
}

TEST_P(FftParamTest, ForwardInverseRoundTrip) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(12);
    TorusPolynomial p(n), back(n);
    for (auto& c : p.coefs) c = rng.UniformTorus32();
    FreqPolynomial f;
    fft.Forward(f, p);
    fft.Inverse(back, f);
    EXPECT_LE(MaxError(p, back), 16u) << "n=" << n;
}

TEST_P(FftParamTest, FoldedMatchesReferenceFftOnAdversarialDigits) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    const ReferenceFft ref(n);
    Rng rng(21);
    IntPolynomial a(n);
    TorusPolynomial b(n), want(n), got(n);
    // Max-magnitude digits, the worst case TGswDecompose can emit at
    // bg_bit = 8, with uniform torus coefficients on the other side.
    for (auto& c : a.coefs) c = rng.UniformBit() ? 128 : -128;
    for (auto& c : b.coefs) c = rng.UniformTorus32();

    ref.Multiply(want, a, b);
    fft.Multiply(got, a, b);
    // Both paths round the same exact product; they may land on opposite
    // sides of a rounding boundary, never further apart.
    EXPECT_LE(MaxError(want, got), 2u) << "n=" << n;
}

// Independent oracle: schoolbook negacyclic convolution with int64
// accumulation, reduced mod 2^32 at the end.
TorusPolynomial SchoolbookInt64(const IntPolynomial& a,
                                const TorusPolynomial& b) {
    const int32_t n = a.Size();
    TorusPolynomial out(n);
    for (int32_t j = 0; j < n; ++j) {
        int64_t acc = 0;
        for (int32_t i = 0; i <= j; ++i)
            acc += static_cast<int64_t>(a.coefs[i]) *
                   static_cast<int32_t>(b.coefs[j - i]);
        for (int32_t i = j + 1; i < n; ++i)
            acc -= static_cast<int64_t>(a.coefs[i]) *
                   static_cast<int32_t>(b.coefs[n + j - i]);
        out.coefs[j] = static_cast<Torus32>(static_cast<uint64_t>(acc));
    }
    return out;
}

TEST_P(FftParamTest, MatchesSchoolbookWithAdversarialDigits) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(22);
    IntPolynomial a(n);
    TorusPolynomial b(n), got(n);
    for (auto& c : a.coefs) c = rng.UniformBit() ? 128 : -128;
    for (auto& c : b.coefs) c = rng.UniformTorus32();

    const TorusPolynomial want = SchoolbookInt64(a, b);
    fft.Multiply(got, a, b);
    // Intermediates reach N * 128 * 2^31 <= 2^49 < 2^53; the double FFT
    // resolves the exact integer to within a couple of final-rounding ULPs.
    EXPECT_LE(MaxError(want, got), 2u) << "n=" << n;
}

TEST_P(FftParamTest, ExactlyMatchesSchoolbookWithBoundedTorus) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(23);
    IntPolynomial a(n);
    TorusPolynomial b(n), got(n);
    // Products bounded by N * 128 * 2^20 <= 2^38: FFT round-off is far
    // below 1/2, so rounding recovers the exact Torus32 result.
    for (auto& c : a.coefs) c = rng.UniformBit() ? 128 : -128;
    for (auto& c : b.coefs)
        c = static_cast<Torus32>(rng.UniformBelow(1u << 21)) - (1u << 20);

    const TorusPolynomial want = SchoolbookInt64(a, b);
    fft.Multiply(got, a, b);
    for (int32_t i = 0; i < n; ++i)
        ASSERT_EQ(want.coefs[i], got.coefs[i]) << "n=" << n << " i=" << i;
}

TEST_P(FftParamTest, ForwardInverseRoundTripIsExact) {
    const int32_t n = GetParam();
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(24);
    TorusPolynomial p(n), back(n);
    // Adversarial extremes plus uniform fill: spectra stay <= N * 2^31,
    // so the inverse rounds back to the exact input coefficients.
    p.coefs[0] = UINT32_C(0x80000000);
    p.coefs[n - 1] = UINT32_C(0x7FFFFFFF);
    for (int32_t i = 1; i < n - 1; ++i) p.coefs[i] = rng.UniformTorus32();

    FreqPolynomial f;
    fft.Forward(f, p);
    fft.InverseInPlace(back, f);
    for (int32_t i = 0; i < n; ++i)
        ASSERT_EQ(p.coefs[i], back.coefs[i]) << "n=" << n << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftParamTest,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048));

TEST(Fft, MultiplyByXaiMatchesExactRotation) {
    const int32_t n = 128;
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(13);
    TorusPolynomial p(n), exact(n), via_fft(n);
    for (auto& c : p.coefs) c = rng.UniformTorus32();
    for (int32_t shift : {1, 7, 63, 127}) {
        IntPolynomial xa(n);
        xa.coefs[shift] = 1;
        MulByXai(exact, shift, p);
        fft.Multiply(via_fft, xa, p);
        EXPECT_LE(MaxError(exact, via_fft), 16u) << "shift=" << shift;
    }
}

TEST(Fft, LinearityInFrequencyDomain) {
    const int32_t n = 256;
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(14);
    IntPolynomial a1(n), a2(n);
    TorusPolynomial b(n);
    for (auto& c : a1.coefs) c = static_cast<int32_t>(rng.UniformBelow(16)) - 8;
    for (auto& c : a2.coefs) c = static_cast<int32_t>(rng.UniformBelow(16)) - 8;
    for (auto& c : b.coefs) c = rng.UniformTorus32();

    // (a1 + a2) * b == a1 * b + a2 * b, computed via accumulation.
    FreqPolynomial fa1, fa2, fb, acc(fft.Half());
    fft.Forward(fa1, a1);
    fft.Forward(fa2, a2);
    fft.Forward(fb, b);
    acc.AddMul(fa1, fb);
    acc.AddMul(fa2, fb);
    TorusPolynomial sum_freq(n);
    fft.Inverse(sum_freq, acc);

    IntPolynomial a12(n);
    for (int32_t i = 0; i < n; ++i) a12.coefs[i] = a1.coefs[i] + a2.coefs[i];
    TorusPolynomial exact(n);
    NaiveNegacyclicMul(exact, a12, b);

    EXPECT_LE(MaxError(exact, sum_freq), 64u);
}

TEST(Fft, PlanCacheReturnsSameInstance) {
    const NegacyclicFft& a = GetFftPlan(128);
    const NegacyclicFft& b = GetFftPlan(128);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.Size(), 128);
}

TEST(Fft, ZeroTimesAnythingIsZero) {
    const int32_t n = 64;
    const NegacyclicFft& fft = GetFftPlan(n);
    Rng rng(15);
    IntPolynomial zero(n);
    TorusPolynomial b(n), r(n);
    for (auto& c : b.coefs) c = rng.UniformTorus32();
    fft.Multiply(r, zero, b);
    for (auto c : r.coefs) EXPECT_EQ(c, 0u);
}

bool SameWords(const double* a, const double* b, int32_t count) {
    return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(double)) ==
           0;
}

/** Uniform double in (-2^bits, 2^bits), not an integer in general. */
double RandomDouble(Rng& rng, int bits) {
    return std::ldexp(static_cast<double>(rng.UniformTorus32()) - 2147483648.5,
                      bits - 31);
}

TEST(Fft, EveryTierMatchesPortableWordForWord) {
    using batch_detail::FftKernel;
    std::vector<std::pair<const char*, const FftKernel*>> tiers;
    if (batch_detail::SimdAvailable())
        tiers.emplace_back("avx2", &batch_detail::kAvx2Fft);
    if (batch_detail::Simd512Available())
        tiers.emplace_back("avx512f", &batch_detail::kAvx512Fft);
    if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
    const FftKernel& portable = batch_detail::kPortableFft;
    Rng rng(31);
    for (int32_t n = 2; n <= 2048; n *= 2) {
        const NegacyclicFft& plan = GetFftPlan(n);
        const int32_t h = n / 2;
        // Forward input: packed gadget digits. Inverse input: spectra of
        // key-product size (|x| < 2^40), rounding with wrap-around.
        // AddMul: arbitrary doubles.
        FreqPolynomial digits(h), spectrum(h), acc(h), a(h), b(h);
        for (int32_t j = 0; j < h; ++j) {
            digits.Re()[j] = static_cast<int32_t>(rng.UniformBelow(256)) - 128;
            digits.Im()[j] = static_cast<int32_t>(rng.UniformBelow(256)) - 128;
            spectrum.Re()[j] = RandomDouble(rng, 40);
            spectrum.Im()[j] = RandomDouble(rng, 40);
            for (FreqPolynomial* f : {&acc, &a, &b}) {
                f->Re()[j] = RandomDouble(rng, 30);
                f->Im()[j] = RandomDouble(rng, 30);
            }
        }
        FreqPolynomial fwd_want = digits, inv_in = spectrum, sum_want = acc;
        TorusPolynomial inv_want(n), add_want(n);
        for (auto& c : add_want.coefs) c = rng.UniformTorus32();
        const TorusPolynomial add_base = add_want;
        portable.forward(plan, fwd_want.Re(), fwd_want.Im());
        FreqPolynomial add_in = inv_in;
        portable.inverse(plan, inv_in.Re(), inv_in.Im(),
                         inv_want.coefs.data());
        portable.inverse_add(plan, add_in.Re(), add_in.Im(),
                             add_want.coefs.data());
        for (int32_t j = 0; j < n; ++j)
            EXPECT_EQ(add_want.coefs[j],
                      static_cast<Torus32>(add_base.coefs[j] +
                                           inv_want.coefs[j]))
                << "portable inverse_add, N=" << n << " j=" << j;
        portable.add_mul(sum_want.Re(), sum_want.Im(), a.Re(), a.Im(),
                         b.Re(), b.Im(), h);
        for (const auto& [name, tier] : tiers) {
            // Below min_half the plan runs the portable body instead.
            if (h < tier->min_half) continue;
            FreqPolynomial fwd = digits, inv = spectrum, sum = acc;
            FreqPolynomial add = spectrum;
            TorusPolynomial inv_got(n), add_got = add_base;
            tier->forward(plan, fwd.Re(), fwd.Im());
            tier->inverse(plan, inv.Re(), inv.Im(), inv_got.coefs.data());
            tier->inverse_add(plan, add.Re(), add.Im(),
                              add_got.coefs.data());
            tier->add_mul(sum.Re(), sum.Im(), a.Re(), a.Im(), b.Re(), b.Im(),
                          h);
            EXPECT_TRUE(SameWords(fwd.Re(), fwd_want.Re(), h) &&
                        SameWords(fwd.Im(), fwd_want.Im(), h))
                << name << " forward, N=" << n;
            EXPECT_EQ(std::memcmp(inv_got.coefs.data(),
                                  inv_want.coefs.data(),
                                  static_cast<size_t>(n) * sizeof(Torus32)),
                      0)
                << name << " inverse, N=" << n;
            EXPECT_EQ(add_got.coefs, add_want.coefs)
                << name << " inverse_add, N=" << n;
            EXPECT_TRUE(SameWords(sum.Re(), sum_want.Re(), h) &&
                        SameWords(sum.Im(), sum_want.Im(), h))
                << name << " add_mul, N=" << n;
        }
    }
}

TEST(Fft, EveryTierMatchesPortableForDigitsAndMulAccWordForWord) {
    using batch_detail::FftKernel;
    std::vector<std::pair<const char*, const FftKernel*>> tiers;
    if (batch_detail::SimdAvailable())
        tiers.emplace_back("avx2", &batch_detail::kAvx2Fft);
    if (batch_detail::Simd512Available())
        tiers.emplace_back("avx512f", &batch_detail::kAvx512Fft);
    // No skip without a vector tier: the portable entries are also
    // checked against their definitions.
    const FftKernel& portable = batch_detail::kPortableFft;
    Rng rng(33);
    // (l, bg_bit) of the shipped sets plus a deep one; (rows, cols) of
    // k = 1 at l = 3 and 4, k = 2, and more rows than one pointer block.
    const std::pair<int32_t, int32_t> gadgets[] = {{3, 7}, {3, 8}, {4, 6},
                                                   {10, 3}};
    const std::pair<int32_t, int32_t> shapes[] = {{6, 2}, {8, 2}, {9, 3},
                                                  {20, 1}};
    for (int32_t n = 2; n <= 2048; n *= 2) {
        const NegacyclicFft& plan = GetFftPlan(n);
        const int32_t h = n / 2;
        TorusPolynomial coefs(n);
        for (auto& c : coefs.coefs) c = rng.UniformTorus32();
        // Rotations: none (plain decompose), then on and around the wrap
        // points, where a vector straddles the sign change.
        const int32_t rots[] = {-1, 0, 1, 3, n - 1, n, n + 5, 2 * n - 1};
        for (const auto& [l, bg_bit] : gadgets)
            for (const int32_t rot : rots) {
                const uint32_t offset = rng.UniformTorus32();
                auto run = [&](const FftKernel& kernel,
                               std::vector<FreqPolynomial>& dec) {
                    if (rot < 0)
                        kernel.forward_digits(plan, dec.data(),
                                              coefs.coefs.data(), l, bg_bit,
                                              offset);
                    else
                        kernel.forward_rotated_digits(
                            plan, dec.data(), coefs.coefs.data(), rot, l,
                            bg_bit, offset);
                };
                std::vector<FreqPolynomial> want(l, FreqPolynomial(h));
                run(portable, want);
                // The portable entry against digits packed by hand from
                // (X^rot - 1) * coefs, then the plain forward transform.
                TorusPolynomial src = coefs;
                if (rot >= 0) {
                    MulByXai(src, rot, coefs);
                    src.SubTo(coefs);
                }
                for (int32_t j = 0; j < l; ++j) {
                    const int32_t shift = 32 - bg_bit * (j + 1);
                    auto digit = [&](int32_t p) {
                        const uint32_t t = src.coefs[p] + offset;
                        return static_cast<double>(
                            static_cast<int32_t>((t >> shift) &
                                                 ((1u << bg_bit) - 1)) -
                            (1 << (bg_bit - 1)));
                    };
                    FreqPolynomial packed(h);
                    for (int32_t p = 0; p < h; ++p) {
                        packed.Re()[p] = digit(p);
                        packed.Im()[p] = digit(p + h);
                    }
                    portable.forward(plan, packed.Re(), packed.Im());
                    EXPECT_TRUE(SameWords(packed.Re(), want[j].Re(), h) &&
                                SameWords(packed.Im(), want[j].Im(), h))
                        << "portable forward_digits, N=" << n << " l=" << l
                        << " rot=" << rot << " digit " << j;
                }
                for (const auto& [name, tier] : tiers) {
                    if (h < tier->min_half) continue;
                    std::vector<FreqPolynomial> got(l, FreqPolynomial(h));
                    run(*tier, got);
                    for (int32_t j = 0; j < l; ++j)
                        EXPECT_TRUE(SameWords(got[j].Re(), want[j].Re(), h) &&
                                    SameWords(got[j].Im(), want[j].Im(), h))
                            << name << " forward_digits, N=" << n << " l=" << l
                            << " rot=" << rot << " digit " << j;
                }
            }
        for (const auto& [rows, cols] : shapes) {
            std::vector<FreqPolynomial> dec(rows, FreqPolynomial(h));
            std::vector<std::vector<FreqPolynomial>> key(
                rows, std::vector<FreqPolynomial>(cols, FreqPolynomial(h)));
            for (int32_t r = 0; r < rows; ++r)
                for (int32_t j = 0; j < h; ++j) {
                    dec[r].Re()[j] = RandomDouble(rng, 20);
                    dec[r].Im()[j] = RandomDouble(rng, 20);
                    for (FreqPolynomial& f : key[r]) {
                        f.Re()[j] = RandomDouble(rng, 30);
                        f.Im()[j] = RandomDouble(rng, 30);
                    }
                }
            // The portable entry over the whole range, and over two
            // halves, against AddMul on cleared accumulators.
            std::vector<FreqPolynomial> want(cols, FreqPolynomial(h));
            for (int32_t c = 0; c < cols; ++c)
                for (int32_t r = 0; r < rows; ++r)
                    portable.add_mul(want[c].Re(), want[c].Im(), dec[r].Re(),
                                     dec[r].Im(), key[r][c].Re(),
                                     key[r][c].Im(), h);
            std::vector<std::pair<const char*, const FftKernel*>> all = tiers;
            all.emplace_back("portable", &portable);
            for (const auto& [name, tier] : all) {
                if (h < tier->min_half) continue;
                std::vector<FreqPolynomial> got(cols, FreqPolynomial(h));
                const int32_t mid = h > tier->min_half ? h / 2 : h;
                tier->mul_acc(got.data(), dec.data(), key.data(), rows, cols,
                              0, mid);
                tier->mul_acc(got.data(), dec.data(), key.data(), rows, cols,
                              mid, h);
                for (int32_t c = 0; c < cols; ++c)
                    EXPECT_TRUE(SameWords(got[c].Re(), want[c].Re(), h) &&
                                SameWords(got[c].Im(), want[c].Im(), h))
                        << name << " mul_acc, N=" << n << " rows=" << rows
                        << " column " << c;
            }
        }
    }
}

/**
 * Direct O(h^2) evaluation of the folded transform: the twisted row
 * a_j = (p[j] - i*p[j+h]) * exp(-i*pi*j/N) at the h-th roots of unity,
 * evaluation m = sum_j a_j exp(-2*pi*i*j*m/h).
 */
std::vector<std::complex<double>> DirectDft(const IntPolynomial& p) {
    const int32_t n = p.Size();
    const int32_t h = n / 2;
    const double pi = std::acos(-1.0);
    std::vector<std::complex<double>> out(h);
    for (int32_t m = 0; m < h; ++m) {
        std::complex<double> sum = 0;
        for (int32_t j = 0; j < h; ++j) {
            const std::complex<double> a(p.coefs[j], -p.coefs[j + h]);
            sum += a * std::polar(1.0, -pi * j / n) *
                   std::polar(1.0, -2.0 * pi * ((int64_t{j} * m) % h) / h);
        }
        out[m] = sum;
    }
    return out;
}

TEST(Fft, ForwardSlotsAreBitReversedDft) {
    Rng rng(32);
    for (int32_t n = 2; n <= 512; n *= 2) {
        const NegacyclicFft& fft = GetFftPlan(n);
        const int32_t h = n / 2;
        IntPolynomial p(n);
        for (auto& c : p.coefs)
            c = static_cast<int32_t>(rng.UniformBelow(256)) - 128;
        FreqPolynomial f;
        fft.Forward(f, p);
        const std::vector<std::complex<double>> want = DirectDft(p);
        double scale = 1.0;
        for (const auto& x : want) scale = std::max(scale, std::abs(x));
        const std::vector<int32_t> slots = BitReversedSlots(h);
        for (int32_t m = 0; m < h; ++m) {
            // Relative to the row's largest evaluation.
            EXPECT_NEAR(f.Re()[slots[m]], want[m].real(), 1e-9 * scale)
                << "N=" << n << " m=" << m;
            EXPECT_NEAR(f.Im()[slots[m]], want[m].imag(), 1e-9 * scale)
                << "N=" << n << " m=" << m;
        }
    }
}

}  // namespace
}  // namespace pytfhe::tfhe
