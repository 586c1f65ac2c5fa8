/**
 * @file
 * The AVX2 tier of the FFT kernel (see fft_batch_kernels.h): four slots
 * per vector, the last two DIF stages (first two DIT stages) in registers.
 * The only TU built with -mavx2; without it the tier is empty and
 * SimdAvailable() is false.
 */
#include "tfhe/fft_kernel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pytfhe::tfhe::batch_detail {

#if defined(__AVX2__)

namespace {

struct Avx2 {
    using V = __m256d;
    static constexpr int32_t kWidth = 4;

    /** Half-size-2 twiddles, lane i: w[2 + (i & 1)]. */
    V w2r, w2i;

    explicit Avx2(const NegacyclicFft& plan) {
        const double* wr = plan.TwiddleTable().Re();
        const double* wi = plan.TwiddleTable().Im();
        w2r = _mm256_setr_pd(wr[2], wr[3], wr[2], wr[3]);
        w2i = _mm256_setr_pd(wi[2], wi[3], wi[2], wi[3]);
    }

    static V Load(const double* p) { return _mm256_loadu_pd(p); }
    static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
    static V Set1(double x) { return _mm256_set1_pd(x); }
    static V Add(V a, V b) { return _mm256_add_pd(a, b); }
    static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
    static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
    /** The low 32 bits of each lane's bit pattern. */
    static __m128i Rounded(V biased) {
        const __m256i low = _mm256_permutevar8x32_epi32(
            _mm256_castpd_si256(biased),
            _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
        return _mm256_castsi256_si128(low);
    }
    static void StoreRounded(Torus32* out, V biased) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out), Rounded(biased));
    }
    static void AddRounded(Torus32* out, V biased) {
        __m128i* p = reinterpret_cast<__m128i*>(out);
        _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), Rounded(biased)));
    }

    using W = __m128i;
    static W LoadWords(const Torus32* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    static W SetWords(uint32_t x) {
        return _mm_set1_epi32(static_cast<int32_t>(x));
    }
    static W AddWords(W a, W b) { return _mm_add_epi32(a, b); }
    static W SubWords(W a, W b) { return _mm_sub_epi32(a, b); }
    static V Digits(W t, int32_t shift, W mask, W half) {
        const W u = _mm_and_si128(_mm_srl_epi32(t, _mm_cvtsi32_si128(shift)),
                                  mask);
        return _mm256_cvtepi32_pd(_mm_sub_epi32(u, half));
    }

    /**
     * For the in-vector stage of half-size hb: every lane gets
     * lo = x[i & ~hb] and hi = x[i | hb], computes the butterfly with the
     * portable body's expressions, and a blend keeps each lane's own
     * output (the upper one where bit hb is set).
     */
    static void Pairs2(V x, V& lo, V& hi) {
        lo = _mm256_permute2f128_pd(x, x, 0x00);
        hi = _mm256_permute2f128_pd(x, x, 0x11);
    }
    static void Pairs1(V x, V& lo, V& hi) {
        lo = _mm256_unpacklo_pd(x, x);
        hi = _mm256_unpackhi_pd(x, x);
    }

    /** DIF stage inside the vector; kUpper has the lanes with bit hb. */
    template <void (*kPairs)(V, V&, V&), int kUpper>
    static void DifIn(V& re, V& im, const V* wr, const V* wi) {
        V lr, hr, li, hi;
        kPairs(re, lr, hr);
        kPairs(im, li, hi);
        V dr = Sub(lr, hr), di = Sub(li, hi);
        if (wr != nullptr) Twiddle<Avx2>(dr, di, *wr, *wi);
        re = _mm256_blend_pd(Add(lr, hr), dr, kUpper);
        im = _mm256_blend_pd(Add(li, hi), di, kUpper);
    }

    /** DIT stage inside the vector; kUpper has the lanes with bit hb. */
    template <void (*kPairs)(V, V&, V&), int kUpper>
    static void DitIn(V& re, V& im, const V* wr, const V* wi) {
        V lr, hr, li, hi;
        kPairs(re, lr, hr);
        kPairs(im, li, hi);
        if (wr != nullptr) TwiddleConj<Avx2>(hr, hi, *wr, *wi);
        re = _mm256_blend_pd(Add(lr, hr), Sub(lr, hr), kUpper);
        im = _mm256_blend_pd(Add(li, hi), Sub(li, hi), kUpper);
    }

    void TailForward(V& re, V& im) const {
        DifIn<Pairs2, 0b1100>(re, im, &w2r, &w2i);
        DifIn<Pairs1, 0b1010>(re, im, nullptr, nullptr);
    }

    void HeadInverse(V& re, V& im) const {
        DitIn<Pairs1, 0b1010>(re, im, nullptr, nullptr);
        DitIn<Pairs2, 0b1100>(re, im, &w2r, &w2i);
    }
};

}  // namespace

bool SimdAvailable() {
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
}

const FftKernel kAvx2Fft = KernelOf<Avx2>(Avx2::kWidth);

#else  // Not built with -mavx2: the tier is empty and never dispatched to.

bool SimdAvailable() { return false; }

const FftKernel kAvx2Fft{};

#endif

}  // namespace pytfhe::tfhe::batch_detail
