/**
 * @file
 * The AVX-512F tier of the FFT kernel (see fft_batch_kernels.h): eight
 * slots per vector, the last three DIF stages (first three DIT stages) in
 * registers. The only TU built with -mavx512f; without it the tier is
 * empty and Simd512Available() is false.
 */
#include "tfhe/fft_kernel.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace pytfhe::tfhe::batch_detail {

#if defined(__AVX512F__)

namespace {

struct Avx512 {
    using V = __m512d;
    static constexpr int32_t kWidth = 8;

    /** Half-size-hb twiddles, lane i: w[hb + (i & (hb - 1))]. */
    V w4r, w4i, w2r, w2i;

    explicit Avx512(const NegacyclicFft& plan) {
        const double* wr = plan.TwiddleTable().Re();
        const double* wi = plan.TwiddleTable().Im();
        w4r = _mm512_setr_pd(wr[4], wr[5], wr[6], wr[7], wr[4], wr[5], wr[6],
                             wr[7]);
        w4i = _mm512_setr_pd(wi[4], wi[5], wi[6], wi[7], wi[4], wi[5], wi[6],
                             wi[7]);
        w2r = _mm512_setr_pd(wr[2], wr[3], wr[2], wr[3], wr[2], wr[3], wr[2],
                             wr[3]);
        w2i = _mm512_setr_pd(wi[2], wi[3], wi[2], wi[3], wi[2], wi[3], wi[2],
                             wi[3]);
    }

    static V Load(const double* p) { return _mm512_loadu_pd(p); }
    static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
    static V Set1(double x) { return _mm512_set1_pd(x); }
    static V Add(V a, V b) { return _mm512_add_pd(a, b); }
    static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
    static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
    static void StoreRounded(Torus32* out, V biased) {
        // vpmovqd: the low 32 bits of each lane, stored.
        _mm512_mask_cvtepi64_storeu_epi32(out, 0xFF,
                                          _mm512_castpd_si512(biased));
    }
    static void AddRounded(Torus32* out, V biased) {
        __m256i* p = reinterpret_cast<__m256i*>(out);
        // Zero-masked forms here and in Digits: GCC 12 warns on the
        // unmasked ones' undefined pass-through.
        const __m256i low =
            _mm512_maskz_cvtepi64_epi32(0xFF, _mm512_castpd_si512(biased));
        _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), low));
    }

    using W = __m256i;
    static W LoadWords(const Torus32* p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static W SetWords(uint32_t x) {
        return _mm256_set1_epi32(static_cast<int32_t>(x));
    }
    static W AddWords(W a, W b) { return _mm256_add_epi32(a, b); }
    static W SubWords(W a, W b) { return _mm256_sub_epi32(a, b); }
    static V Digits(W t, int32_t shift, W mask, W half) {
        const W u = _mm256_and_si256(
            _mm256_srl_epi32(t, _mm_cvtsi32_si128(shift)), mask);
        return _mm512_maskz_cvtepi32_pd(0xFF, _mm256_sub_epi32(u, half));
    }

    /**
     * For the in-vector stage of half-size hb, whose upper lanes (bit hb
     * set) are `upper`: every lane gets lo = x[i & ~hb] and hi = x[i | hb],
     * by moving the partner into the lanes where x is not already it. The
     * lanes then compute the butterfly with the portable body's
     * expressions and a blend keeps each lane's own output.
     */
    static void Pairs4(V x, __mmask8 upper, V& lo, V& hi) {
        lo = _mm512_mask_shuffle_f64x2(x, upper, x, x, 0x44);
        hi = _mm512_mask_shuffle_f64x2(x, static_cast<__mmask8>(~upper), x,
                                       x, 0xEE);
    }
    static void Pairs2(V x, __mmask8 upper, V& lo, V& hi) {
        lo = _mm512_mask_permutex_pd(x, upper, x, 0x44);
        hi = _mm512_mask_permutex_pd(x, static_cast<__mmask8>(~upper), x,
                                     0xEE);
    }
    static void Pairs1(V x, __mmask8 upper, V& lo, V& hi) {
        lo = _mm512_mask_unpacklo_pd(x, upper, x, x);
        hi = _mm512_mask_unpackhi_pd(x, static_cast<__mmask8>(~upper), x, x);
    }

    /** DIF stage inside the vector. */
    template <void (*kPairs)(V, __mmask8, V&, V&)>
    static void DifIn(V& re, V& im, __mmask8 upper, const V* wr,
                      const V* wi) {
        V lr, hr, li, hi;
        kPairs(re, upper, lr, hr);
        kPairs(im, upper, li, hi);
        V dr = Sub(lr, hr), di = Sub(li, hi);
        if (wr != nullptr) Twiddle<Avx512>(dr, di, *wr, *wi);
        re = _mm512_mask_blend_pd(upper, Add(lr, hr), dr);
        im = _mm512_mask_blend_pd(upper, Add(li, hi), di);
    }

    /** DIT stage inside the vector. */
    template <void (*kPairs)(V, __mmask8, V&, V&)>
    static void DitIn(V& re, V& im, __mmask8 upper, const V* wr,
                      const V* wi) {
        V lr, hr, li, hi;
        kPairs(re, upper, lr, hr);
        kPairs(im, upper, li, hi);
        if (wr != nullptr) TwiddleConj<Avx512>(hr, hi, *wr, *wi);
        re = _mm512_mask_blend_pd(upper, Add(lr, hr), Sub(lr, hr));
        im = _mm512_mask_blend_pd(upper, Add(li, hi), Sub(li, hi));
    }

    void TailForward(V& re, V& im) const {
        DifIn<Pairs4>(re, im, 0xF0, &w4r, &w4i);
        DifIn<Pairs2>(re, im, 0xCC, &w2r, &w2i);
        DifIn<Pairs1>(re, im, 0xAA, nullptr, nullptr);
    }

    void HeadInverse(V& re, V& im) const {
        DitIn<Pairs1>(re, im, 0xAA, nullptr, nullptr);
        DitIn<Pairs2>(re, im, 0xCC, &w2r, &w2i);
        DitIn<Pairs4>(re, im, 0xF0, &w4r, &w4i);
    }
};

}  // namespace

bool Simd512Available() {
    static const bool ok = __builtin_cpu_supports("avx512f");
    return ok;
}

const FftKernel kAvx512Fft = KernelOf<Avx512>(Avx512::kWidth);

#else  // Not built with -mavx512f: the tier is empty and never dispatched to.

bool Simd512Available() { return false; }

const FftKernel kAvx512Fft{};

#endif

}  // namespace pytfhe::tfhe::batch_detail
