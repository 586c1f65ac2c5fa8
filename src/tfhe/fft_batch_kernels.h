/**
 * @file
 * Internal: the bootstrap's inner kernels at their three ISA tiers.
 *
 * One kernel body (fft_kernel.h) is compiled three times: portable in
 * fft.cc with the library's default flags, AVX2 in fft_avx2.cc (-mavx2)
 * and AVX-512F in fft_avx512.cc (-mavx512f). The vector TUs get their
 * flags only when PYTFHE_BATCH_SIMD is on and the target is x86-64;
 * without them their tier is empty and its probe reports false. On
 * aarch64 the portable body runs and -O3 autovectorizes it to NEON.
 *
 * A tier holds the negacyclic FFT and everything of the external product
 * and the key switch that runs beside it: the gadget decomposition into
 * the transform's packed input, the one-pass key multiply-accumulate, and
 * the key-switch walk over the signed-digit slab. Every tier evaluates the
 * same per-element expressions in the same order with mul/add/sub only (no
 * FMA; the library builds with -ffp-contract=off), and the integer steps
 * are exact, so every tier is bit-identical to the portable one.
 */
#ifndef PYTFHE_TFHE_FFT_BATCH_KERNELS_H
#define PYTFHE_TFHE_FFT_BATCH_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tfhe/fft.h"
#include "tfhe/lwe.h"

namespace pytfhe::tfhe::batch_detail {

/**
 * A key-switching key's slab and shape, as the walk reads them (see
 * keyswitch.h for the row layout).
 */
struct KeySwitchSlab {
    const Torus32* slab;
    size_t stride;  ///< Words per row, a multiple of 16.
    int32_t n_in, n_out, t, base_bit;
};

/**
 * Lanes whose accumulators one key-switch walk serves, and the words of
 * the on-stack accumulator buffer they share (32 KiB: eight padded rows of
 * n_out < 1024, fewer lanes for longer rows, one row of the longest). A
 * wider batch walks the key once per group.
 */
constexpr int32_t kKsLaneGroup = 8;
constexpr size_t kKsAccWords = 8 * 1024;

/** One tier of the kernel; see NegacyclicFft for the data layout. */
struct FftKernel {
    /**
     * In place: packed p (re[j] = p[j], im[j] = p[j + N/2]) -> its h
     * evaluations in bit-reversed slot order (twist, then DIF stages).
     */
    void (*forward)(const NegacyclicFft& plan, double* re, double* im);
    /**
     * Bit-reversed slots -> N torus coefficients in `out` (DIT stages,
     * then untwist and round). Destroys re/im.
     */
    void (*inverse)(const NegacyclicFft& plan, double* re, double* im,
                    Torus32* out);
    /** inverse, adding the N coefficients into `out` mod 2^32. */
    void (*inverse_add)(const NegacyclicFft& plan, double* re, double* im,
                        Torus32* out);
    /** r += a * b pointwise over `half` complex slots. */
    void (*add_mul)(double* rre, double* rim, const double* are,
                    const double* aim, const double* bre, const double* bim,
                    int32_t half);
    /**
     * Signed gadget decomposition of one torus polynomial of N
     * coefficients, transformed: dec[j] (j < l, each of h slots) gets the
     * forward transform of digit j, the digits in [-Bg/2, Bg/2) after
     * adding the rounding `offset`. Each digit polynomial is computed from
     * the torus words inside its transform's first pass, so it is never
     * stored; the slots equal decomposing into the packed layout and then
     * running forward.
     */
    void (*forward_digits)(const NegacyclicFft& plan, FreqPolynomial* dec,
                           const Torus32* coefs, int32_t l, int32_t bg_bit,
                           uint32_t offset);
    /**
     * forward_digits of (X^rot - 1) * coefs, read straight from coefs: the
     * blind rotation's CMUX difference with no staging polynomial.
     */
    void (*forward_rotated_digits)(const NegacyclicFft& plan,
                                   FreqPolynomial* dec, const Torus32* coefs,
                                   int32_t rot, int32_t l, int32_t bg_bit,
                                   uint32_t offset);
    /**
     * One lane's key product over slots [begin, end): for every column
     * c < cols, acc[c] = sum over r < rows of dec[r] * key[r][c], summed
     * from zero in ascending r. Every slot's value is the one AddMul
     * leaves after the same rows on a cleared accumulator.
     */
    void (*mul_acc)(FreqPolynomial* acc, const FreqPolynomial* dec,
                    const std::vector<FreqPolynomial>* key, int32_t rows,
                    int32_t cols, int32_t begin, int32_t end);
    /**
     * One walk over the key-switching slab for lanes in[0..b),
     * b <= kKsLaneGroup and b * stride <= kKsAccWords.
     */
    void (*ks_walk)(const KeySwitchSlab& key, const LweSample* in,
                    const LweView* out, int32_t b);
    /** Smallest transform length h = N/2 this tier runs. */
    int32_t min_half;
};

extern const FftKernel kPortableFft;
/** All-null unless SimdAvailable(). */
extern const FftKernel kAvx2Fft;
/** All-null unless Simd512Available(). */
extern const FftKernel kAvx512Fft;

/** True when the AVX2 tier was compiled in and the CPU supports AVX2. */
bool SimdAvailable();

/**
 * True when the AVX-512F tier was compiled in and the CPU supports it. The
 * kernel runs this tier whenever it is true and h >= 8, else AVX2 when
 * that is available and h >= 4, else the portable body.
 */
bool Simd512Available();

/**
 * The fastest tier this CPU runs at transform length `half`. The key
 * switch, which has no transform length, runs KernelFor(kMaxHalf).
 */
const FftKernel& KernelFor(int32_t half);
constexpr int32_t kMaxHalf = INT32_MAX;

}  // namespace pytfhe::tfhe::batch_detail

#endif  // PYTFHE_TFHE_FFT_BATCH_KERNELS_H
