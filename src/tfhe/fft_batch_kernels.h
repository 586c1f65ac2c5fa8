/**
 * @file
 * Internal: the negacyclic FFT kernel at its three ISA tiers.
 *
 * One kernel body (fft_kernel.h) is compiled three times: portable in
 * fft.cc with the library's default flags, AVX2 in fft_avx2.cc (-mavx2)
 * and AVX-512F in fft_avx512.cc (-mavx512f). The vector TUs get their
 * flags only when PYTFHE_BATCH_SIMD is on and the target is x86-64;
 * without them their tier is empty and its probe reports false. On
 * aarch64 the portable body runs and -O3 autovectorizes it to NEON.
 *
 * Every tier evaluates the same per-element expressions in the same order
 * with mul/add/sub only (no FMA; the library builds with
 * -ffp-contract=off), so every tier is bit-identical to the portable one.
 */
#ifndef PYTFHE_TFHE_FFT_BATCH_KERNELS_H
#define PYTFHE_TFHE_FFT_BATCH_KERNELS_H

#include <cstdint>

#include "tfhe/fft.h"

namespace pytfhe::tfhe::batch_detail {

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
    /** r += a * b pointwise over `half` complex slots. */
    void (*add_mul)(double* rre, double* rim, const double* are,
                    const double* aim, const double* bre, const double* bim,
                    int32_t half);
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
 * FFT runs this tier whenever it is true and h >= 8, else AVX2 when that
 * is available and h >= 4, else the portable body.
 */
bool Simd512Available();

}  // namespace pytfhe::tfhe::batch_detail

#endif  // PYTFHE_TFHE_FFT_BATCH_KERNELS_H
