/**
 * @file
 * Folded negacyclic FFT for fast polynomial multiplication in T[X]/(X^N + 1).
 *
 * TFHE works in the negacyclic ring R_N = R[X]/(X^N + 1). Writing h = N/2,
 * the complexified ring C[X]/(X^N + 1) splits as
 * C[Y]/(Y^h + i) x C[Y]/(Y^h - i); for *real* inputs either factor
 * determines the other, so a real negacyclic polynomial is fully described
 * by h complex values. Concretely, the ring map X^h -> -i sends
 *
 *     p(X)  |->  a(Y) = sum_{j<h} (p[j] - i*p[j+h]) Y^j   mod Y^h + i,
 *
 * and a(Y) is evaluated at the h roots of Y^h = -i by one h-point cyclic
 * FFT of the twisted sequence a_j * exp(-i*pi*j/N). Pointwise products of
 * these h evaluations correspond exactly to negacyclic convolution, with
 * half the butterflies of the naive full-size complex FFT over N points.
 *
 * Slot order: the forward transform runs decimation-in-frequency stages
 * and leaves evaluation m in slot BitReversedSlots(h)[m]; the inverse runs
 * decimation-in-time stages from that order back to coefficients. The
 * pointwise AddMul does not care about slot order, so no bit-reversal pass
 * ever runs. Anything stored outside the process (the serialized
 * bootstrapping key) is permuted to natural order.
 *
 * This is the workhorse of the external product: the bootstrapping key is
 * stored in the frequency domain once, and each CMUX performs l*(k+1)
 * forward transforms of gadget digits, a pointwise multiply-accumulate, and
 * k+1 inverse transforms. The kernel is hand-vectorized at three ISA tiers
 * that agree bit for bit (fft_batch_kernels.h).
 *
 * Precision: digits are bounded by Bg/2 <= 2^7 and torus values by 2^31, so
 * every intermediate of the transform stays below N * 2^7 * 2^31 <= 2^49 for
 * N <= 2048 — comfortably inside the 53-bit double mantissa. Round-off
 * behaves as a small additional noise term (fraction of the torus around
 * 2^-26 for N=1024), far below the scheme noise; tests verify the folded
 * path against the exact O(N^2) reference multiplier and against the
 * full-size ReferenceFft.
 *
 * Allocation discipline: Forward/Inverse/Multiply never allocate in steady
 * state. Callers on hot paths own FftScratch objects explicitly (one per
 * worker thread); the scratch-less overloads allocate per call and exist
 * for tests and cold paths only. No function in this header hides state in
 * `static thread_local` storage.
 */
#ifndef PYTFHE_TFHE_FFT_H
#define PYTFHE_TFHE_FFT_H

#include <cstdint>
#include <vector>

#include "tfhe/polynomial.h"

namespace pytfhe::tfhe {

/**
 * Frequency-domain image of a real negacyclic polynomial of degree < N:
 * h = N/2 complex values in split re/im layout, in the kernel's
 * bit-reversed slot order. Both planes live in one 64-byte-aligned
 * allocation, so every AVX-512 load of the kernel is aligned.
 */
class FreqPolynomial {
  public:
    FreqPolynomial() = default;
    /** Allocates `half` zeroed complex slots (half = N/2). */
    explicit FreqPolynomial(int32_t half) { ResizeHalf(half); }
    FreqPolynomial(const FreqPolynomial& other) { *this = other; }
    FreqPolynomial(FreqPolynomial&& other) noexcept { *this = std::move(other); }
    FreqPolynomial& operator=(const FreqPolynomial& other);
    FreqPolynomial& operator=(FreqPolynomial&& other) noexcept;
    ~FreqPolynomial() { Free(); }

    /** Number of complex coefficients (N/2 for ring degree N). */
    int32_t HalfSize() const { return half_; }

    double* Re() { return data_; }
    const double* Re() const { return data_; }
    double* Im() { return data_ + stride_; }
    const double* Im() const { return data_ + stride_; }

    /**
     * Reshapes to `half` complex slots. No-op (contents preserved) when the
     * size already matches; reallocates and zero-fills otherwise.
     */
    void ResizeHalf(int32_t half);
    void Clear();

    /** this += a * b, pointwise complex multiply-accumulate over h slots. */
    void AddMul(const FreqPolynomial& a, const FreqPolynomial& b);

  private:
    void Free();

    double* data_ = nullptr;
    int32_t half_ = 0;
    int32_t stride_ = 0;  ///< half rounded up so Im() is 64-byte aligned too.
};

/** Reusable temporaries for the const-input Inverse and for Multiply. */
struct FftScratch {
    FreqPolynomial a, b, acc;
};

namespace batch_detail {
struct FftKernel;
}  // namespace batch_detail

/**
 * Plan holding twist and twiddle tables for a fixed ring degree N
 * (a power of two) and the kernel tier that runs it. One plan per
 * parameter set; plans are reusable and const-thread-safe after
 * construction. All transforms run over h = N/2 complex points.
 */
class NegacyclicFft {
  public:
    explicit NegacyclicFft(int32_t n);

    /** Ring degree N. */
    int32_t Size() const { return n_; }
    /** Transform length h = N/2 (slots of a FreqPolynomial). */
    int32_t Half() const { return half_; }

    /** Forward transform of an integer polynomial. Never allocates once
     * `out` has the right size. */
    void Forward(FreqPolynomial& out, const IntPolynomial& p) const;
    /** Forward transform of a torus polynomial (signed interpretation). */
    void Forward(FreqPolynomial& out, const TorusPolynomial& p) const;

    /**
     * Forward transform of data already packed into `f`:
     * f.Re()[j] = p[j], f.Im()[j] = p[j + N/2]. Twist and FFT run in place.
     * (The external product does not pack: its digits are computed inside
     * the transform's first pass, fft_batch_kernels.h.)
     */
    void ForwardPacked(FreqPolynomial& f) const;

    /**
     * Inverse transform with rounding back onto the discretized torus.
     * Destroys `f` (the accumulator is dead after the inverse on every hot
     * path, so no copy is needed).
     */
    void InverseInPlace(TorusPolynomial& out, FreqPolynomial& f) const;

    /** Non-destructive inverse; copies `f` into `scratch`. */
    void Inverse(TorusPolynomial& out, const FreqPolynomial& f,
                 FftScratch& scratch) const;
    /** Convenience overload; allocates a scratch per call (cold paths). */
    void Inverse(TorusPolynomial& out, const FreqPolynomial& f) const;

    /** result = a * b over X^N + 1 via the frequency domain. */
    void Multiply(TorusPolynomial& result, const IntPolynomial& a,
                  const TorusPolynomial& b, FftScratch& scratch) const;
    /** Convenience overload; allocates a scratch per call (cold paths). */
    void Multiply(TorusPolynomial& result, const IntPolynomial& a,
                  const TorusPolynomial& b) const;

    /** Twist exp(-i*pi*j/N), slot j. */
    const FreqPolynomial& TwistTable() const { return twist_; }
    /** Untwist exp(+i*pi*j/N) / h (the inverse's normalization), slot j. */
    const FreqPolynomial& UntwistTable() const { return untwist_; }
    /** Stage twiddles: exp(-2*pi*i*k / (2*hb)) at slot hb + k, k < hb. */
    const FreqPolynomial& TwiddleTable() const { return twiddle_; }
    /** The kernel tier that runs this plan (fft_batch_kernels.h). */
    const batch_detail::FftKernel& Kernel() const { return *kernel_; }

  private:
    int32_t n_;
    int32_t half_;
    FreqPolynomial twist_, untwist_, twiddle_;
    const batch_detail::FftKernel* kernel_;  ///< Tier for this size.
};

/**
 * Slot that holds natural-order evaluation m in the forward transform's
 * output, for every m < half (a power of two): the bit reversal of m over
 * log2(half) bits, an involution.
 */
std::vector<int32_t> BitReversedSlots(int32_t half);

/**
 * The pre-folding full-size transform: an N-point complex FFT of the
 * twisted real sequence, kept verbatim as an independent oracle. Used only
 * by tests to prove that the folded kernel is equivalent at the decryption
 * level; allocates freely and is not part of any hot path.
 */
class ReferenceFft {
  public:
    explicit ReferenceFft(int32_t n);

    int32_t Size() const { return n_; }

    /** result = a * b over X^N + 1 via the full-size frequency domain. */
    void Multiply(TorusPolynomial& result, const IntPolynomial& a,
                  const TorusPolynomial& b) const;

  private:
    void FftInPlace(std::vector<double>& re, std::vector<double>& im,
                    bool inverse) const;
    void ForwardReal(std::vector<double>& re, std::vector<double>& im,
                     const double* coefs) const;

    int32_t n_;
    int32_t log2n_;
    std::vector<double> twist_re_, twist_im_;
    std::vector<double> untwist_re_, untwist_im_;
    std::vector<double> tw_re_, tw_im_;
    std::vector<int32_t> bitrev_;
};

/**
 * Shared FFT plan cache keyed by size. The hot read path is lock-free (one
 * atomic load per lookup); a mutex serializes only first-time construction
 * of a plan. Plans live for the process lifetime.
 */
const NegacyclicFft& GetFftPlan(int32_t n);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_FFT_H
