/**
 * @file
 * TGSW ciphertexts, gadget decomposition, and the external product.
 *
 * A TGSW sample encrypting integer m is a matrix of (k+1)*l TLWE rows: row
 * (i, j) is an encryption of zero plus m * h_j placed on component i, where
 * h_j = Bg^{-(j+1)} is the gadget. The external product TGSW x TLWE -> TLWE
 * homomorphically multiplies the TLWE message by m, and CMUX(C, d1, d0)
 * selects between two TLWE samples under an encrypted bit C. Bootstrapping
 * keys store TGSW rows in the FFT domain so each CMUX needs only forward
 * transforms of the gadget digits.
 *
 * The external product is the innermost kernel of bootstrapping, so it is
 * allocation-free in steady state: callers on hot paths pass an
 * ExternalProductScratch they own (one per worker thread). It runs as one
 * datapath at the FFT's ISA tier (fft_batch_kernels.h): each gadget digit
 * polynomial is computed from the torus words inside its forward
 * transform's first pass, one multiply-accumulate pass sums every output
 * column over all (k+1)*l key rows in registers, and the inverse
 * transforms round back to the torus. The blind rotation's CMUX
 * (TGswRotateCMux) also reads its rotation difference straight from the
 * accumulator and adds the product back in the inverse's last pass.
 * Every step reproduces, word for word, the composition of TGswDecompose,
 * NegacyclicFft::Forward, FreqPolynomial::AddMul on cleared accumulators
 * in (ci, j) row order, and NegacyclicFft::InverseInPlace.
 */
#ifndef PYTFHE_TFHE_TGSW_H
#define PYTFHE_TFHE_TGSW_H

#include <vector>

#include "tfhe/fft.h"
#include "tfhe/params.h"
#include "tfhe/tlwe.h"

namespace pytfhe::tfhe {

/** TGSW ciphertext in the standard (coefficient) domain. */
struct TGswSample {
    std::vector<TLweSample> rows;  ///< (k + 1) * l rows.
    int32_t l = 0;
    int32_t bg_bit = 0;
};

/** TGSW ciphertext with every row polynomial in the FFT domain. */
struct TGswSampleFft {
    /** rows[r][c]: component c of row r, frequency domain. */
    std::vector<std::vector<FreqPolynomial>> rows;
    int32_t l = 0;
    int32_t bg_bit = 0;
};

/**
 * Reusable buffers for TGswExternalProduct / TGswCMux. Owned explicitly by
 * the caller (per worker thread on hot paths); all buffers keep their
 * capacity across calls, so repeated use with fixed parameters performs no
 * heap allocation.
 */
struct ExternalProductScratch {
    std::vector<FreqPolynomial> dec;  ///< (k + 1) * l digit transforms.
    std::vector<FreqPolynomial> acc;  ///< k + 1 frequency accumulators.
    TLweSample cmux_diff;             ///< d1 - d0 buffer for TGswCMux.
};

/**
 * Reusable buffers for TGswExternalProductBatch: one scalar scratch per
 * lane. Buffers keep capacity across calls with a fixed parameter set; a
 * larger batch than any before allocates its new lanes once.
 */
struct BatchExternalProductScratch {
    std::vector<ExternalProductScratch> lanes;
};

/** Encrypts integer message m (typically a key bit in {0, 1}). */
TGswSample TGswEncrypt(int32_t message, int32_t l, int32_t bg_bit,
                       double noise_stddev, const TLweKey& key, Rng& rng);

/** Converts a TGSW sample to the FFT domain using the plan for its size. */
TGswSampleFft TGswToFft(const TGswSample& sample, const NegacyclicFft& fft);

/**
 * Signed gadget decomposition of every component of a TLWE sample:
 * produces (k+1)*l integer polynomials with digits in [-Bg/2, Bg/2).
 * Reference entry point used by tests and noise analysis; the external
 * product uses a fused decompose-and-pack internally.
 */
void TGswDecompose(std::vector<IntPolynomial>& out, const TLweSample& sample,
                   int32_t l, int32_t bg_bit);

/**
 * result = C x sample (external product), via the FFT domain.
 * With a non-null `scratch` the call never allocates in steady state; the
 * nullptr default allocates a local scratch (tests and cold paths).
 */
void TGswExternalProduct(TLweSample& result, const TGswSampleFft& c,
                         const TLweSample& sample, const NegacyclicFft& fft,
                         ExternalProductScratch* scratch = nullptr);

/**
 * Batched external product: result[lane] = C x samples[lane] for b
 * independent TLWE samples against ONE shared TGSW sample. Each lane runs
 * the scalar kernel on its own buffers; the multiply-accumulate runs slot
 * block by slot block with the lanes inner, so every block of the
 * frequency-domain key is read from memory once per batch and the other
 * lanes find it in L1. Each lane sums in the scalar (ci, j) row order, so
 * the result is TGswExternalProduct's word for word.
 */
void TGswExternalProductBatch(std::vector<TLweSample>& result,
                              const TGswSampleFft& c,
                              const std::vector<TLweSample>& samples,
                              int32_t b, const NegacyclicFft& fft,
                              BatchExternalProductScratch& scratch);

/**
 * The blind rotation's CMUX on lanes [0, b) against one TGSW sample:
 * accs[l] <- CMUX(C, X^rot[l] * accs[l], accs[l])
 *          = accs[l] + C x ((X^rot[l] - 1) * accs[l]).
 * The decomposition reads the rotation difference straight from accs[l]
 * and the inverse transform adds the product into it, so no staging
 * sample is written. Each lane's words equal TLweMulByXai, SubTo,
 * TGswExternalProduct and AddTo in turn. `lanes` points at b scratches.
 */
void TGswRotateCMux(TLweSample* accs, const int32_t* rot, int32_t b,
                    const TGswSampleFft& c, const NegacyclicFft& fft,
                    ExternalProductScratch* lanes);

/**
 * result = d0 + C x (d1 - d0): selects d1 when C encrypts 1, d0 when C
 * encrypts 0, up to noise.
 */
void TGswCMux(TLweSample& result, const TGswSampleFft& c, const TLweSample& d1,
              const TLweSample& d0, const NegacyclicFft& fft,
              ExternalProductScratch* scratch = nullptr);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_TGSW_H
