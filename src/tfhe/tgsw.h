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
 * ExternalProductScratch they own (one per worker thread). Decomposition is
 * fused with the FFT packing — digits are written as doubles directly into
 * the transform's input buffers instead of materializing IntPolynomials.
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
    std::vector<FreqPolynomial> dec;  ///< l digit transforms, reused per row.
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
 * the scalar FFT kernel on its own buffers; the loop order (ci, j, lane)
 * reads every frequency-domain key row from memory once per batch, and the
 * other lanes find it in cache. Each lane accumulates in the scalar
 * (ci, j, col) order, so the result is TGswExternalProduct's word for word.
 */
void TGswExternalProductBatch(std::vector<TLweSample>& result,
                              const TGswSampleFft& c,
                              const std::vector<TLweSample>& samples,
                              int32_t b, const NegacyclicFft& fft,
                              BatchExternalProductScratch& scratch);

/**
 * result = d0 + C x (d1 - d0): selects d1 when C encrypts 1, d0 when C
 * encrypts 0, up to noise.
 */
void TGswCMux(TLweSample& result, const TGswSampleFft& c, const TLweSample& d1,
              const TLweSample& d0, const NegacyclicFft& fft,
              ExternalProductScratch* scratch = nullptr);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_TGSW_H
