/**
 * @file
 * Batched bootstrapping: B independent LWE samples through one blind
 * rotation.
 *
 * Integer-domain state (the TLWE accumulators, rotations, mod switches)
 * is per lane and exact. Each CMUX runs the scalar kernel once per lane
 * (TGswRotateCMux: digits of the lane's rotation difference inside its
 * forward transforms, one multiply-accumulate pass, the inverse adding
 * into the accumulator); what the lanes share is the bootstrapping key:
 * the multiply-accumulate walks the key slot block by slot block with the
 * lanes inner, so each block is read from memory once per batch and
 * reused from L1 by the other lanes (the MATCHA-style key-traffic
 * amortization: the FFT-domain key is tens of megabytes and otherwise
 * streams once per gate). Each lane starts from its own accumulator, so
 * lanes need not share a test vector: sign bootstraps and programmable
 * (LUT) bootstraps with different tables ride the same rotation.
 *
 * Every batched entry point is bit-exact per lane against its scalar
 * counterpart in bootstrap.h: each lane runs the same kernel calls in the
 * same order as a scalar bootstrap, integer paths are exact by
 * construction, and a lane whose mod-switched coefficient is zero
 * contributes an exactly-zero CMUX (zero digits transform to signed zeros
 * that round back to torus zero), matching the scalar skip.
 */
#ifndef PYTFHE_TFHE_BOOTSTRAP_BATCH_H
#define PYTFHE_TFHE_BOOTSTRAP_BATCH_H

#include "tfhe/bootstrap.h"

namespace pytfhe::tfhe {

/**
 * One bootstrapped gate inside a batch: the linear prelude
 * coef_a * (*a) + coef_b * (*b) + offset is bootstrapped to +-kGateMu and
 * key-switched into *out. Every two-input bootstrapped gate kind maps onto
 * this shape (the AND family with +-1 coefficients, XOR/XNOR with +-2 or
 * +-1 per operand domain), so a batch may freely mix gate kinds — they all
 * share one blind rotation's test vector.
 */
struct BatchGateSpec {
    int32_t coef_a = 0;
    const LweSample* a = nullptr;
    int32_t coef_b = 0;
    const LweSample* b = nullptr;
    Torus32 offset = 0;
    LweSample* out = nullptr;
};

/**
 * One lane of a batched bootstrap over caller-owned views (arena slots).
 * Without `lut` it is the BatchGateSpec sign gate; with `lut` set it is a
 * weighted LUT gate over the lut->weights.size() operand views at `ops`
 * (see tfhe/multibit.h), and coef/a/b/offset are unused. All lane inputs
 * are consumed (into the scratch prelude buffers) before any lane output
 * is written, so an out view may alias any input view of the same call —
 * including inputs of *other* lanes — without affecting results.
 */
struct BatchGateViewSpec {
    int32_t coef_a = 0;
    LweCView a;
    int32_t coef_b = 0;
    LweCView b;
    Torus32 offset = 0;
    LweView out;
    const LutKernel* lut = nullptr;
    const LweCView* ops = nullptr;
};

/**
 * All working buffers of one batched bootstrap, sized once per worker.
 * Buffers keep their capacity across calls with a fixed parameter set; a
 * batch larger than any before allocates its new lanes once.
 */
struct BatchScratch {
    BatchExternalProductScratch ep;
    std::vector<TLweSample> acc;             ///< One per lane.
    std::vector<std::vector<int32_t>> bara;  ///< One per lane.
    std::vector<int32_t> rot;                ///< One CMUX's bara column.
    TorusPolynomial testvect;        ///< Shared by sign lanes: all ±mu.
    TorusPolynomial shifted;         ///< Per-lane rotation staging buffer.
    std::vector<const TorusPolynomial*> tvs;  ///< Each lane's test vector.
    std::vector<LutTvEntry> lut_tv_cache;     ///< LUT test vectors.
    std::vector<LweSample> combo;    ///< Linear preludes (evaluator path).
    std::vector<LweSample> rotated_lwe;  ///< Extracted pre-key-switch bits.
    std::vector<const LweSample*> in_ptrs;  ///< Gather list (evaluator path).
    std::vector<LweSample*> out_ptrs;       ///< Scatter list (evaluator path).
    std::vector<LweView> out_views;         ///< Key-switch outputs.
    std::vector<BatchGateSpec> specs;       ///< Dispatcher staging.
    std::vector<BatchGateViewSpec> view_specs;  ///< Dispatcher staging.
    std::vector<LutKernel> luts;                ///< Dispatcher staging.
};

/**
 * In-place batched blind rotation of accs[0..b): lane l is multiplied by
 * X^{-sum_i bara[l][i] * s_i}, reading each frequency-domain key row once
 * for all lanes. Bit-exact per lane vs BlindRotate.
 */
void BatchedBlindRotate(std::vector<TLweSample>& accs,
                        const std::vector<std::vector<int32_t>>& bara,
                        int32_t b, const BootstrappingKey& key,
                        BatchScratch& scratch);

/**
 * Batched mod switch, blind rotation and extraction: lane l starts from
 * its own test vector *tvs[l] rotated by the mod-switched body of *in[l],
 * all lanes share one rotation, and *out[l] receives coefficient 0 under
 * the extracted key (dimension N*k). Every *in[l] is read before any
 * *out[l] is written. Pointer arrays let callers gather scattered samples
 * without copies. Bit-exact per lane vs the scalar rotate-and-extract.
 */
void BatchedRotateExtract(const TorusPolynomial* const* tvs,
                          const LweSample* const* in, LweSample* const* out,
                          int32_t b, const BootstrappingKey& key,
                          BatchScratch& scratch);

/**
 * Full batched gate bootstrap: blind rotate to +-mu, extract, and key
 * switch each lane back to dimension n. Bit-exact per lane vs Bootstrap.
 */
void BatchedGateBootstrap(Torus32 mu, const LweSample* const* in,
                          LweSample* const* out, int32_t b,
                          const BootstrappingKey& key,
                          BatchScratch* scratch = nullptr);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_BOOTSTRAP_BATCH_H
