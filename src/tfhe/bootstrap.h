/**
 * @file
 * Gate bootstrapping: blind rotation, sample extraction, key switching.
 *
 * Bootstrapping refreshes the noise of an LWE sample while applying the sign
 * function: the output encrypts +mu when the input phase is in (0, 1/2) and
 * -mu otherwise. Combined with a linear pre-combination of the two input
 * bits, this evaluates any of the TFHE two-input gates with constant output
 * noise, allowing circuits of unbounded depth.
 *
 * Hot-path entry points accept an optional BootstrapScratch so repeated
 * bootstraps (one per gate) reuse all working buffers; callers that evaluate
 * gates concurrently own one scratch per worker thread.
 */
#ifndef PYTFHE_TFHE_BOOTSTRAP_H
#define PYTFHE_TFHE_BOOTSTRAP_H

#include <memory>
#include <span>
#include <vector>

#include "tfhe/keyswitch.h"
#include "tfhe/params.h"
#include "tfhe/tgsw.h"

namespace pytfhe::tfhe {

/**
 * Public evaluation key: TGSW encryptions (FFT domain) of each small-LWE key
 * bit under the ring key, plus the key-switching key back from the extracted
 * key. This is what a client ships to the evaluating server.
 */
class BootstrappingKey {
  public:
    /**
     * Generates the evaluation key for lwe_key under tlwe_key.
     */
    BootstrappingKey(const Params& params, const LweKey& lwe_key,
                     const TLweKey& tlwe_key, Rng& rng);

    /** Reconstructs from serialized parts (see tfhe/serialization.h). */
    BootstrappingKey(const Params& params, std::vector<TGswSampleFft> bk,
                     KeySwitchKey ksk);

    const Params& params() const { return params_; }
    const NegacyclicFft& fft() const { return *fft_; }
    const KeySwitchKey& ksk() const { return ksk_; }
    const std::vector<TGswSampleFft>& bk() const { return bk_; }

    /** Approximate size of the bootstrapping part in bytes (FFT domain). */
    size_t BkByteSize() const;

  private:
    Params params_;
    const NegacyclicFft* fft_;  ///< Cached plan, owned by the global cache.
    std::vector<TGswSampleFft> bk_;
    KeySwitchKey ksk_;
};

/**
 * One LUT gate's kernel-level description (the programmable bootstrap of
 * tfhe/multibit.h). `weights` are the operand weights (nonzero,
 * |w| <= 127); `lo` the minimum reachable weighted sum; `table` packs
 * (hi - lo + 1) entries of `out_bits` bits each, entry i holding the
 * output digit for weighted sum lo + i; `p` the message modulus shared by
 * operands and output.
 */
struct LutKernel {
    std::span<const int8_t> weights;
    int32_t lo = 0;
    uint32_t table = 0;
    uint8_t out_bits = 1;
    int32_t p = 0;
};

/**
 * One cached programmable-bootstrap test vector, keyed by the (table,
 * out_bits, p) triple that fully determines it at a given ring degree.
 * LUT gates reuse a handful of tables across thousands of bootstraps
 * (full-adder columns, comparator stages), so a small linear-scan cache
 * per worker scratch removes the N-coefficient rebuild from the hot path.
 */
struct LutTvEntry {
    uint64_t key = 0;
    TorusPolynomial tv;
};

/**
 * All working buffers of one bootstrap. One per worker thread; every buffer
 * keeps its capacity across calls, so a reused scratch makes the whole
 * blind-rotation loop allocation-free.
 */
struct BootstrapScratch {
    ExternalProductScratch ep;
    TLweSample acc;
    TorusPolynomial shifted, testvect;
    std::vector<int32_t> bara;
    /** Linear-prelude staging sample (dimension n), for the Into paths. */
    LweSample combo;
    /** Extracted sample (dimension N*k) the blind rotation lands in. */
    LweSample extracted;
    /** Programmable-bootstrap test vectors (see LutTvEntry). */
    std::vector<LutTvEntry> lut_tv_cache;
};

/**
 * In-place blind rotation: multiplies acc by X^{-sum bara_i * s_i} using one
 * CMUX per key bit.
 */
void BlindRotate(TLweSample& acc, const std::vector<int32_t>& bara,
                 const BootstrappingKey& key,
                 BootstrapScratch* scratch = nullptr);

/**
 * Bootstraps `in` to a fresh sample encrypting +-mu under the *extracted*
 * key (no key switch). Used directly by the MUX gate.
 */
LweSample BootstrapWithoutKeySwitch(Torus32 mu, const LweSample& in,
                                    const BootstrappingKey& key,
                                    BootstrapScratch* scratch = nullptr);

/**
 * Allocation-free variant: bootstraps `in` into `s.extracted` (dimension
 * N*k under the extracted key) and returns a reference to it, valid until
 * the scratch is next used. `in` must not alias `s.extracted` or
 * `s.combo`.
 */
const LweSample& BootstrapWithoutKeySwitchInScratch(
    Torus32 mu, const LweSample& in, const BootstrappingKey& key,
    BootstrapScratch& s);

/** Full gate bootstrap: blind rotate, extract, and key switch back to n. */
LweSample Bootstrap(Torus32 mu, const LweSample& in,
                    const BootstrappingKey& key,
                    BootstrapScratch* scratch = nullptr);

/**
 * Programmable bootstrapping (Section II-B of the paper): refreshes noise
 * while applying the lookup table encoded in `test_vector`, without the
 * key switch. The test vector is indexed by the 2N-mod-switched phase;
 * slots N..2N-1 wrap negacyclically (X^N = -1), so inputs must sit in the
 * upper half-circle [0, 1/2) — the digit encoding of tfhe/multibit.h,
 * whose LutBootstrapInto is the one caller. Rotates into `s.extracted`
 * (dimension N*k under the extracted key) and returns a reference, valid
 * until the scratch is next used. Callers key-switch into their own
 * storage (key.ksk().ApplyInto). `in` must not alias `s.extracted` or
 * `s.combo`.
 */
const LweSample& FunctionalBootstrapInScratch(
    const TorusPolynomial& test_vector, const LweSample& in,
    const BootstrappingKey& key, BootstrapScratch& s);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_BOOTSTRAP_H
