/**
 * @file
 * Multi-bit plaintexts and weighted-operand programmable bootstrapping.
 *
 * Boolean gate bootstrapping encodes a bit as +-1/8 and asks the blind
 * rotation only for a sign. Multi-bit mode widens the message space to
 * p in {2, 4, 8, 16} values per ciphertext: a digit v in [0, p) is encoded
 * at the torus phase
 *
 *     phi(v) = (2v + 1) / (4p),
 *
 * the center of the v-th of p equal slots covering the upper half-circle
 * [0, 1/2) (the negacyclic ring mirrors the lower half, so everything must
 * stay above it — see FunctionalBootstrapInScratch).
 *
 * The payoff is the weighted LUT gate. Given operand digits v_1..v_k with
 * public integer weights w_1..w_k, the linear combination
 *
 *     sum_i w_i * c_i + bias,  bias = (1 - 2*lo - sum_i w_i) / (4p)
 *
 * lands *exactly* at phi(m - lo) where m = sum_i w_i * v_i and lo is the
 * minimum reachable m: the per-operand half-slot offsets (+1/(4p) each)
 * are public, so the bias cancels them in one shot. One programmable
 * bootstrap with a table-valued test vector then maps the packed index to
 * any function of m — a full adder's sum+carry, a three-way majority, a
 * partial-product column count — for the price of ONE bootstrap where the
 * boolean pipeline spends one per gate.
 *
 * Correctness needs the packed phase to stay within its 1/(4p) half-slot:
 * noise accumulates as (sum w_i^2) * V_gate + V_modswitch, checked
 * analytically by tfhe::CheckMultibitParams. The circuit-level contract
 * (arity, table layout, lo bookkeeping) lives in circuit::LutSpec; this
 * header is the cryptographic kernel only and is circuit-agnostic. One
 * gate's kernel description, tfhe::LutKernel, sits in bootstrap.h so the
 * batch lanes of bootstrap_batch.h can carry it.
 */
#ifndef PYTFHE_TFHE_MULTIBIT_H
#define PYTFHE_TFHE_MULTIBIT_H

#include <span>

#include "tfhe/gates.h"

namespace pytfhe::tfhe {

/** phi(v) = (2v + 1) / (4p), the one encoding of programmable bootstraps. */
Torus32 EncodeDigit(int32_t v, int32_t p);

/**
 * Nearest digit of a phase: floor(phase * 2p), exact while the phase is
 * within 1/(4p) of a slot center. Reduced mod p for out-of-range phases.
 */
int32_t DecodeDigit(Torus32 phase, int32_t p);

/** Fresh encryption of digit v in [0, p) under the small LWE key. */
LweSample LweEncryptDigit(int32_t v, int32_t p, double noise_stddev,
                          const LweKey& key, Rng& rng);

/** Decrypts a digit ciphertext (phase rounding per DecodeDigit). */
int32_t LweDecryptDigit(const LweSample& sample, const LweKey& key, int32_t p);

/**
 * Builds the test vector mapping a packed digit input v (encoded phi(v))
 * to the digit-encoded table entry at index v: slot j of the ring holds
 * EncodeDigit of entry floor(j * p / N). Requires 2p <= N.
 */
TorusPolynomial MakeDigitLutTestVector(const Params& params, uint32_t table,
                                       uint8_t out_bits, int32_t p);

/**
 * Evaluates one weighted LUT gate into caller-owned storage: linear
 * prelude sum w_i * ops_i + bias, one programmable bootstrap through the
 * (cached) test vector, one key switch back to dimension n. Inputs are
 * fully read before `out` is written, so `out` may alias an operand.
 * Profiling lands in eval.profile() exactly like the boolean gates; the
 * test-vector cache lives in the scratch, so reusing one scratch per
 * worker makes repeated tables allocation-free.
 */
void LutBootstrapInto(GateEvaluator& eval, const LutKernel& lut,
                      std::span<const LweCView> ops, LweView out,
                      BootstrapScratch* scratch = nullptr);

/**
 * Batched LutBootstrapInto: `count` lanes share one blind rotation,
 * each starting from its own test vector, then key-switch one by one into
 * their out views. A lane with `lut` set is a weighted LUT gate (its
 * prelude sum w_i * ops_i + bias and its cached table test vector, exactly
 * as LutBootstrapInto); a lane without is a sign-bootstrapped boolean gate
 * (exactly as GateEvaluator::BatchedLinearBootstrap), so one call may mix
 * both kinds on one key. Every lane's operands are read before any lane's
 * output is written, so an out view may alias any operand of the call.
 * Bit-exact per lane vs the scalar kernels; profiles like them. A warm
 * scratch (same batch size, cached tables) makes the call allocation-free.
 */
void BatchedLutBootstrapInto(GateEvaluator& eval,
                             const BatchGateViewSpec* lanes, int32_t count,
                             BatchScratch& scratch);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_MULTIBIT_H
