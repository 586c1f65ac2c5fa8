/**
 * @file
 * LWE samples and keys over the discretized torus.
 *
 * An LWE sample (a, b) with b = <a, s> + m + e encrypts torus message m under
 * binary secret key s of dimension n with Gaussian noise e. Gate inputs and
 * outputs of the TFHE scheme are LWE samples with messages in {-1/8, +1/8}.
 */
#ifndef PYTFHE_TFHE_LWE_H
#define PYTFHE_TFHE_LWE_H

#include <cstdint>
#include <vector>

#include "tfhe/rng.h"
#include "tfhe/torus.h"

namespace pytfhe::tfhe {

/** Binary LWE secret key. */
struct LweKey {
    std::vector<int32_t> key;  ///< n bits.

    LweKey() = default;
    /** Samples a uniform binary key of dimension n. */
    LweKey(int32_t n, Rng& rng);

    int32_t N() const { return static_cast<int32_t>(key.size()); }
};

/** LWE ciphertext (a_1..a_n, b). */
struct LweSample {
    std::vector<Torus32> a;
    Torus32 b = 0;

    LweSample() = default;
    explicit LweSample(int32_t n) : a(n, 0) {}

    int32_t N() const { return static_cast<int32_t>(a.size()); }

    /** Sets this sample to a noiseless encryption of mu (a = 0, b = mu). */
    void SetTrivial(Torus32 mu);

    void AddTo(const LweSample& other);
    void SubTo(const LweSample& other);
    /** this += k * other, for small public integer k. */
    void AddMulTo(const LweSample& other, int32_t k);
    /** this = -this. */
    void Negate();
    /** this = 2 * this (used by XOR/XNOR gate linear parts). */
    void Double();
    void AddConstant(Torus32 mu) { b += mu; }
};

/**
 * Non-owning mutable view of an LWE sample whose mask and body live in
 * caller-owned storage — the interface the arena-backed execution core
 * uses so gate kernels read and write ciphertext slots in place, with no
 * per-gate allocation. The mask is `n` contiguous Torus32 words at `a`;
 * the body is a separate word (arena slots store it at a[n], LweSample
 * keeps it in a distinct member).
 */
struct LweCView {
    const Torus32* a = nullptr;
    const Torus32* b = nullptr;
    int32_t n = 0;
};

struct LweView {
    Torus32* a = nullptr;
    Torus32* b = nullptr;
    int32_t n = 0;

    operator LweCView() const { return LweCView{a, b, n}; }
};

inline LweView ViewOf(LweSample& s) { return LweView{s.a.data(), &s.b, s.N()}; }
inline LweCView ViewOf(const LweSample& s) {
    return LweCView{s.a.data(), &s.b, s.N()};
}

/** out = trivial encryption of mu (mask zero, body mu). */
void LweSetTrivial(LweView out, Torus32 mu);

/** out = in; views must agree on n (out may alias in). */
void LweCopyInto(LweCView in, LweView out);

/** out = -in, elementwise; out may alias in. */
void LweNegateInto(LweCView in, LweView out);

/**
 * out = coef_a*a + coef_b*b + offset — the shared linear prelude of every
 * gate. Elementwise, so out may alias either operand (or both).
 */
void LweLinearCombineInto(int32_t coef_a, LweCView a, int32_t coef_b,
                          LweCView b, Torus32 offset, LweView out);

/** Encrypts torus message mu with the given noise standard deviation. */
LweSample LweEncrypt(Torus32 mu, double noise_stddev, const LweKey& key,
                     Rng& rng);

/** LweEncrypt into caller-owned storage of dimension key.N(). */
void LweEncryptInto(Torus32 mu, double noise_stddev, const LweKey& key,
                    Rng& rng, LweView out);

/** Computes the phase b - <a, s> (message plus noise). */
Torus32 LwePhase(const LweSample& sample, const LweKey& key);

/** Decrypts to the nearest of msize equally spaced torus messages. */
Torus32 LweDecrypt(const LweSample& sample, const LweKey& key, int32_t msize);

/** Decrypts a gate-encoded bit (message in {-1/8, +1/8}): sign of phase. */
bool LweDecryptBit(const LweSample& sample, const LweKey& key);

/** Encrypts a gate-encoded bit as +-1/8 with the key's noise parameter. */
LweSample LweEncryptBit(bool bit, double noise_stddev, const LweKey& key,
                        Rng& rng);

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_LWE_H
