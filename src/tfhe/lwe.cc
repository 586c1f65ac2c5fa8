#include "tfhe/lwe.h"

#include <cassert>

namespace pytfhe::tfhe {

LweKey::LweKey(int32_t n, Rng& rng) : key(n) {
    for (int32_t i = 0; i < n; ++i) key[i] = rng.UniformBit();
}

void LweSample::SetTrivial(Torus32 mu) {
    std::fill(a.begin(), a.end(), 0);
    b = mu;
}

void LweSample::AddTo(const LweSample& other) {
    assert(N() == other.N());
    for (int32_t i = 0; i < N(); ++i) a[i] += other.a[i];
    b += other.b;
}

void LweSample::SubTo(const LweSample& other) {
    assert(N() == other.N());
    for (int32_t i = 0; i < N(); ++i) a[i] -= other.a[i];
    b -= other.b;
}

void LweSample::AddMulTo(const LweSample& other, int32_t k) {
    assert(N() == other.N());
    const uint32_t uk = static_cast<uint32_t>(k);
    for (int32_t i = 0; i < N(); ++i) a[i] += uk * other.a[i];
    b += uk * other.b;
}

void LweSample::Negate() {
    for (int32_t i = 0; i < N(); ++i) a[i] = -a[i];
    b = -b;
}

void LweSample::Double() {
    for (int32_t i = 0; i < N(); ++i) a[i] *= 2;
    b *= 2;
}

void LweSetTrivial(LweView out, Torus32 mu) {
    std::fill(out.a, out.a + out.n, 0);
    *out.b = mu;
}

void LweCopyInto(LweCView in, LweView out) {
    assert(in.n == out.n);
    std::copy(in.a, in.a + in.n, out.a);
    *out.b = *in.b;
}

void LweNegateInto(LweCView in, LweView out) {
    assert(in.n == out.n);
    for (int32_t i = 0; i < in.n; ++i) out.a[i] = -in.a[i];
    *out.b = -*in.b;
}

void LweLinearCombineInto(int32_t coef_a, LweCView a, int32_t coef_b,
                          LweCView b, Torus32 offset, LweView out) {
    assert(a.n == b.n && a.n == out.n);
    const uint32_t ua = static_cast<uint32_t>(coef_a);
    const uint32_t ub = static_cast<uint32_t>(coef_b);
    for (int32_t i = 0; i < out.n; ++i)
        out.a[i] = ua * a.a[i] + ub * b.a[i];
    *out.b = ua * *a.b + ub * *b.b + static_cast<uint32_t>(offset);
}

LweSample LweEncrypt(Torus32 mu, double noise_stddev, const LweKey& key,
                     Rng& rng) {
    LweSample s(key.N());
    LweEncryptInto(mu, noise_stddev, key, rng, ViewOf(s));
    return s;
}

void LweEncryptInto(Torus32 mu, double noise_stddev, const LweKey& key,
                    Rng& rng, LweView out) {
    assert(out.n == key.N());
    Torus32 b = rng.GaussianTorus32(mu, noise_stddev);
    for (int32_t i = 0; i < out.n; ++i) {
        out.a[i] = rng.UniformTorus32();
        b += out.a[i] * static_cast<uint32_t>(key.key[i]);
    }
    *out.b = b;
}

Torus32 LwePhase(const LweSample& sample, const LweKey& key) {
    assert(sample.N() == key.N());
    Torus32 phase = sample.b;
    for (int32_t i = 0; i < sample.N(); ++i)
        phase -= sample.a[i] * static_cast<uint32_t>(key.key[i]);
    return phase;
}

Torus32 LweDecrypt(const LweSample& sample, const LweKey& key, int32_t msize) {
    const Torus32 phase = LwePhase(sample, key);
    return ModSwitchToTorus32(ModSwitchFromTorus32(phase, msize), msize);
}

bool LweDecryptBit(const LweSample& sample, const LweKey& key) {
    return static_cast<int32_t>(LwePhase(sample, key)) > 0;
}

LweSample LweEncryptBit(bool bit, double noise_stddev, const LweKey& key,
                        Rng& rng) {
    const Torus32 mu = ModSwitchToTorus32(1, 8);  // +1/8
    return LweEncrypt(bit ? mu : -mu, noise_stddev, key, rng);
}

}  // namespace pytfhe::tfhe
