#include "tfhe/bootstrap.h"

#include <cassert>

namespace pytfhe::tfhe {

namespace {

/** Reshapes a TLWE sample in place; preserves the buffers when shapes match. */
void EnsureShape(TLweSample& s, int32_t n, int32_t k) {
    if (s.BigN() != n || s.K() != k) s = TLweSample(n, k);
}

void EnsureSize(TorusPolynomial& p, int32_t n) {
    if (p.Size() != n) p = TorusPolynomial(n);
}

}  // namespace

BootstrappingKey::BootstrappingKey(const Params& params, const LweKey& lwe_key,
                                   const TLweKey& tlwe_key, Rng& rng)
    : params_(params),
      fft_(&GetFftPlan(params.big_n)),
      ksk_(tlwe_key.ExtractLweKey(), lwe_key, params.ks_t, params.ks_base_bit,
           params.lwe_noise_stddev, rng) {
    assert(lwe_key.N() == params.n);
    assert(tlwe_key.BigN() == params.big_n && tlwe_key.K() == params.k);
    bk_.reserve(params.n);
    for (int32_t i = 0; i < params.n; ++i) {
        TGswSample enc =
            TGswEncrypt(lwe_key.key[i], params.bk_l, params.bk_bg_bit,
                        params.tlwe_noise_stddev, tlwe_key, rng);
        bk_.push_back(TGswToFft(enc, *fft_));
    }
}

BootstrappingKey::BootstrappingKey(const Params& params,
                                   std::vector<TGswSampleFft> bk,
                                   KeySwitchKey ksk)
    : params_(params),
      fft_(&GetFftPlan(params.big_n)),
      bk_(std::move(bk)),
      ksk_(std::move(ksk)) {
    assert(static_cast<int32_t>(bk_.size()) == params.n);
    assert(ksk_.InputN() == params.ExtractedN());
    assert(ksk_.OutputN() == params.n);
}

size_t BootstrappingKey::BkByteSize() const {
    if (bk_.empty()) return 0;
    const auto& s = bk_[0];
    const size_t per_row =
        s.rows.empty() ? 0 : s.rows[0].size() * s.rows[0][0].HalfSize() * 2 *
                                 sizeof(double);
    return bk_.size() * s.rows.size() * per_row;
}

void BlindRotate(TLweSample& acc, const std::vector<int32_t>& bara,
                 const BootstrappingKey& key, BootstrapScratch* scratch) {
    BootstrapScratch local;
    BootstrapScratch& s = scratch != nullptr ? *scratch : local;
    const Params& p = key.params();
    assert(static_cast<int32_t>(bara.size()) == p.n);
    for (int32_t i = 0; i < p.n; ++i) {
        if (bara[i] == 0) continue;
        // acc <- CMUX(bk_i, X^a * acc, acc) = acc + bk_i x (X^a - 1) * acc.
        TGswRotateCMux(&acc, &bara[i], 1, key.bk()[i], key.fft(), &s.ep);
    }
}

namespace {

/**
 * Runs mod switch, blind rotation over the given test vector, and
 * extraction of coefficient 0 under the extracted key, landing in
 * `s.extracted`. The result encrypts test_vector[round(phase * 2N)] with
 * negacyclic wrap-around.
 */
const LweSample& RotateAndExtract(const TorusPolynomial& test_vector,
                                  const LweSample& in,
                                  const BootstrappingKey& key,
                                  BootstrapScratch& s) {
    const Params& p = key.params();
    const int32_t two_n = 2 * p.big_n;

    const int32_t barb = ModSwitchFromTorus32(in.b, two_n);
    s.bara.resize(p.n);
    for (int32_t i = 0; i < p.n; ++i)
        s.bara[i] = ModSwitchFromTorus32(in.a[i], two_n);

    EnsureSize(s.shifted, p.big_n);
    MulByXai(s.shifted, two_n - barb, test_vector);

    EnsureShape(s.acc, p.big_n, p.k);
    s.acc.SetTrivial(s.shifted);
    BlindRotate(s.acc, s.bara, key, &s);
    TLweExtractSampleInto(s.extracted, s.acc, 0);
    return s.extracted;
}

/**
 * The gate-bootstrapping test vector: all coefficients mu. After rotation
 * by the negative phase, coefficient 0 holds +mu when the phase is in the
 * upper half circle and -mu otherwise (X^N = -1 flips the sign).
 */
const LweSample& BlindRotateAndExtract(Torus32 mu, const LweSample& in,
                                       const BootstrappingKey& key,
                                       BootstrapScratch& s) {
    EnsureSize(s.testvect, key.params().big_n);
    for (auto& c : s.testvect.coefs) c = mu;
    return RotateAndExtract(s.testvect, in, key, s);
}

}  // namespace

LweSample BootstrapWithoutKeySwitch(Torus32 mu, const LweSample& in,
                                    const BootstrappingKey& key,
                                    BootstrapScratch* scratch) {
    BootstrapScratch local;
    BootstrapScratch& s = scratch != nullptr ? *scratch : local;
    return BlindRotateAndExtract(mu, in, key, s);
}

const LweSample& BootstrapWithoutKeySwitchInScratch(
    Torus32 mu, const LweSample& in, const BootstrappingKey& key,
    BootstrapScratch& s) {
    return BlindRotateAndExtract(mu, in, key, s);
}

LweSample Bootstrap(Torus32 mu, const LweSample& in,
                    const BootstrappingKey& key, BootstrapScratch* scratch) {
    BootstrapScratch local;
    BootstrapScratch& s = scratch != nullptr ? *scratch : local;
    return key.ksk().Apply(BlindRotateAndExtract(mu, in, key, s));
}

const LweSample& FunctionalBootstrapInScratch(
    const TorusPolynomial& test_vector, const LweSample& in,
    const BootstrappingKey& key, BootstrapScratch& s) {
    assert(test_vector.Size() == key.params().big_n);
    return RotateAndExtract(test_vector, in, key, s);
}

}  // namespace pytfhe::tfhe
