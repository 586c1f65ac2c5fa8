#include "tfhe/bootstrap_batch.h"

#include <cassert>

namespace pytfhe::tfhe {

namespace {

void EnsureShape(TLweSample& s, int32_t n, int32_t k) {
    if (s.BigN() != n || s.K() != k) s = TLweSample(n, k);
}

void EnsureSize(TorusPolynomial& p, int32_t n) {
    if (p.Size() != n) p = TorusPolynomial(n);
}

void EnsureLanes(BatchScratch& s, int32_t b, const Params& p) {
    if (static_cast<int32_t>(s.acc.size()) < b) s.acc.resize(b);
    if (static_cast<int32_t>(s.bara.size()) < b) s.bara.resize(b);
    for (int32_t l = 0; l < b; ++l) {
        EnsureShape(s.acc[l], p.big_n, p.k);
        s.bara[l].resize(p.n);
    }
}

}  // namespace

void BatchedBlindRotate(std::vector<TLweSample>& accs,
                        const std::vector<std::vector<int32_t>>& bara,
                        int32_t b, const BootstrappingKey& key,
                        BatchScratch& s) {
    const Params& p = key.params();
    assert(static_cast<int32_t>(accs.size()) >= b);
    assert(static_cast<int32_t>(bara.size()) >= b);
    if (static_cast<int32_t>(s.ep.lanes.size()) < b) s.ep.lanes.resize(b);
    s.rot.resize(b);
    for (int32_t l = 0; l < b; ++l) {
        assert(static_cast<int32_t>(bara[l].size()) == p.n);
        assert(accs[l].BigN() == p.big_n && accs[l].K() == p.k);
    }
    for (int32_t i = 0; i < p.n; ++i) {
        // When every lane's coefficient is zero the whole CMUX is skipped,
        // exactly like the scalar per-lane `continue`. A zero lane inside a
        // mixed column rides through with an exactly-zero rotation
        // difference, whose product is exactly zero (see file comment in
        // bootstrap_batch.h), so adding it is also identical to skipping.
        bool any = false;
        for (int32_t l = 0; l < b; ++l) {
            s.rot[l] = bara[l][i];
            any = any || s.rot[l] != 0;
        }
        if (!any) continue;
        // acc <- CMUX(bk_i, X^a * acc, acc) = acc + bk_i x (X^a - 1) * acc.
        TGswRotateCMux(accs.data(), s.rot.data(), b, key.bk()[i], key.fft(),
                       s.ep.lanes.data());
    }
}

void BatchedRotateExtract(const TorusPolynomial* const* tvs,
                          const LweSample* const* in, LweSample* const* out,
                          int32_t b, const BootstrappingKey& key,
                          BatchScratch& s) {
    const Params& p = key.params();
    const int32_t two_n = 2 * p.big_n;
    EnsureLanes(s, b, p);
    EnsureSize(s.shifted, p.big_n);

    for (int32_t l = 0; l < b; ++l) {
        const LweSample& sample = *in[l];
        assert(sample.N() == p.n);
        assert(tvs[l]->Size() == p.big_n);
        const int32_t barb = ModSwitchFromTorus32(sample.b, two_n);
        for (int32_t i = 0; i < p.n; ++i)
            s.bara[l][i] = ModSwitchFromTorus32(sample.a[i], two_n);
        MulByXai(s.shifted, two_n - barb, *tvs[l]);
        s.acc[l].SetTrivial(s.shifted);
    }

    BatchedBlindRotate(s.acc, s.bara, b, key, s);
    for (int32_t l = 0; l < b; ++l)
        TLweExtractSampleInto(*out[l], s.acc[l], 0);
}

void BatchedGateBootstrap(Torus32 mu, const LweSample* const* in,
                          LweSample* const* out, int32_t b,
                          const BootstrappingKey& key, BatchScratch* scratch) {
    BatchScratch local;
    BatchScratch& s = scratch != nullptr ? *scratch : local;
    EnsureSize(s.testvect, key.params().big_n);
    for (auto& c : s.testvect.coefs) c = mu;
    s.tvs.assign(b, &s.testvect);
    if (static_cast<int32_t>(s.rotated_lwe.size()) < b)
        s.rotated_lwe.resize(b);
    s.out_ptrs.resize(b);
    for (int32_t l = 0; l < b; ++l) s.out_ptrs[l] = &s.rotated_lwe[l];
    // Every in[l] is read here, before any out[l] is written below.
    BatchedRotateExtract(s.tvs.data(), in, s.out_ptrs.data(), b, key, s);
    const int32_t n = key.params().n;
    s.out_views.resize(b);
    for (int32_t l = 0; l < b; ++l) {
        if (out[l]->N() != n) *out[l] = LweSample(n);
        s.out_views[l] = ViewOf(*out[l]);
    }
    key.ksk().ApplyBatchInto(s.rotated_lwe.data(), s.out_views.data(), b);
}

}  // namespace pytfhe::tfhe
