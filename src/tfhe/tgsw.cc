#include "tfhe/tgsw.h"

#include <cassert>

namespace pytfhe::tfhe {

namespace {

/**
 * Rounding offset so truncation becomes round-to-nearest with digits
 * recentered into [-Bg/2, Bg/2).
 */
uint32_t DecomposeOffset(int32_t l, int32_t bg_bit) {
    const int32_t half_bg = INT32_C(1) << (bg_bit - 1);
    uint32_t offset = 0;
    for (int32_t j = 1; j <= l; ++j)
        offset += static_cast<uint32_t>(half_bg) << (32 - j * bg_bit);
    return offset;
}

/**
 * Fused gadget decomposition of one TLWE component, written directly into
 * the folded FFT's packed input layout: dec[j].Re()[p] is digit j of
 * coefficient p and dec[j].Im()[p] is digit j of coefficient p + N/2.
 */
void DecomposePacked(std::vector<FreqPolynomial>& dec,
                     const TorusPolynomial& poly, int32_t l, int32_t bg_bit,
                     uint32_t offset) {
    const int32_t half = poly.Size() / 2;
    const int32_t half_bg = INT32_C(1) << (bg_bit - 1);
    const uint32_t mask = (UINT32_C(1) << bg_bit) - 1;
    const Torus32* __restrict c = poly.coefs.data();
    for (int32_t j = 0; j < l; ++j) {
        const int32_t shift = 32 - bg_bit * (j + 1);
        double* __restrict re = dec[j].Re();
        double* __restrict im = dec[j].Im();
        for (int32_t p = 0; p < half; ++p) {
            const uint32_t lo = c[p] + offset;
            const uint32_t hi = c[p + half] + offset;
            re[p] = static_cast<double>(
                static_cast<int32_t>((lo >> shift) & mask) - half_bg);
            im[p] = static_cast<double>(
                static_cast<int32_t>((hi >> shift) & mask) - half_bg);
        }
    }
}

/**
 * External product of lanes [0, b) against one TGSW sample, each lane on
 * its own scratch. Loop order (ci, j, lane): a key row is loaded once per
 * call and reused from cache by the other lanes, while every lane
 * accumulates in the same (ci, j, col) order as a one-lane call.
 */
void ExternalProductLanes(TLweSample* results, const TLweSample* samples,
                          int32_t b, const TGswSampleFft& c,
                          const NegacyclicFft& fft,
                          ExternalProductScratch* lanes) {
    const int32_t n = samples[0].BigN();
    const int32_t k = samples[0].K();
    const int32_t half = fft.Half();
    assert(fft.Size() == n);
    assert(static_cast<size_t>((k + 1) * c.l) == c.rows.size());

    for (int32_t lane = 0; lane < b; ++lane) {
        ExternalProductScratch& s = lanes[lane];
        if (static_cast<int32_t>(s.dec.size()) != c.l) s.dec.resize(c.l);
        for (auto& f : s.dec) f.ResizeHalf(half);
        if (static_cast<int32_t>(s.acc.size()) != k + 1) s.acc.resize(k + 1);
        for (auto& f : s.acc) {
            f.ResizeHalf(half);
            f.Clear();
        }
    }

    const uint32_t offset = DecomposeOffset(c.l, c.bg_bit);
    for (int32_t ci = 0; ci <= k; ++ci) {
        for (int32_t lane = 0; lane < b; ++lane)
            DecomposePacked(lanes[lane].dec, samples[lane].a[ci], c.l,
                            c.bg_bit, offset);
        for (int32_t j = 0; j < c.l; ++j) {
            const std::vector<FreqPolynomial>& row = c.rows[ci * c.l + j];
            for (int32_t lane = 0; lane < b; ++lane) {
                ExternalProductScratch& s = lanes[lane];
                fft.ForwardPacked(s.dec[j]);
                for (int32_t col = 0; col <= k; ++col)
                    s.acc[col].AddMul(s.dec[j], row[col]);
            }
        }
    }

    for (int32_t lane = 0; lane < b; ++lane) {
        TLweSample& r = results[lane];
        if (r.BigN() != n || r.K() != k) r = TLweSample(n, k);
        for (int32_t col = 0; col <= k; ++col)
            fft.InverseInPlace(r.a[col], lanes[lane].acc[col]);
    }
}

}  // namespace

TGswSample TGswEncrypt(int32_t message, int32_t l, int32_t bg_bit,
                       double noise_stddev, const TLweKey& key, Rng& rng) {
    const int32_t n = key.BigN();
    const int32_t k = key.K();
    TGswSample out;
    out.l = l;
    out.bg_bit = bg_bit;
    out.rows.reserve(static_cast<size_t>(k + 1) * l);
    TorusPolynomial zero(n);
    for (int32_t i = 0; i <= k; ++i) {
        for (int32_t j = 0; j < l; ++j) {
            TLweSample row = TLweEncrypt(zero, noise_stddev, key, rng);
            const Torus32 h = UINT32_C(1) << (32 - bg_bit * (j + 1));
            row.a[i].coefs[0] += static_cast<uint32_t>(message) * h;
            out.rows.push_back(std::move(row));
        }
    }
    return out;
}

TGswSampleFft TGswToFft(const TGswSample& sample, const NegacyclicFft& fft) {
    TGswSampleFft out;
    out.l = sample.l;
    out.bg_bit = sample.bg_bit;
    out.rows.resize(sample.rows.size());
    for (size_t r = 0; r < sample.rows.size(); ++r) {
        const TLweSample& row = sample.rows[r];
        out.rows[r].resize(row.a.size());
        for (size_t c = 0; c < row.a.size(); ++c)
            fft.Forward(out.rows[r][c], row.a[c]);
    }
    return out;
}

void TGswDecompose(std::vector<IntPolynomial>& out, const TLweSample& sample,
                   int32_t l, int32_t bg_bit) {
    const int32_t n = sample.BigN();
    const int32_t k = sample.K();
    const int32_t half_bg = INT32_C(1) << (bg_bit - 1);
    const uint32_t mask = (UINT32_C(1) << bg_bit) - 1;
    const uint32_t offset = DecomposeOffset(l, bg_bit);

    out.assign(static_cast<size_t>(k + 1) * l, IntPolynomial(n));
    for (int32_t c = 0; c <= k; ++c) {
        const TorusPolynomial& poly = sample.a[c];
        for (int32_t p = 0; p < n; ++p) {
            const uint32_t t = poly.coefs[p] + offset;
            for (int32_t j = 0; j < l; ++j) {
                const uint32_t digit = (t >> (32 - bg_bit * (j + 1))) & mask;
                out[c * l + j].coefs[p] =
                    static_cast<int32_t>(digit) - half_bg;
            }
        }
    }
}

void TGswExternalProduct(TLweSample& result, const TGswSampleFft& c,
                         const TLweSample& sample, const NegacyclicFft& fft,
                         ExternalProductScratch* scratch) {
    ExternalProductScratch local;
    ExternalProductLanes(&result, &sample, 1, c, fft,
                         scratch != nullptr ? scratch : &local);
}

void TGswExternalProductBatch(std::vector<TLweSample>& result,
                              const TGswSampleFft& c,
                              const std::vector<TLweSample>& samples,
                              int32_t b, const NegacyclicFft& fft,
                              BatchExternalProductScratch& s) {
    assert(b >= 1 && static_cast<size_t>(b) <= samples.size());
    if (static_cast<int32_t>(result.size()) < b) result.resize(b);
    if (static_cast<int32_t>(s.lanes.size()) < b) s.lanes.resize(b);
    ExternalProductLanes(result.data(), samples.data(), b, c, fft,
                         s.lanes.data());
}

void TGswCMux(TLweSample& result, const TGswSampleFft& c, const TLweSample& d1,
              const TLweSample& d0, const NegacyclicFft& fft,
              ExternalProductScratch* scratch) {
    ExternalProductScratch local;
    ExternalProductScratch& s = scratch != nullptr ? *scratch : local;
    s.cmux_diff = d1;  // No allocation once shapes match across calls.
    s.cmux_diff.SubTo(d0);
    TGswExternalProduct(result, c, s.cmux_diff, fft, &s);
    result.AddTo(d0);
}

}  // namespace pytfhe::tfhe
