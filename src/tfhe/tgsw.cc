#include "tfhe/tgsw.h"

#include <algorithm>
#include <cassert>

#include "tfhe/fft_batch_kernels.h"

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
 * Slots of one lane's key product per MulAcc call: the key block the
 * lanes share (rows * cols * 2 * 8 * kSlotBlock bytes, 12 KiB at
 * tfhe-128) stays in L1 while every lane reads it.
 */
constexpr int32_t kSlotBlock = 64;

/**
 * External product of lanes [0, b) against one TGSW sample, each lane on
 * its own scratch. Without `rot`, results[l] = C x samples[l]. With it,
 * results == samples and results[l] += C x ((X^rot[l] - 1) * results[l]):
 * the decomposition reads the rotation from the accumulator and the
 * inverse adds the product into it, after every lane has been read.
 *
 * Per lane, all (k+1)*l digit polynomials are decomposed and transformed
 * first; the key product then runs slot block by slot block, lanes inner,
 * so every key block is loaded once per call and every output column is
 * summed in registers in the (ci, j) row order of a cleared accumulator.
 */
void ExternalProductLanes(TLweSample* results, const TLweSample* samples,
                          const int32_t* rot, int32_t b,
                          const TGswSampleFft& c, const NegacyclicFft& fft,
                          ExternalProductScratch* lanes) {
    const int32_t n = samples[0].BigN();
    const int32_t k = samples[0].K();
    const int32_t half = fft.Half();
    const int32_t rows = (k + 1) * c.l;
    assert(fft.Size() == n);
    assert(static_cast<size_t>(rows) == c.rows.size());
    assert(rot == nullptr || results == samples);
    const batch_detail::FftKernel& kernel = fft.Kernel();

    const uint32_t offset = DecomposeOffset(c.l, c.bg_bit);
    for (int32_t lane = 0; lane < b; ++lane) {
        ExternalProductScratch& s = lanes[lane];
        if (static_cast<int32_t>(s.dec.size()) != rows) s.dec.resize(rows);
        for (auto& f : s.dec) f.ResizeHalf(half);
        if (static_cast<int32_t>(s.acc.size()) != k + 1) s.acc.resize(k + 1);
        for (auto& f : s.acc) f.ResizeHalf(half);
        for (int32_t ci = 0; ci <= k; ++ci) {
            FreqPolynomial* dec = &s.dec[ci * c.l];
            const Torus32* coefs = samples[lane].a[ci].coefs.data();
            if (rot != nullptr)
                kernel.forward_rotated_digits(fft, dec, coefs, rot[lane], c.l,
                                              c.bg_bit, offset);
            else
                kernel.forward_digits(fft, dec, coefs, c.l, c.bg_bit, offset);
        }
    }

    for (int32_t begin = 0; begin < half; begin += kSlotBlock) {
        const int32_t end = std::min(half, begin + kSlotBlock);
        for (int32_t lane = 0; lane < b; ++lane)
            kernel.mul_acc(lanes[lane].acc.data(), lanes[lane].dec.data(),
                           c.rows.data(), rows, k + 1, begin, end);
    }

    const auto inverse = rot != nullptr ? kernel.inverse_add : kernel.inverse;
    for (int32_t lane = 0; lane < b; ++lane) {
        TLweSample& r = results[lane];
        if (r.BigN() != n || r.K() != k) r = TLweSample(n, k);
        for (int32_t col = 0; col <= k; ++col) {
            FreqPolynomial& f = lanes[lane].acc[col];
            inverse(fft, f.Re(), f.Im(), r.a[col].coefs.data());
        }
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
    ExternalProductLanes(&result, &sample, nullptr, 1, c, fft,
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
    ExternalProductLanes(result.data(), samples.data(), nullptr, b, c, fft,
                         s.lanes.data());
}

void TGswRotateCMux(TLweSample* accs, const int32_t* rot, int32_t b,
                    const TGswSampleFft& c, const NegacyclicFft& fft,
                    ExternalProductScratch* lanes) {
    assert(b >= 1);
    ExternalProductLanes(accs, accs, rot, b, c, fft, lanes);
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
