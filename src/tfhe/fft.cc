#include "tfhe/fft.h"

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>

#include "tfhe/fft_kernel.h"

namespace pytfhe::tfhe {

namespace batch_detail {
namespace {

/** The portable tier: one double per "vector", compiled at baseline ISA. */
struct Portable {
    using V = double;
    static constexpr int32_t kWidth = 1;
    explicit Portable(const NegacyclicFft&) {}
    static V Load(const double* p) { return *p; }
    static void Store(double* p, V v) { *p = v; }
    static V Set1(double x) { return x; }
    static V Add(V a, V b) { return a + b; }
    static V Sub(V a, V b) { return a - b; }
    static V Mul(V a, V b) { return a * b; }
    static void StoreRounded(Torus32* out, V biased) {
        assert(biased >= 0x1p52 && biased < 0x1p53);  // |x| < 2^51
        uint64_t bits;
        std::memcpy(&bits, &biased, sizeof(bits));
        *out = static_cast<Torus32>(bits);
    }
    static void AddRounded(Torus32* out, V biased) {
        Torus32 rounded;
        StoreRounded(&rounded, biased);
        *out += rounded;
    }

    using W = uint32_t;
    static W LoadWords(const Torus32* p) { return *p; }
    static W SetWords(uint32_t x) { return x; }
    static W AddWords(W a, W b) { return a + b; }
    static W SubWords(W a, W b) { return a - b; }
    static V Digits(W t, int32_t shift, W mask, W half) {
        return static_cast<double>(static_cast<int32_t>((t >> shift) & mask) -
                                   static_cast<int32_t>(half));
    }
};

}  // namespace

const FftKernel kPortableFft = KernelOf<Portable>(1);

}  // namespace batch_detail

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr size_t kAlign = 64;

/** Rounds a slot count up so the second plane stays 64-byte aligned. */
int32_t AlignedStride(int32_t half) { return (half + 7) & ~7; }

}  // namespace

namespace batch_detail {

const FftKernel& KernelFor(int32_t half) {
    static const bool avx512 = Simd512Available();
    static const bool avx2 = SimdAvailable();
    if (avx512 && half >= kAvx512Fft.min_half) return kAvx512Fft;
    if (avx2 && half >= kAvx2Fft.min_half) return kAvx2Fft;
    return kPortableFft;
}

}  // namespace batch_detail

// ------------------------------------------------------------ FreqPolynomial

FreqPolynomial& FreqPolynomial::operator=(const FreqPolynomial& other) {
    if (this == &other) return *this;
    ResizeHalf(other.half_);
    if (half_ > 0)
        std::memcpy(data_, other.data_,
                    2 * static_cast<size_t>(stride_) * sizeof(double));
    return *this;
}

FreqPolynomial& FreqPolynomial::operator=(FreqPolynomial&& other) noexcept {
    if (this == &other) return *this;
    Free();
    data_ = other.data_;
    half_ = other.half_;
    stride_ = other.stride_;
    other.data_ = nullptr;
    other.half_ = 0;
    other.stride_ = 0;
    return *this;
}

void FreqPolynomial::ResizeHalf(int32_t half) {
    assert(half >= 0);
    if (half == half_) return;
    Free();
    half_ = half;
    stride_ = AlignedStride(half);
    if (half == 0) return;
    const size_t bytes = 2 * static_cast<size_t>(stride_) * sizeof(double);
    data_ = static_cast<double*>(
        ::operator new(bytes, std::align_val_t{kAlign}));
    std::memset(data_, 0, bytes);
}

void FreqPolynomial::Clear() {
    if (data_ != nullptr)
        std::memset(data_, 0,
                    2 * static_cast<size_t>(stride_) * sizeof(double));
}

void FreqPolynomial::Free() {
    if (data_ != nullptr)
        ::operator delete(data_, std::align_val_t{kAlign});
    data_ = nullptr;
    half_ = 0;
    stride_ = 0;
}

void FreqPolynomial::AddMul(const FreqPolynomial& a, const FreqPolynomial& b) {
    const int32_t h = HalfSize();
    assert(a.HalfSize() == h && b.HalfSize() == h);
    batch_detail::KernelFor(h).add_mul(Re(), Im(), a.Re(), a.Im(), b.Re(),
                                       b.Im(), h);
}

// ------------------------------------------------------------- NegacyclicFft

NegacyclicFft::NegacyclicFft(int32_t n)
    : n_(n), half_(n / 2), twist_(n / 2), untwist_(n / 2), twiddle_(n / 2),
      kernel_(&batch_detail::KernelFor(n / 2)) {
    assert(n >= 2 && (n & (n - 1)) == 0);
    for (int32_t j = 0; j < half_; ++j) {
        const double ang = -kPi * j / n;
        twist_.Re()[j] = std::cos(ang);
        twist_.Im()[j] = std::sin(ang);
        // Untwist conjugates the twist and folds in the 1/h inverse-FFT
        // normalization.
        untwist_.Re()[j] = std::cos(ang) / half_;
        untwist_.Im()[j] = -std::sin(ang) / half_;
    }
    // Stage hb's twiddles at [hb, 2hb); slot 0 is unused.
    for (int32_t hb = 1; hb < half_; hb *= 2) {
        for (int32_t k = 0; k < hb; ++k) {
            const double ang = -2.0 * kPi * k / (2 * hb);
            twiddle_.Re()[hb + k] = std::cos(ang);
            twiddle_.Im()[hb + k] = std::sin(ang);
        }
    }
}

void NegacyclicFft::Forward(FreqPolynomial& out, const IntPolynomial& p) const {
    assert(p.Size() == n_);
    out.ResizeHalf(half_);
    for (int32_t j = 0; j < half_; ++j) {
        out.Re()[j] = static_cast<double>(p.coefs[j]);
        out.Im()[j] = static_cast<double>(p.coefs[j + half_]);
    }
    ForwardPacked(out);
}

void NegacyclicFft::Forward(FreqPolynomial& out, const TorusPolynomial& p) const {
    assert(p.Size() == n_);
    out.ResizeHalf(half_);
    for (int32_t j = 0; j < half_; ++j) {
        out.Re()[j] = static_cast<double>(static_cast<int32_t>(p.coefs[j]));
        out.Im()[j] =
            static_cast<double>(static_cast<int32_t>(p.coefs[j + half_]));
    }
    ForwardPacked(out);
}

void NegacyclicFft::ForwardPacked(FreqPolynomial& f) const {
    assert(f.HalfSize() == half_);
    kernel_->forward(*this, f.Re(), f.Im());
}

void NegacyclicFft::InverseInPlace(TorusPolynomial& out,
                                   FreqPolynomial& f) const {
    assert(f.HalfSize() == half_ && out.Size() == n_);
    kernel_->inverse(*this, f.Re(), f.Im(), out.coefs.data());
}

void NegacyclicFft::Inverse(TorusPolynomial& out, const FreqPolynomial& f,
                            FftScratch& scratch) const {
    scratch.acc = f;
    InverseInPlace(out, scratch.acc);
}

void NegacyclicFft::Inverse(TorusPolynomial& out,
                            const FreqPolynomial& f) const {
    FftScratch scratch;
    Inverse(out, f, scratch);
}

void NegacyclicFft::Multiply(TorusPolynomial& result, const IntPolynomial& a,
                             const TorusPolynomial& b,
                             FftScratch& scratch) const {
    Forward(scratch.a, a);
    Forward(scratch.b, b);
    scratch.acc.ResizeHalf(half_);
    scratch.acc.Clear();
    scratch.acc.AddMul(scratch.a, scratch.b);
    InverseInPlace(result, scratch.acc);
}

void NegacyclicFft::Multiply(TorusPolynomial& result, const IntPolynomial& a,
                             const TorusPolynomial& b) const {
    FftScratch scratch;
    Multiply(result, a, b, scratch);
}

std::vector<int32_t> BitReversedSlots(int32_t half) {
    assert(half >= 1 && (half & (half - 1)) == 0);
    const int32_t bits = std::countr_zero(static_cast<uint32_t>(half));
    std::vector<int32_t> slots(half);
    for (int32_t m = 0; m < half; ++m) {
        int32_t r = 0;
        for (int32_t b = 0; b < bits; ++b)
            if (m & (1 << b)) r |= 1 << (bits - 1 - b);
        slots[m] = r;
    }
    return slots;
}

// -------------------------------------------------------------- ReferenceFft

ReferenceFft::ReferenceFft(int32_t n) : n_(n) {
    assert(n >= 2 && (n & (n - 1)) == 0);
    log2n_ = 0;
    while ((1 << log2n_) < n) ++log2n_;

    twist_re_.resize(n);
    twist_im_.resize(n);
    untwist_re_.resize(n);
    untwist_im_.resize(n);
    for (int32_t j = 0; j < n; ++j) {
        const double ang = -kPi * j / n;
        twist_re_[j] = std::cos(ang);
        twist_im_[j] = std::sin(ang);
        untwist_re_[j] = std::cos(-ang) / n;
        untwist_im_[j] = std::sin(-ang) / n;
    }

    tw_re_.resize(n - 1);
    tw_im_.resize(n - 1);
    for (int32_t half = 1; half < n; half *= 2) {
        const int32_t len = half * 2;
        for (int32_t k = 0; k < half; ++k) {
            const double ang = -2.0 * kPi * k / len;
            tw_re_[half - 1 + k] = std::cos(ang);
            tw_im_[half - 1 + k] = std::sin(ang);
        }
    }

    bitrev_.resize(n);
    for (int32_t i = 0; i < n; ++i) {
        int32_t r = 0;
        for (int32_t b = 0; b < log2n_; ++b)
            if (i & (1 << b)) r |= 1 << (log2n_ - 1 - b);
        bitrev_[i] = r;
    }
}

void ReferenceFft::FftInPlace(std::vector<double>& re, std::vector<double>& im,
                              bool inverse) const {
    const int32_t n = n_;
    for (int32_t i = 0; i < n; ++i) {
        const int32_t j = bitrev_[i];
        if (i < j) {
            std::swap(re[i], re[j]);
            std::swap(im[i], im[j]);
        }
    }
    for (int32_t half = 1; half < n; half *= 2) {
        const int32_t len = half * 2;
        const double* wre = &tw_re_[half - 1];
        const double* wim = &tw_im_[half - 1];
        const double sign = inverse ? -1.0 : 1.0;
        for (int32_t base = 0; base < n; base += len) {
            for (int32_t k = 0; k < half; ++k) {
                const double cr = wre[k];
                const double ci = sign * wim[k];
                const int32_t i0 = base + k;
                const int32_t i1 = i0 + half;
                const double tre = re[i1] * cr - im[i1] * ci;
                const double tim = re[i1] * ci + im[i1] * cr;
                re[i1] = re[i0] - tre;
                im[i1] = im[i0] - tim;
                re[i0] += tre;
                im[i0] += tim;
            }
        }
    }
}

void ReferenceFft::ForwardReal(std::vector<double>& re, std::vector<double>& im,
                               const double* coefs) const {
    re.resize(n_);
    im.resize(n_);
    for (int32_t j = 0; j < n_; ++j) {
        re[j] = coefs[j] * twist_re_[j];
        im[j] = coefs[j] * twist_im_[j];
    }
    FftInPlace(re, im, /*inverse=*/false);
}

void ReferenceFft::Multiply(TorusPolynomial& result, const IntPolynomial& a,
                            const TorusPolynomial& b) const {
    assert(a.Size() == n_ && b.Size() == n_ && result.Size() == n_);
    std::vector<double> tmp(n_);
    for (int32_t j = 0; j < n_; ++j)
        tmp[j] = static_cast<double>(a.coefs[j]);
    std::vector<double> are, aim;
    ForwardReal(are, aim, tmp.data());
    for (int32_t j = 0; j < n_; ++j)
        tmp[j] = static_cast<double>(static_cast<int32_t>(b.coefs[j]));
    std::vector<double> bre, bim;
    ForwardReal(bre, bim, tmp.data());

    std::vector<double> pre(n_), pim(n_);
    for (int32_t j = 0; j < n_; ++j) {
        pre[j] = are[j] * bre[j] - aim[j] * bim[j];
        pim[j] = are[j] * bim[j] + aim[j] * bre[j];
    }
    FftInPlace(pre, pim, /*inverse=*/true);
    for (int32_t j = 0; j < n_; ++j) {
        const double val = pre[j] * untwist_re_[j] - pim[j] * untwist_im_[j];
        result.coefs[j] =
            static_cast<Torus32>(static_cast<uint64_t>(std::llround(val)));
    }
}

// ---------------------------------------------------------------- plan cache

const NegacyclicFft& GetFftPlan(int32_t n) {
    assert(n >= 2 && (n & (n - 1)) == 0);
    // One slot per power of two; the hot path is a single acquire load.
    static std::array<std::atomic<const NegacyclicFft*>, 32> slots{};
    const int32_t lg = std::countr_zero(static_cast<uint32_t>(n));
    std::atomic<const NegacyclicFft*>& slot = slots[lg];
    if (const NegacyclicFft* plan = slot.load(std::memory_order_acquire))
        return *plan;

    static std::mutex mu;
    static std::vector<std::unique_ptr<NegacyclicFft>> owned;
    std::lock_guard<std::mutex> lock(mu);
    if (const NegacyclicFft* plan = slot.load(std::memory_order_relaxed))
        return *plan;
    owned.push_back(std::make_unique<NegacyclicFft>(n));
    slot.store(owned.back().get(), std::memory_order_release);
    return *owned.back();
}

}  // namespace pytfhe::tfhe
