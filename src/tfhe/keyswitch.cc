#include "tfhe/keyswitch.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "tfhe/fft_batch_kernels.h"

namespace pytfhe::tfhe {

namespace {

constexpr size_t kSlabAlign = 64;
constexpr size_t kRowAlignWords = kSlabAlign / sizeof(Torus32);
static_assert(batch_detail::kKsAccWords == KeySwitchKey::kMaxOutputN + 1,
              "one padded row of the longest output fills the walk buffer");

}  // namespace

void KeySwitchKey::SlabFree::operator()(Torus32* p) const {
    ::operator delete(p, std::align_val_t{kSlabAlign});
}

KeySwitchKey::KeySwitchKey(int32_t n_in, int32_t n_out, int32_t t,
                           int32_t base_bit)
    : n_in_(n_in),
      n_out_(n_out),
      t_(t),
      base_bit_(base_bit),
      base_(1 << base_bit),
      stride_((static_cast<size_t>(n_out) + 1 + kRowAlignWords - 1) /
              kRowAlignWords * kRowAlignWords) {
    assert(n_in > 0 && t > 0 && base_bit >= 1);
    assert(t * base_bit < 32);
    if (n_out <= 0 || n_out > kMaxOutputN)
        throw std::invalid_argument(
            "KeySwitchKey: output dimension must be in [1, " +
            std::to_string(kMaxOutputN) + "]");
    const size_t bytes = ByteSize();
    slab_.reset(static_cast<Torus32*>(
        ::operator new(bytes, std::align_val_t{kSlabAlign})));
    std::memset(slab_.get(), 0, bytes);
}

KeySwitchKey::KeySwitchKey(const LweKey& in_key, const LweKey& out_key,
                           int32_t t, int32_t base_bit, double noise_stddev,
                           Rng& rng)
    : KeySwitchKey(in_key.N(), out_key.N(), t, base_bit) {
    for (int32_t i = 0; i < n_in_; ++i) {
        for (int32_t j = 0; j < t_; ++j) {
            for (int32_t v = 1; v <= RowsPerDigit(); ++v) {
                // Message: v * s_i / base^{j+1} on the torus.
                const Torus32 mu =
                    static_cast<uint32_t>(v * in_key.key[i])
                    << (32 - base_bit_ * (j + 1));
                Torus32* row = MutableRow(i, j, v);
                LweEncryptInto(mu, noise_stddev, out_key, rng,
                               LweView{row, row + n_out_, n_out_});
            }
        }
    }
}

LweSample KeySwitchKey::Apply(const LweSample& in) const {
    LweSample out(n_out_);
    ApplyInto(in, ViewOf(out));
    return out;
}

void KeySwitchKey::ApplyInto(const LweSample& in, LweView out) const {
    ApplyBatchInto(&in, &out, 1);
}

void KeySwitchKey::ApplyBatchInto(const LweSample* in, const LweView* out,
                                  int32_t b) const {
    using namespace batch_detail;
    // The walk runs at the widest tier this CPU has, like the FFT.
    static const FftKernel& kernel = KernelFor(kMaxHalf);
    const KeySwitchSlab k{slab_.get(), stride_, n_in_, n_out_, t_, base_bit_};
    const int32_t group = static_cast<int32_t>(
        std::min<size_t>(kKsLaneGroup, kKsAccWords / stride_));
    for (int32_t l = 0; l < b; l += group)
        kernel.ks_walk(k, in + l, out + l, std::min(group, b - l));
}

}  // namespace pytfhe::tfhe
