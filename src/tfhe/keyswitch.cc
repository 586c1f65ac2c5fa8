#include "tfhe/keyswitch.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace pytfhe::tfhe {

namespace {

constexpr size_t kSlabAlign = 64;
constexpr size_t kRowAlignWords = kSlabAlign / sizeof(Torus32);

/**
 * Lanes whose accumulators one walk over the key serves, and the words of
 * the on-stack accumulator buffer they share (32 KiB: eight padded rows of
 * n_out < 1024, fewer lanes for longer rows, one row of the longest). A
 * wider batch walks the key once per group.
 */
constexpr int32_t kLaneGroup = 8;
constexpr size_t kAccWords = KeySwitchKey::kMaxOutputN + 1;

/**
 * acc += row when neg == 0, acc -= row when neg == ~0 ((x ^ ~0) - ~0 = -x),
 * over `chunks` 64-byte chunks; both are 64-byte aligned and the row never
 * aliases the accumulator.
 */
[[gnu::always_inline]] inline void AddSignedRow(
    Torus32* __restrict acc, const Torus32* __restrict row, size_t chunks,
    uint32_t neg) {
    acc = static_cast<Torus32*>(__builtin_assume_aligned(acc, kSlabAlign));
    row = static_cast<const Torus32*>(
        __builtin_assume_aligned(row, kSlabAlign));
    for (size_t k = 0; k < chunks; ++k, acc += kRowAlignWords,
                row += kRowAlignWords)
        for (size_t c = 0; c < kRowAlignWords; ++c)
            acc[c] += (row[c] ^ neg) - neg;
}

/** The slab and its shape, as the walk reads them. */
struct SlabShape {
    const Torus32* slab;
    size_t stride;
    int32_t n_in, n_out, t, base_bit;
};

/**
 * One walk over the slab for lanes in[0..b), b <= kLaneGroup and
 * b * stride <= kAccWords.
 */
void Walk(const SlabShape& k, const LweSample* in, const LweView* out,
          int32_t b) {
    assert(b >= 1 && b <= kLaneGroup && b * k.stride <= kAccWords);
    const int32_t half = (1 << k.base_bit) / 2;
    // Round each a_i to t digits instead of truncating, and add B/2 at
    // every digit position: unsigned digit u of the sum is the signed
    // digit u - B/2 of the rounded a_i, and a carry out of the top digit
    // vanishes mod 1.
    uint32_t offset = UINT32_C(1) << (32 - (1 + k.base_bit * k.t));
    for (int32_t j = 0; j < k.t; ++j)
        offset += static_cast<uint32_t>(half) << (32 - k.base_bit * (j + 1));
    const uint32_t mask = (UINT32_C(1) << k.base_bit) - 1;

    // Each lane accumulates a whole padded row (mask, body, zero padding)
    // in an aligned buffer that stays in L1 for the whole walk, so the row
    // update is a whole number of 64-byte chunks with no remainder loop.
    alignas(kSlabAlign) Torus32 acc[kAccWords];
    uint32_t ai[kLaneGroup];
    const size_t stride = k.stride;
    std::memset(acc, 0, b * stride * sizeof(Torus32));
    for (int32_t l = 0; l < b; ++l) {
        assert(in[l].N() == k.n_in);
        assert(out[l].n == k.n_out);
        acc[l * stride + k.n_out] = in[l].b;
    }
    const size_t block = static_cast<size_t>(half) * stride;
    const Torus32* rows = k.slab;
    for (int32_t i = 0; i < k.n_in; ++i) {
        for (int32_t l = 0; l < b; ++l) ai[l] = in[l].a[i] + offset;
        for (int32_t j = 0; j < k.t; ++j, rows += block) {
            const int32_t shift = 32 - k.base_bit * (j + 1);
            for (int32_t l = 0; l < b; ++l) {
                const int32_t d =
                    static_cast<int32_t>((ai[l] >> shift) & mask) - half;
                if (d == 0) continue;
                // A positive digit subtracts row d, a negative one adds
                // row -d; both without a branch on the sign.
                const int32_t sign = d >> 31;  // 0 or -1.
                const int32_t v = (d ^ sign) - sign;
                const Torus32* row =
                    rows + static_cast<size_t>(v - 1) * stride;
                AddSignedRow(acc + l * stride, row, stride / kRowAlignWords,
                             ~static_cast<uint32_t>(sign));
            }
        }
    }
    for (int32_t l = 0; l < b; ++l) {
        std::copy(acc + l * stride, acc + l * stride + k.n_out, out[l].a);
        *out[l].b = acc[l * stride + k.n_out];
    }
}

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
    const SlabShape k{slab_.get(), stride_, n_in_, n_out_, t_, base_bit_};
    const int32_t group = static_cast<int32_t>(
        std::min<size_t>(kLaneGroup, kAccWords / stride_));
    for (int32_t l = 0; l < b; l += group)
        Walk(k, in + l, out + l, std::min(group, b - l));
}

}  // namespace pytfhe::tfhe
