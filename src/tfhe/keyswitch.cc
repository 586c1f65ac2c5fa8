#include "tfhe/keyswitch.h"

#include <cassert>

namespace pytfhe::tfhe {

KeySwitchKey::KeySwitchKey(const LweKey& in_key, const LweKey& out_key,
                           int32_t t, int32_t base_bit, double noise_stddev,
                           Rng& rng)
    : n_in_(in_key.N()),
      n_out_(out_key.N()),
      t_(t),
      base_bit_(base_bit),
      base_(1 << base_bit) {
    keys_.reserve(static_cast<size_t>(n_in_) * t_ * base_);
    for (int32_t i = 0; i < n_in_; ++i) {
        for (int32_t j = 0; j < t_; ++j) {
            for (int32_t v = 0; v < base_; ++v) {
                // Message: v * s_i / base^{j+1} on the torus.
                const Torus32 mu =
                    static_cast<uint32_t>(v * in_key.key[i])
                    << (32 - base_bit_ * (j + 1));
                if (v == 0) {
                    // Never subtracted during Apply; store a zero sample to
                    // keep indexing simple without spending RNG draws.
                    keys_.emplace_back(n_out_);
                } else {
                    keys_.push_back(LweEncrypt(mu, noise_stddev, out_key, rng));
                }
            }
        }
    }
}

KeySwitchKey KeySwitchKey::FromRaw(int32_t n_in, int32_t n_out, int32_t t,
                                   int32_t base_bit,
                                   std::vector<LweSample> keys) {
    KeySwitchKey k;
    k.n_in_ = n_in;
    k.n_out_ = n_out;
    k.t_ = t;
    k.base_bit_ = base_bit;
    k.base_ = 1 << base_bit;
    assert(keys.size() == static_cast<size_t>(n_in) * t * k.base_);
    k.keys_ = std::move(keys);
    return k;
}

LweSample KeySwitchKey::Apply(const LweSample& in) const {
    LweSample out(n_out_);
    ApplyInto(in, ViewOf(out));
    return out;
}

namespace {

/** out -= row over n coefficients; the rows never alias the output. */
void SubRow(Torus32* __restrict out, const Torus32* __restrict row,
            int32_t n) {
    for (int32_t c = 0; c < n; ++c) out[c] -= row[c];
}

}  // namespace

void KeySwitchKey::ApplyInto(const LweSample& in, LweView out) const {
    assert(in.N() == n_in_);
    assert(out.n == n_out_);
    // The body accumulates in a register; storing it through out.b once
    // per digit would force a reload on every row (out.b may alias a row
    // as far as the compiler knows).
    Torus32 body = in.b;
    LweSetTrivial(out, 0);
    // Rounding offset: round each a_i to t digits instead of truncating.
    const uint32_t prec_offset = UINT32_C(1)
                                 << (32 - (1 + base_bit_ * t_));
    const uint32_t mask = static_cast<uint32_t>(base_ - 1);
    for (int32_t i = 0; i < n_in_; ++i) {
        const uint32_t ai = in.a[i] + prec_offset;
        for (int32_t j = 0; j < t_; ++j) {
            const uint32_t digit = (ai >> (32 - base_bit_ * (j + 1))) & mask;
            if (digit == 0) continue;
            const LweSample& k = At(i, j, static_cast<int32_t>(digit));
            SubRow(out.a, k.a.data(), n_out_);
            body -= k.b;
        }
    }
    *out.b = body;
}

size_t KeySwitchKey::ByteSize() const {
    return keys_.size() * (static_cast<size_t>(n_out_) + 1) * sizeof(Torus32);
}

}  // namespace pytfhe::tfhe
