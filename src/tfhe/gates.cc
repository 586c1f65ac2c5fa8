#include "tfhe/gates.h"

#include <bit>
#include <chrono>
#include <cstdio>

#include "tfhe/multibit.h"

namespace pytfhe::tfhe {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

// Local aliases for the exported encodings (see gates.h).
constexpr Torus32 kEighth = kGateMu;
constexpr Torus32 kQuarter = kGateQuarter;

}  // namespace

namespace {

/** coef_a*a + coef_b*b + offset; the shared core of the linear gates. */
LweSample LinearCombine(int32_t coef_a, const LweSample& a, int32_t coef_b,
                        const LweSample& b, Torus32 offset) {
    LweSample out(a.N());
    out.SetTrivial(offset);
    out.AddMulTo(a, coef_a);
    out.AddMulTo(b, coef_b);
    return out;
}

}  // namespace

namespace {

/** FNV-1a over 64-bit words; the digest behind KeyId. */
struct Fnv64 {
    uint64_t h = UINT64_C(1469598103934665603);

    void Mix(uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= UINT64_C(1099511628211);
        }
    }
};

}  // namespace

std::string KeyId::ToString() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key:%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

KeyId ComputeKeyId(const SecretKeySet& secret) {
    Fnv64 fnv;
    const Params& p = secret.params;
    for (int32_t v : {p.n, p.big_n, p.k, p.bk_l, p.bk_bg_bit, p.ks_t,
                      p.ks_base_bit})
        fnv.Mix(static_cast<uint64_t>(v));
    fnv.Mix(std::bit_cast<uint64_t>(p.lwe_noise_stddev));
    fnv.Mix(std::bit_cast<uint64_t>(p.tlwe_noise_stddev));
    for (int32_t bit : secret.lwe_key.key)
        fnv.Mix(static_cast<uint64_t>(bit));
    for (const IntPolynomial& poly : secret.tlwe_key.key)
        for (int32_t c : poly.coefs) fnv.Mix(static_cast<uint64_t>(c));
    // 0 is reserved for "no identity"; remap the (2^-64) collision.
    return KeyId{fnv.h == 0 ? UINT64_C(1) : fnv.h};
}

LweSample LweLinearXor(const LweSample& a, bool a_linear, const LweSample& b,
                       bool b_linear) {
    return LinearCombine(a_linear ? 1 : 2, a, b_linear ? 1 : 2, b, kQuarter);
}

LweSample LweLinearXnor(const LweSample& a, bool a_linear, const LweSample& b,
                        bool b_linear) {
    return LinearCombine(a_linear ? 1 : 2, a, b_linear ? 1 : 2, b, -kQuarter);
}

LweSample LweLinearNot(const LweSample& a) {
    LweSample out = a;
    out.Negate();
    return out;
}

LweSample GateEvaluator::Constant(bool value) const {
    LweSample s(params().n);
    s.SetTrivial(value ? kEighth : -kEighth);
    return s;
}

LweSample GateEvaluator::Not(const LweSample& a) const {
    LweSample s = a;
    s.Negate();
    return s;
}

LweSample GateEvaluator::LinearBootstrap(int32_t coef_a, const LweSample& a,
                                         int32_t coef_b, const LweSample& b,
                                         Torus32 offset,
                                         BootstrapScratch* scratch) {
    auto t0 = Clock::now();
    LweSample combo = LinearCombine(coef_a, a, coef_b, b, offset);
    profile_.AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    LweSample rotated = BootstrapWithoutKeySwitch(kEighth, combo, *key_,
                                                  scratch);
    profile_.AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    LweSample out = key_->ksk().Apply(rotated);
    profile_.AddKeySwitchNanos(NanosSince(t2));
    profile_.AddBootstraps(1);
    return out;
}

LweSample GateEvaluator::And(const LweSample& a, const LweSample& b,
                             BootstrapScratch* scratch) {
    return LinearBootstrap(+1, a, +1, b, -kEighth, scratch);
}

LweSample GateEvaluator::Nand(const LweSample& a, const LweSample& b,
                              BootstrapScratch* scratch) {
    return LinearBootstrap(-1, a, -1, b, kEighth, scratch);
}

LweSample GateEvaluator::Or(const LweSample& a, const LweSample& b,
                            BootstrapScratch* scratch) {
    return LinearBootstrap(+1, a, +1, b, kEighth, scratch);
}

LweSample GateEvaluator::Nor(const LweSample& a, const LweSample& b,
                             BootstrapScratch* scratch) {
    return LinearBootstrap(-1, a, -1, b, -kEighth, scratch);
}

LweSample GateEvaluator::Xor(const LweSample& a, const LweSample& b,
                             BootstrapScratch* scratch) {
    return LinearBootstrap(+2, a, +2, b, kQuarter, scratch);
}

LweSample GateEvaluator::Xnor(const LweSample& a, const LweSample& b,
                              BootstrapScratch* scratch) {
    return LinearBootstrap(+2, a, +2, b, -kQuarter, scratch);
}

LweSample GateEvaluator::Xor(const LweSample& a, bool a_linear,
                             const LweSample& b, bool b_linear,
                             BootstrapScratch* scratch) {
    return LinearBootstrap(a_linear ? 1 : 2, a, b_linear ? 1 : 2, b, kQuarter,
                           scratch);
}

LweSample GateEvaluator::Xnor(const LweSample& a, bool a_linear,
                              const LweSample& b, bool b_linear,
                              BootstrapScratch* scratch) {
    return LinearBootstrap(a_linear ? 1 : 2, a, b_linear ? 1 : 2, b, -kQuarter,
                           scratch);
}

LweSample GateEvaluator::LinXor(const LweSample& a, bool a_linear,
                                const LweSample& b, bool b_linear) {
    auto t0 = Clock::now();
    LweSample out = LweLinearXor(a, a_linear, b, b_linear);
    profile_.AddLinearNanos(NanosSince(t0));
    return out;
}

LweSample GateEvaluator::LinXnor(const LweSample& a, bool a_linear,
                                 const LweSample& b, bool b_linear) {
    auto t0 = Clock::now();
    LweSample out = LweLinearXnor(a, a_linear, b, b_linear);
    profile_.AddLinearNanos(NanosSince(t0));
    return out;
}

LweSample GateEvaluator::LinNot(const LweSample& a) {
    auto t0 = Clock::now();
    LweSample out = LweLinearNot(a);
    profile_.AddLinearNanos(NanosSince(t0));
    return out;
}

LweSample GateEvaluator::AndNY(const LweSample& a, const LweSample& b,
                               BootstrapScratch* scratch) {
    return LinearBootstrap(-1, a, +1, b, -kEighth, scratch);
}

LweSample GateEvaluator::AndYN(const LweSample& a, const LweSample& b,
                               BootstrapScratch* scratch) {
    return LinearBootstrap(+1, a, -1, b, -kEighth, scratch);
}

LweSample GateEvaluator::OrNY(const LweSample& a, const LweSample& b,
                              BootstrapScratch* scratch) {
    return LinearBootstrap(-1, a, +1, b, kEighth, scratch);
}

LweSample GateEvaluator::OrYN(const LweSample& a, const LweSample& b,
                              BootstrapScratch* scratch) {
    return LinearBootstrap(+1, a, -1, b, kEighth, scratch);
}

namespace {

/** Reshapes an LWE sample in place; preserves the buffer when n matches. */
void EnsureN(LweSample& s, int32_t n) {
    if (s.N() != n) s = LweSample(n);
}

}  // namespace

void GateEvaluator::BatchedLinearBootstrap(const BatchGateSpec* specs,
                                           int32_t count,
                                           BatchScratch* scratch) {
    if (count <= 0) return;
    BatchScratch local;
    BatchScratch& s = scratch != nullptr ? *scratch : local;
    // Outputs never alias inputs in this flavor, so each output may be
    // reshaped before any input is read.
    s.view_specs.resize(count);
    for (int32_t i = 0; i < count; ++i) {
        const BatchGateSpec& g = specs[i];
        EnsureN(*g.out, params().n);
        s.view_specs[i] = BatchGateViewSpec{g.coef_a, ViewOf(*g.a), g.coef_b,
                                            ViewOf(*g.b), g.offset,
                                            ViewOf(*g.out)};
    }
    BatchedLutBootstrapInto(*this, s.view_specs.data(), count, s);
}

void GateEvaluator::BatchedLinearBootstrap(const BatchGateViewSpec* specs,
                                           int32_t count,
                                           BatchScratch* scratch) {
    BatchScratch local;
    BatchedLutBootstrapInto(*this, specs, count,
                            scratch != nullptr ? *scratch : local);
}

void GateEvaluator::LinearBootstrapInto(int32_t coef_a, LweCView a,
                                        int32_t coef_b, LweCView b,
                                        Torus32 offset, LweView out,
                                        BootstrapScratch* scratch) {
    BootstrapScratch local;
    BootstrapScratch& s = scratch != nullptr ? *scratch : local;

    auto t0 = Clock::now();
    EnsureN(s.combo, a.n);
    LweLinearCombineInto(coef_a, a, coef_b, b, offset, ViewOf(s.combo));
    profile_.AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    const LweSample& rotated =
        BootstrapWithoutKeySwitchInScratch(kEighth, s.combo, *key_, s);
    profile_.AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    key_->ksk().ApplyInto(rotated, out);
    profile_.AddKeySwitchNanos(NanosSince(t2));
    profile_.AddBootstraps(1);
}

void GateEvaluator::LinCombineInto(int32_t coef_a, LweCView a, int32_t coef_b,
                                   LweCView b, Torus32 offset, LweView out) {
    auto t0 = Clock::now();
    LweLinearCombineInto(coef_a, a, coef_b, b, offset, out);
    profile_.AddLinearNanos(NanosSince(t0));
}

void GateEvaluator::LinNotInto(LweCView a, LweView out) {
    auto t0 = Clock::now();
    LweNegateInto(a, out);
    profile_.AddLinearNanos(NanosSince(t0));
}

LweSample GateEvaluator::Mux(const LweSample& a, const LweSample& b,
                             const LweSample& c, BootstrapScratch* scratch) {
    auto t0 = Clock::now();
    LweSample and_ab(params().n);
    and_ab.SetTrivial(-kEighth);
    and_ab.AddTo(a);
    and_ab.AddTo(b);
    LweSample andny_ac(params().n);
    andny_ac.SetTrivial(-kEighth);
    andny_ac.SubTo(a);
    andny_ac.AddTo(c);
    profile_.AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    LweSample u = BootstrapWithoutKeySwitch(kEighth, and_ab, *key_, scratch);
    LweSample v = BootstrapWithoutKeySwitch(kEighth, andny_ac, *key_,
                                            scratch);
    u.AddTo(v);
    u.AddConstant(kEighth);
    profile_.AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    LweSample out = key_->ksk().Apply(u);
    profile_.AddKeySwitchNanos(NanosSince(t2));
    profile_.AddBootstraps(2);
    return out;
}

}  // namespace pytfhe::tfhe
