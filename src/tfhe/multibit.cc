#include "tfhe/multibit.h"

#include <cassert>
#include <chrono>

namespace pytfhe::tfhe {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Cache key of a test vector: the triple that fully determines it. */
uint64_t TvKey(uint32_t table, uint8_t out_bits, int32_t p) {
    return static_cast<uint64_t>(table) |
           (static_cast<uint64_t>(out_bits) << 32) |
           (static_cast<uint64_t>(static_cast<uint32_t>(p)) << 40);
}

/** Largest number of distinct test vectors one scratch keeps around. */
constexpr size_t kMaxCachedTestVectors = 128;

const TorusPolynomial& CachedTestVector(const Params& params, uint32_t table,
                                        uint8_t out_bits, int32_t p,
                                        BootstrapScratch& s) {
    const uint64_t key = TvKey(table, out_bits, p);
    for (const auto& entry : s.lut_tv_cache) {
        if (entry.key == key && entry.tv.Size() == params.big_n)
            return entry.tv;
    }
    if (s.lut_tv_cache.size() >= kMaxCachedTestVectors)
        s.lut_tv_cache.clear();
    s.lut_tv_cache.push_back(
        {key, MakeDigitLutTestVector(params, table, out_bits, p)});
    return s.lut_tv_cache.back().tv;
}

}  // namespace

Torus32 EncodeDigit(int32_t v, int32_t p) {
    return ModSwitchToTorus32(2 * v + 1, 4 * p);
}

int32_t DecodeDigit(Torus32 phase, int32_t p) {
    // phi(v) * 2p = v + 1/2, so the floor recovers v exactly while the
    // phase error stays under the 1/(4p) half-slot.
    const uint64_t scaled =
        static_cast<uint64_t>(phase) * static_cast<uint64_t>(2 * p);
    return static_cast<int32_t>(scaled >> 32) % p;
}

LweSample LweEncryptDigit(int32_t v, int32_t p, double noise_stddev,
                          const LweKey& key, Rng& rng) {
    assert(v >= 0 && v < p);
    return LweEncrypt(EncodeDigit(v, p), noise_stddev, key, rng);
}

int32_t LweDecryptDigit(const LweSample& sample, const LweKey& key,
                        int32_t p) {
    return DecodeDigit(LwePhase(sample, key), p);
}

TorusPolynomial MakeDigitLutTestVector(const Params& params, uint32_t table,
                                       uint8_t out_bits, int32_t p) {
    const int32_t n = params.big_n;
    assert(2 * p <= n && "LUT slots need at least two coefficients each");
    const uint32_t mask = (UINT32_C(1) << out_bits) - 1;
    TorusPolynomial tv(n);
    for (int32_t j = 0; j < n; ++j) {
        // Slot j covers phases around j / 2N; under the phi(v) centering
        // its packed index is floor(j * p / N). Indices past the table's
        // populated entries read zero bits, matching LutSpec::Entry.
        const uint32_t v =
            static_cast<uint32_t>((static_cast<int64_t>(j) * p) / n);
        const uint32_t entry = (table >> (v * out_bits)) & mask;
        tv.coefs[j] = EncodeDigit(static_cast<int32_t>(entry), p);
    }
    return tv;
}

void LutBootstrapInto(GateEvaluator& eval, const LutKernel& lut,
                      std::span<const LweCView> ops, LweView out,
                      BootstrapScratch* scratch) {
    assert(!ops.empty() && ops.size() == lut.weights.size());
    BootstrapScratch local;
    BootstrapScratch& s = scratch != nullptr ? *scratch : local;
    const BootstrappingKey& key = eval.key();
    const int32_t n = ops[0].n;

    // Linear prelude: sum w_i * c_i + bias. Each operand carries its own
    // +1/(4p) half-slot offset; bias = (1 - 2*lo - sum w_i) / (4p) cancels
    // them and rebases the packed sum m to the table index m - lo, landing
    // the phase exactly at phi(m - lo).
    auto t0 = Clock::now();
    int32_t sum_w = 0;
    for (const int8_t w : lut.weights) sum_w += w;
    const Torus32 bias =
        ModSwitchToTorus32(1 - 2 * lut.lo - sum_w, 4 * lut.p);
    if (s.combo.N() != n) s.combo = LweSample(n);
    s.combo.SetTrivial(bias);
    for (size_t i = 0; i < ops.size(); ++i) {
        const LweCView& op = ops[i];
        assert(op.n == n);
        const int64_t w = lut.weights[i];
        for (int32_t j = 0; j < n; ++j) {
            s.combo.a[j] += static_cast<Torus32>(
                w * static_cast<int64_t>(static_cast<int32_t>(op.a[j])));
        }
        s.combo.b += static_cast<Torus32>(
            w * static_cast<int64_t>(static_cast<int32_t>(*op.b)));
    }
    eval.profile().AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    const TorusPolynomial& tv =
        CachedTestVector(key.params(), lut.table, lut.out_bits, lut.p, s);
    const LweSample& rotated =
        FunctionalBootstrapInScratch(tv, s.combo, key, s);
    eval.profile().AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    key.ksk().ApplyInto(rotated, out);
    eval.profile().AddKeySwitchNanos(NanosSince(t2));
    eval.profile().AddBootstraps(1);
}

}  // namespace pytfhe::tfhe
