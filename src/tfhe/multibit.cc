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

const TorusPolynomial* FindTestVector(const std::vector<LutTvEntry>& cache,
                                      uint64_t key, int32_t big_n) {
    for (const auto& entry : cache)
        if (entry.key == key && entry.tv.Size() == big_n) return &entry.tv;
    return nullptr;
}

/**
 * Points tvs[i] at the cached test vector of lut_of(i) for every lane
 * whose lut_of(i) is non-null (other lanes are left untouched). Every
 * missing table is inserted before the first pointer is taken, and the
 * cache is cleared (once it would outgrow its cap) only before those
 * inserts, so no push_back or clear can move an entry out from under a
 * lane that already holds its pointer. The pointers stay valid until the
 * cache is next used.
 */
template <typename LutOf>
void CachedTestVectors(const Params& params, int32_t count, LutOf lut_of,
                       std::vector<LutTvEntry>& cache,
                       const TorusPolynomial** tvs) {
    const auto key_of = [](const LutKernel& l) {
        return TvKey(l.table, l.out_bits, l.p);
    };
    size_t misses = 0;
    for (int32_t i = 0; i < count; ++i) {
        const LutKernel* l = lut_of(i);
        if (l != nullptr &&
            FindTestVector(cache, key_of(*l), params.big_n) == nullptr)
            ++misses;
    }
    if (misses > 0 && cache.size() + misses > kMaxCachedTestVectors)
        cache.clear();
    for (int32_t i = 0; i < count && misses > 0; ++i) {
        const LutKernel* l = lut_of(i);
        if (l == nullptr ||
            FindTestVector(cache, key_of(*l), params.big_n) != nullptr)
            continue;
        cache.push_back({key_of(*l), MakeDigitLutTestVector(
                                         params, l->table, l->out_bits,
                                         l->p)});
    }
    for (int32_t i = 0; i < count; ++i) {
        const LutKernel* l = lut_of(i);
        if (l != nullptr)
            tvs[i] = FindTestVector(cache, key_of(*l), params.big_n);
    }
}

/**
 * The LUT linear prelude into `combo` (resized to the operand dimension):
 * sum w_i * c_i + bias. Each operand carries its own +1/(4p) half-slot
 * offset; bias = (1 - 2*lo - sum w_i) / (4p) cancels them and rebases the
 * packed sum m to the table index m - lo, landing the phase exactly at
 * phi(m - lo).
 */
void LutPreludeInto(const LutKernel& lut, const LweCView* ops,
                    LweSample& combo) {
    assert(!lut.weights.empty());
    const int32_t n = ops[0].n;
    int32_t sum_w = 0;
    for (const int8_t w : lut.weights) sum_w += w;
    const Torus32 bias =
        ModSwitchToTorus32(1 - 2 * lut.lo - sum_w, 4 * lut.p);
    if (combo.N() != n) combo = LweSample(n);
    combo.SetTrivial(bias);
    for (size_t i = 0; i < lut.weights.size(); ++i) {
        const LweCView& op = ops[i];
        assert(op.n == n);
        const int64_t w = lut.weights[i];
        for (int32_t j = 0; j < n; ++j) {
            combo.a[j] += static_cast<Torus32>(
                w * static_cast<int64_t>(static_cast<int32_t>(op.a[j])));
        }
        combo.b += static_cast<Torus32>(
            w * static_cast<int64_t>(static_cast<int32_t>(*op.b)));
    }
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

    auto t0 = Clock::now();
    LutPreludeInto(lut, ops.data(), s.combo);
    eval.profile().AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    const TorusPolynomial* tv = nullptr;
    CachedTestVectors(
        key.params(), 1, [&](int32_t) { return &lut; }, s.lut_tv_cache,
        &tv);
    const LweSample& rotated =
        FunctionalBootstrapInScratch(*tv, s.combo, key, s);
    eval.profile().AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    key.ksk().ApplyInto(rotated, out);
    eval.profile().AddKeySwitchNanos(NanosSince(t2));
    eval.profile().AddBootstraps(1);
}

void BatchedLutBootstrapInto(GateEvaluator& eval,
                             const BatchGateViewSpec* lanes, int32_t count,
                             BatchScratch& s) {
    if (count <= 0) return;
    const BootstrappingKey& key = eval.key();
    const Params& params = key.params();

    // Every lane's operands are consumed here, before any lane output is
    // written below — the alias-safety contract of BatchGateViewSpec.
    auto t0 = Clock::now();
    if (static_cast<int32_t>(s.combo.size()) < count) s.combo.resize(count);
    if (static_cast<int32_t>(s.rotated_lwe.size()) < count)
        s.rotated_lwe.resize(count);
    s.in_ptrs.resize(count);
    s.out_ptrs.resize(count);
    s.tvs.resize(count);
    for (int32_t i = 0; i < count; ++i) {
        const BatchGateViewSpec& g = lanes[i];
        LweSample& combo = s.combo[i];
        if (g.lut != nullptr) {
            LutPreludeInto(*g.lut, g.ops, combo);
        } else {
            if (combo.N() != g.a.n) combo = LweSample(g.a.n);
            LweLinearCombineInto(g.coef_a, g.a, g.coef_b, g.b, g.offset,
                                 ViewOf(combo));
            s.tvs[i] = &s.testvect;
        }
        s.in_ptrs[i] = &combo;
        s.out_ptrs[i] = &s.rotated_lwe[i];
    }
    eval.profile().AddLinearNanos(NanosSince(t0));

    auto t1 = Clock::now();
    if (s.testvect.Size() != params.big_n)
        s.testvect = TorusPolynomial(params.big_n);
    for (auto& c : s.testvect.coefs) c = kGateMu;
    CachedTestVectors(
        params, count, [&](int32_t i) { return lanes[i].lut; },
        s.lut_tv_cache, s.tvs.data());
    BatchedRotateExtract(s.tvs.data(), s.in_ptrs.data(), s.out_ptrs.data(),
                         count, key, s);
    eval.profile().AddBlindRotateNanos(NanosSince(t1));

    auto t2 = Clock::now();
    s.out_views.resize(count);
    for (int32_t i = 0; i < count; ++i) s.out_views[i] = lanes[i].out;
    key.ksk().ApplyBatchInto(s.rotated_lwe.data(), s.out_views.data(),
                             count);
    eval.profile().AddKeySwitchNanos(NanosSince(t2));
    eval.profile().AddBootstraps(static_cast<uint64_t>(count));
}

}  // namespace pytfhe::tfhe
