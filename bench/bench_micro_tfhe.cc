/**
 * @file
 * Microbenchmarks of the TFHE substrate primitives, hand-rolled so the
 * binary emits BENCH_micro_tfhe.json with per-op nanoseconds (forward FFT,
 * inverse FFT, external product, blind rotate, full gate bootstrap, key
 * switch). The JSON keeps the perf trajectory machine-readable across PRs;
 * numbers are taken at the paper's 128-bit parameter set.
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "tfhe/bootstrap.h"
#include "tfhe/bootstrap_batch.h"
#include "tfhe/fft.h"
#include "tfhe/fft_batch_kernels.h"
#include "tfhe/gates.h"

using namespace pytfhe;

namespace {

using Clock = std::chrono::steady_clock;

volatile uint32_t g_sink = 0;  // Defeats whole-benchmark dead-code removal.

/**
 * Runs `fn` in growing batches until the batch takes at least min_seconds
 * of wall clock; returns nanoseconds per call from the final batch.
 */
template <typename F>
double MeasureNs(F&& fn, double min_seconds = 0.2) {
    fn();  // Warm-up: sizes scratch buffers, faults pages.
    int64_t iters = 1;
    while (true) {
        const auto t0 = Clock::now();
        for (int64_t i = 0; i < iters; ++i) fn();
        const double sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (sec >= min_seconds || iters >= (INT64_C(1) << 30))
            return sec * 1e9 / static_cast<double>(iters);
        const double target = min_seconds * 1.2;
        const int64_t next =
            sec > 0 ? static_cast<int64_t>(iters * target / sec) + 1
                    : iters * 4;
        iters = std::max(next, iters * 2);
    }
}

void Report(std::vector<std::pair<std::string, double>>* results,
            const std::string& name, double ns) {
    std::printf("%-18s %12.0f ns  (%.3f ms)\n", name.c_str(), ns, ns * 1e-6);
    std::fflush(stdout);
    results->emplace_back(name, ns);
}

}  // namespace

int main() {
    tfhe::Rng rng(1);
    const tfhe::Params params = tfhe::Tfhe128Params();
    const tfhe::NegacyclicFft& fft = tfhe::GetFftPlan(params.big_n);
    std::vector<std::pair<std::string, double>> results;

    std::printf("# bench_micro_tfhe: params=%s (n=%d, N=%d, k=%d, l=%d)\n",
                params.name.c_str(), params.n, params.big_n, params.k,
                params.bk_l);

    // ---------------------------------------------------------- transforms
    tfhe::TorusPolynomial poly(params.big_n), inv_out(params.big_n);
    for (auto& c : poly.coefs) c = rng.UniformTorus32();
    tfhe::FreqPolynomial freq;
    tfhe::FftScratch fft_scratch;
    fft.Forward(freq, poly);

    Report(&results, "forward_fft", MeasureNs([&] {
               fft.Forward(freq, poly);
               g_sink += static_cast<uint32_t>(freq.Re()[0]);
           }));
    Report(&results, "inverse_fft", MeasureNs([&] {
               fft.Inverse(inv_out, freq, fft_scratch);
               g_sink += inv_out.coefs[0];
           }));

    // ----------------------------------------------------- external product
    tfhe::TLweKey tlwe_key(params.big_n, params.k, rng);
    tfhe::TGswSampleFft bit = tfhe::TGswToFft(
        tfhe::TGswEncrypt(1, params.bk_l, params.bk_bg_bit,
                          params.tlwe_noise_stddev, tlwe_key, rng),
        fft);
    tfhe::TLweSample tlwe_in = tfhe::TLweEncryptConst(
        UINT32_C(1) << 29, params.tlwe_noise_stddev, tlwe_key, rng);
    tfhe::TLweSample ep_out;
    tfhe::ExternalProductScratch ep_scratch;

    Report(&results, "external_product", MeasureNs([&] {
               tfhe::TGswExternalProduct(ep_out, bit, tlwe_in, fft,
                                         &ep_scratch);
               g_sink += ep_out.Body().coefs[0];
           }));

    // ------------------------------------------- bootstrapping (full chain)
    std::printf("# generating bootstrapping key...\n");
    std::fflush(stdout);
    tfhe::LweKey lwe_key(params.n, rng);
    tfhe::BootstrappingKey bk(params, lwe_key, tlwe_key, rng);
    tfhe::LweSample lwe_in = tfhe::LweEncryptBit(
        true, params.lwe_noise_stddev, lwe_key, rng);
    tfhe::BootstrapScratch bs_scratch;
    constexpr tfhe::Torus32 kEighth = UINT32_C(1) << 29;

    std::vector<int32_t> bara(params.n);
    for (auto& v : bara)
        v = static_cast<int32_t>(rng.UniformBelow(2 * params.big_n));
    tfhe::TorusPolynomial testvect(params.big_n);
    for (auto& c : testvect.coefs) c = kEighth;
    tfhe::TLweSample acc(params.big_n, params.k);

    Report(&results, "blind_rotate", MeasureNs([&] {
               acc.SetTrivial(testvect);
               tfhe::BlindRotate(acc, bara, bk, &bs_scratch);
               g_sink += acc.Body().coefs[0];
           }));

    tfhe::LweSample extracted =
        tfhe::BootstrapWithoutKeySwitch(kEighth, lwe_in, bk, &bs_scratch);
    Report(&results, "key_switch", MeasureNs([&] {
               g_sink += bk.ksk().Apply(extracted).b;
           }));

    // Measured over the same 1.0s window as the batched sweep below: the
    // scalar number is the denominator of every speedup_b* metric, so a
    // noisy fast/slow window here would skew the whole committed sweep.
    const double scalar_gate_ns = MeasureNs(
        [&] { g_sink += tfhe::Bootstrap(kEighth, lwe_in, bk, &bs_scratch).b; },
        1.0);
    Report(&results, "gate_bootstrap", scalar_gate_ns);

    // ------------------------------------------- batched bootstrap sweep
    // Per-gate cost of the batched bootstrap at batch sizes 1/2/4/8 (each
    // lane runs the scalar FFT kernel; lanes share the key-row reads), plus
    // the throughput speedup vs the scalar gate bootstrap. The `_ns`
    // metrics are gated lower-is-better and the `speedup_*` metrics
    // higher-is-better by tools/bench_check.
    //
    // The container this baseline is committed from drifts ~10% in
    // single-core speed over minutes, so a speedup computed from scalar
    // and batched windows measured far apart is dominated by that drift.
    // Each batch size instead measures scalar/batched window *pairs*
    // back-to-back and reports the median of the per-pair ratios — drift
    // slow compared to one pair cancels out of the ratio.
    std::vector<std::pair<std::string, double>> batched;
    std::printf("# batched gate bootstrap sweep (simd=%d)\n",
                tfhe::batch_detail::SimdAvailable() ? 1 : 0);
    std::fflush(stdout);
    tfhe::BatchScratch batch_scratch;
    for (const int32_t b : {1, 2, 4, 8}) {
        std::vector<tfhe::LweSample> ins(b, lwe_in), outs(b);
        std::vector<const tfhe::LweSample*> in_ptrs(b);
        std::vector<tfhe::LweSample*> out_ptrs(b);
        for (int32_t i = 0; i < b; ++i) {
            in_ptrs[i] = &ins[i];
            out_ptrs[i] = &outs[i];
        }
        constexpr int kPairs = 3;
        std::vector<double> ratios, batch_ns;
        for (int p = 0; p < kPairs; ++p) {
            const double scalar_ns = MeasureNs(
                [&] {
                    g_sink +=
                        tfhe::Bootstrap(kEighth, lwe_in, bk, &bs_scratch).b;
                },
                0.4);
            const double per_gate_ns =
                MeasureNs(
                    [&] {
                        tfhe::BatchedGateBootstrap(kEighth, in_ptrs.data(),
                                                   out_ptrs.data(), b, bk,
                                                   &batch_scratch);
                        g_sink += outs[0].b;
                    },
                    0.4) /
                static_cast<double>(b);
            ratios.push_back(scalar_ns / per_gate_ns);
            batch_ns.push_back(per_gate_ns);
        }
        std::sort(ratios.begin(), ratios.end());
        std::sort(batch_ns.begin(), batch_ns.end());
        const double speedup = ratios[kPairs / 2];
        char name[64];
        std::snprintf(name, sizeof(name), "gate_bootstrap_b%d_ns", b);
        Report(&batched, name, batch_ns[kPairs / 2]);
        std::snprintf(name, sizeof(name), "speedup_b%d", b);
        std::printf("%-18s %12.2fx\n", name, speedup);
        batched.emplace_back(name, speedup);
    }
    batched.emplace_back("simd",
                         tfhe::batch_detail::SimdAvailable() ? 1.0 : 0.0);

    // ------------------------------------------------------------- emit JSON
    FILE* out = std::fopen("BENCH_micro_tfhe.json", "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open BENCH_micro_tfhe.json\n");
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"micro_tfhe\",\n");
    std::fprintf(out, "  \"params\": \"%s\",\n", params.name.c_str());
    std::fprintf(out, "  \"ops_ns\": {\n");
    for (size_t i = 0; i < results.size(); ++i)
        std::fprintf(out, "    \"%s\": %.1f%s\n", results[i].first.c_str(),
                     results[i].second, i + 1 < results.size() ? "," : "");
    std::fprintf(out, "  },\n  \"batched\": {\n");
    for (size_t i = 0; i < batched.size(); ++i)
        std::fprintf(out, "    \"%s\": %.3f%s\n", batched[i].first.c_str(),
                     batched[i].second, i + 1 < batched.size() ? "," : "");
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("# wrote BENCH_micro_tfhe.json\n");
    return 0;
}
