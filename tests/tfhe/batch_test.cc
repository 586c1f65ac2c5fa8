/**
 * @file
 * Bit-exactness of the batched bootstrapping pipeline against the scalar
 * path: the batched external product, batched blind rotation / gate
 * bootstrap, and the mixed-kind evaluator batch API. Every comparison is
 * EXPECT_EQ on raw Torus32 words — each lane runs the scalar kernel calls
 * in the scalar order, so results are identical, not "close".
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "tfhe/bootstrap_batch.h"
#include "tfhe/gates.h"
#include "tfhe/params.h"

namespace pytfhe::tfhe {
namespace {

bool SameLwe(const LweSample& x, const LweSample& y) {
    return x.a == y.a && x.b == y.b;
}

bool SameTlwe(const TLweSample& x, const TLweSample& y) {
    if (x.K() != y.K() || x.BigN() != y.BigN()) return false;
    for (size_t i = 0; i < x.a.size(); ++i)
        if (x.a[i].coefs != y.a[i].coefs) return false;
    return true;
}

// --------------------------------------------------------- external product

class BatchKernelTest : public ::testing::Test {
  protected:
    BatchKernelTest()
        : rng_(77), params_(ToyParams()),
          key_(params_.big_n, params_.k, rng_),
          fft_(GetFftPlan(params_.big_n)) {}

    TGswSampleFft EncryptBitFft(int32_t bit) {
        return TGswToFft(
            TGswEncrypt(bit, params_.bk_l, params_.bk_bg_bit,
                        params_.tlwe_noise_stddev, key_, rng_),
            fft_);
    }

    TLweSample RandomTlwe() {
        TLweSample s(params_.big_n, params_.k);
        for (auto& poly : s.a)
            for (auto& c : poly.coefs) c = rng_.UniformTorus32();
        return s;
    }

    Rng rng_;
    Params params_;
    TLweKey key_;
    const NegacyclicFft& fft_;
};

TEST_F(BatchKernelTest, ExternalProductBatchMatchesScalarPerLane) {
    const TGswSampleFft c = EncryptBitFft(1);
    BatchExternalProductScratch scratch;
    for (int32_t b = 1; b <= 6; ++b) {
        std::vector<TLweSample> samples;
        for (int32_t l = 0; l < b; ++l) samples.push_back(RandomTlwe());

        std::vector<TLweSample> batch_out;
        TGswExternalProductBatch(batch_out, c, samples, b, fft_, scratch);

        for (int32_t l = 0; l < b; ++l) {
            TLweSample want;
            TGswExternalProduct(want, c, samples[l], fft_);
            EXPECT_TRUE(SameTlwe(want, batch_out[l]))
                << "b=" << b << " lane=" << l;
        }
    }
}

// ----------------------------------------------------------- full bootstrap

class BatchBootstrapTest : public ::testing::Test {
  protected:
    BatchBootstrapTest() : rng_(99), secret_(ToyParams(), rng_) {}

    LweSample EncryptBit(bool bit) { return secret_.Encrypt(bit, rng_); }

    Rng rng_;
    SecretKeySet secret_;
};

TEST_F(BatchBootstrapTest, BatchedGateBootstrapMatchesScalarAllSizes) {
    GateEvaluator ev(secret_, rng_);
    // B = 1..8 covers the single-lane degenerate case, non-multiples of the
    // SIMD group width (ragged tails inside the kernels), and a full batch.
    for (int32_t b = 1; b <= 8; ++b) {
        std::vector<LweSample> inputs;
        for (int32_t l = 0; l < b; ++l)
            inputs.push_back(EncryptBit((l + b) % 2 == 0));

        std::vector<const LweSample*> in(b);
        std::vector<LweSample> outs(b);
        std::vector<LweSample*> out(b);
        for (int32_t l = 0; l < b; ++l) {
            in[l] = &inputs[l];
            out[l] = &outs[l];
        }
        BatchScratch scratch;
        BatchedGateBootstrap(kGateMu, in.data(), out.data(), b, ev.key(),
                             &scratch);

        for (int32_t l = 0; l < b; ++l) {
            const LweSample want = Bootstrap(kGateMu, inputs[l], ev.key());
            EXPECT_TRUE(SameLwe(want, outs[l])) << "b=" << b << " lane=" << l;
        }
    }
}

TEST_F(BatchBootstrapTest, ZeroMaskLaneInsideMixedBatchMatchesScalar) {
    GateEvaluator ev(secret_, rng_);
    // A trivial sample has every mask coefficient zero, so every one of its
    // mod-switched bara entries is zero: inside a mixed batch that lane must
    // ride through columns other lanes rotate, exercising the signed-zero
    // pass-through the scalar path handles with `continue`.
    LweSample trivial(secret_.params.n);
    trivial.SetTrivial(kGateMu);
    LweSample noisy = EncryptBit(true);

    std::vector<const LweSample*> in = {&trivial, &noisy, &trivial};
    std::vector<LweSample> outs(3);
    std::vector<LweSample*> out = {&outs[0], &outs[1], &outs[2]};
    BatchedGateBootstrap(kGateMu, in.data(), out.data(), 3, ev.key());

    for (int32_t l = 0; l < 3; ++l) {
        const LweSample want = Bootstrap(kGateMu, *in[l], ev.key());
        EXPECT_TRUE(SameLwe(want, outs[l])) << "lane=" << l;
    }
}

TEST_F(BatchBootstrapTest, AllGateKindsMixedBatchMatchesScalar) {
    GateEvaluator ev(secret_, rng_);

    const LweSample a = EncryptBit(true);
    const LweSample b = EncryptBit(false);

    // The full two-input bootstrapped gate table, as one mixed-kind batch:
    // every kind is just a different linear prelude into the same +-1/8
    // bootstrap.
    struct Case {
        const char* name;
        int32_t ca, cb;
        Torus32 offset;
        LweSample (GateEvaluator::*scalar)(const LweSample&,
                                           const LweSample&,
                                           BootstrapScratch*);
    };
    const Case cases[] = {
        {"And", +1, +1, static_cast<Torus32>(-kGateMu), &GateEvaluator::And},
        {"Nand", -1, -1, kGateMu, &GateEvaluator::Nand},
        {"Or", +1, +1, kGateMu, &GateEvaluator::Or},
        {"Nor", -1, -1, static_cast<Torus32>(-kGateMu), &GateEvaluator::Nor},
        {"Xor", +2, +2, kGateQuarter, nullptr},
        {"Xnor", +2, +2, static_cast<Torus32>(-kGateQuarter), nullptr},
        {"AndNY", -1, +1, static_cast<Torus32>(-kGateMu),
         &GateEvaluator::AndNY},
        {"AndYN", +1, -1, static_cast<Torus32>(-kGateMu),
         &GateEvaluator::AndYN},
        {"OrNY", -1, +1, kGateMu, &GateEvaluator::OrNY},
        {"OrYN", +1, -1, kGateMu, &GateEvaluator::OrYN},
    };
    const int32_t count = static_cast<int32_t>(std::size(cases));

    std::vector<LweSample> outs(count);
    std::vector<BatchGateSpec> specs(count);
    for (int32_t i = 0; i < count; ++i)
        specs[i] = BatchGateSpec{cases[i].ca, &a, cases[i].cb, &b,
                                 cases[i].offset, &outs[i]};
    BatchScratch scratch;
    ev.BatchedLinearBootstrap(specs.data(), count, &scratch);

    for (int32_t i = 0; i < count; ++i) {
        LweSample want;
        if (cases[i].scalar != nullptr) {
            want = (ev.*cases[i].scalar)(a, b, nullptr);
        } else if (cases[i].offset == kGateQuarter) {
            want = ev.Xor(a, b);
        } else {
            want = ev.Xnor(a, b);
        }
        EXPECT_TRUE(SameLwe(want, outs[i])) << cases[i].name;
        EXPECT_EQ(secret_.Decrypt(outs[i]), secret_.Decrypt(want))
            << cases[i].name;
    }
}

TEST_F(BatchBootstrapTest, BatchProfileCountsEveryGate) {
    GateEvaluator ev(secret_, rng_);
    const LweSample a = EncryptBit(true);
    const LweSample b = EncryptBit(true);
    std::vector<LweSample> outs(4);
    std::vector<BatchGateSpec> specs;
    for (int32_t i = 0; i < 4; ++i)
        specs.push_back(BatchGateSpec{+1, &a, +1, &b,
                                      static_cast<Torus32>(-kGateMu),
                                      &outs[i]});
    ev.BatchedLinearBootstrap(specs.data(), 4);
    EXPECT_EQ(ev.profile().bootstrap_count(), 4u);
    EXPECT_GT(ev.profile().blind_rotate_seconds(), 0.0);
    for (const LweSample& o : outs) EXPECT_TRUE(secret_.Decrypt(o));
}

TEST_F(BatchBootstrapTest, RaggedTailReusesScratchAcrossBatchSizes) {
    GateEvaluator ev(secret_, rng_);
    const LweSample a = EncryptBit(true);
    const LweSample b = EncryptBit(false);
    BatchScratch scratch;
    // Full batch then a smaller tail through the SAME scratch: the shrunken
    // call must not read stale wide-batch state.
    for (int32_t count : {4, 4, 3, 1, 4}) {
        std::vector<LweSample> outs(count);
        std::vector<BatchGateSpec> specs;
        for (int32_t i = 0; i < count; ++i)
            specs.push_back(BatchGateSpec{+1, &a, +1, &b, kGateMu, &outs[i]});
        ev.BatchedLinearBootstrap(specs.data(), count, &scratch);
        const LweSample want = ev.Or(a, b);
        for (int32_t i = 0; i < count; ++i)
            EXPECT_TRUE(SameLwe(want, outs[i])) << "count=" << count;
    }
}

// One worker per thread with its own BatchScratch against one shared key:
// the concurrency label pulls this under -DPYTFHE_SANITIZE=thread.
TEST_F(BatchBootstrapTest, ConcurrentBatchesWithPrivateScratchAreExact) {
    GateEvaluator ev(secret_, rng_);
    const LweSample a = EncryptBit(true);
    const LweSample b = EncryptBit(true);
    const LweSample want = ev.And(a, b);

    constexpr int32_t kThreads = 4;
    std::vector<int32_t> ok(kThreads, 0);
    std::vector<std::thread> threads;
    for (int32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            BatchScratch scratch;
            std::vector<LweSample> outs(3);
            std::vector<BatchGateSpec> specs;
            for (int32_t i = 0; i < 3; ++i)
                specs.push_back(BatchGateSpec{
                    +1, &a, +1, &b, static_cast<Torus32>(-kGateMu),
                    &outs[i]});
            ev.BatchedLinearBootstrap(specs.data(), 3, &scratch);
            int32_t good = 0;
            for (const LweSample& o : outs) good += SameLwe(want, o) ? 1 : 0;
            ok[t] = good;
        });
    }
    for (auto& th : threads) th.join();
    for (int32_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 3) << t;
}

}  // namespace
}  // namespace pytfhe::tfhe
