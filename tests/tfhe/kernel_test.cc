/**
 * @file
 * Kernel-level guarantees of the folded FFT, external product and batched
 * bootstraps: steady-state allocation freedom (counting global
 * allocator), scratch buffer address stability, and concurrent scratch
 * independence.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "tfhe/bootstrap.h"
#include "tfhe/gates.h"
#include "tfhe/multibit.h"
#include "tfhe/params.h"
#include "tfhe/tgsw.h"

// ------------------------------------------------------- counting allocator
//
// Every global allocation in the process bumps this counter. Tests snapshot
// it around hot loops; a warmed-up kernel must not move it.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace pytfhe::tfhe {
namespace {

uint64_t AllocCount() {
    return g_alloc_count.load(std::memory_order_relaxed);
}

class KernelTest : public ::testing::Test {
  protected:
    KernelTest()
        : rng_(71), params_(ToyParams()),
          key_(params_.big_n, params_.k, rng_),
          fft_(GetFftPlan(params_.big_n)) {}

    TGswSampleFft EncryptBitFft(int32_t bit) {
        return TGswToFft(
            TGswEncrypt(bit, params_.bk_l, params_.bk_bg_bit,
                        params_.tlwe_noise_stddev, key_, rng_),
            fft_);
    }

    Rng rng_;
    Params params_;
    TLweKey key_;
    const NegacyclicFft& fft_;
};

TEST_F(KernelTest, ForwardAndInverseAreAllocationFreeInSteadyState) {
    const int32_t n = params_.big_n;
    TorusPolynomial p(n), out(n);
    for (auto& c : p.coefs) c = rng_.UniformTorus32();
    FreqPolynomial f;
    fft_.Forward(f, p);  // Warm-up sizes the output buffer.
    fft_.InverseInPlace(out, f);

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 100; ++i) {
        fft_.Forward(f, p);
        fft_.InverseInPlace(out, f);
    }
    EXPECT_EQ(AllocCount(), before);
}

TEST_F(KernelTest, MultiplyWithScratchIsAllocationFreeInSteadyState) {
    const int32_t n = params_.big_n;
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (auto& c : a.coefs)
        c = static_cast<int32_t>(rng_.UniformBelow(256)) - 128;
    for (auto& c : b.coefs) c = rng_.UniformTorus32();
    FftScratch scratch;
    fft_.Multiply(r, a, b, scratch);  // Warm-up.

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 100; ++i) fft_.Multiply(r, a, b, scratch);
    EXPECT_EQ(AllocCount(), before);
}

TEST_F(KernelTest, ExternalProductWithScratchIsAllocationFreeInSteadyState) {
    TGswSampleFft one = EncryptBitFft(1);
    TLweSample s(params_.big_n, params_.k);
    for (auto& poly : s.a)
        for (auto& c : poly.coefs) c = rng_.UniformTorus32();
    TLweSample result;
    ExternalProductScratch scratch;
    TGswExternalProduct(result, one, s, fft_, &scratch);  // Warm-up.

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 50; ++i)
        TGswExternalProduct(result, one, s, fft_, &scratch);
    EXPECT_EQ(AllocCount(), before);
}

TEST_F(KernelTest, ScratchBuffersAreAddressStableAcrossCalls) {
    TGswSampleFft one = EncryptBitFft(1);
    TLweSample s(params_.big_n, params_.k);
    for (auto& poly : s.a)
        for (auto& c : poly.coefs) c = rng_.UniformTorus32();
    TLweSample result;
    ExternalProductScratch scratch;
    TGswExternalProduct(result, one, s, fft_, &scratch);

    const double* dec0 = scratch.dec[0].Re();
    const double* acc0 = scratch.acc[0].Re();
    for (int32_t i = 0; i < 10; ++i)
        TGswExternalProduct(result, one, s, fft_, &scratch);
    EXPECT_EQ(scratch.dec[0].Re(), dec0);
    EXPECT_EQ(scratch.acc[0].Re(), acc0);
}

TEST_F(KernelTest, BlindRotateWithScratchIsAllocationFreeInSteadyState) {
    // Miniature bootstrapping key over toy parameters.
    LweKey lwe_key(params_.n, rng_);
    BootstrappingKey bk(params_, lwe_key, key_, rng_);

    std::vector<int32_t> bara(params_.n);
    for (auto& v : bara)
        v = static_cast<int32_t>(rng_.UniformBelow(2 * params_.big_n));
    TorusPolynomial tv(params_.big_n);
    for (auto& c : tv.coefs) c = rng_.UniformTorus32();

    TLweSample acc(params_.big_n, params_.k);
    BootstrapScratch scratch;
    acc.SetTrivial(tv);
    BlindRotate(acc, bara, bk, &scratch);  // Warm-up.

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 3; ++i) {
        acc.SetTrivial(tv);
        BlindRotate(acc, bara, bk, &scratch);
    }
    EXPECT_EQ(AllocCount(), before);
}

/**
 * The view-flavored batched gate bootstrap over a warm BatchScratch: the
 * preludes, rotation, extraction and key switch all reuse scratch
 * buffers, so a batch of 4 allocates nothing.
 */
TEST_F(KernelTest, BatchedLinearBootstrapViewsAreAllocationFreeWhenWarm) {
    const SecretKeySet secret(params_, rng_);
    GateEvaluator gates(secret, rng_);
    const LweSample a = secret.Encrypt(true, rng_);
    const LweSample b = secret.Encrypt(false, rng_);
    std::vector<LweSample> out(4, LweSample(params_.n));
    std::vector<BatchGateViewSpec> specs;
    for (LweSample& o : out)
        specs.push_back({+1, ViewOf(a), +1, ViewOf(b), kGateMu, ViewOf(o)});
    BatchScratch scratch;
    gates.BatchedLinearBootstrap(specs.data(), 4, &scratch);  // Warm-up.

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 3; ++i)
        gates.BatchedLinearBootstrap(specs.data(), 4, &scratch);
    EXPECT_EQ(AllocCount(), before);
}

/**
 * Batched LUT lanes (two tables, arities 1 and 2) plus a sign lane over a
 * warm BatchScratch: cached test vectors and reused buffers, no heap
 * traffic.
 */
TEST_F(KernelTest, BatchedLutBootstrapIsAllocationFreeWhenWarm) {
    constexpr int32_t kP = 16;
    const SecretKeySet secret(params_, rng_);
    GateEvaluator gates(secret, rng_);
    const LweSample x = LweEncryptDigit(1, kP, params_.lwe_noise_stddev,
                                        secret.lwe_key, rng_);
    const LweSample y = LweEncryptDigit(0, kP, params_.lwe_noise_stddev,
                                        secret.lwe_key, rng_);
    const int8_t weights[2] = {1, 2};
    const LutKernel identity{std::span<const int8_t>(weights, 1), 0, 0b10, 1,
                             kP};
    const LutKernel xor2{std::span<const int8_t>(weights, 2), 0, 0b0110, 1,
                         kP};
    const LweCView ops[2] = {ViewOf(x), ViewOf(y)};
    std::vector<LweSample> out(3, LweSample(params_.n));
    std::vector<BatchGateViewSpec> lanes(3);
    lanes[0].lut = &identity;
    lanes[0].ops = ops;
    lanes[1].lut = &xor2;
    lanes[1].ops = ops;
    lanes[2] = {+1, ops[0], +1, ops[1], kGateMu, {}};
    for (int32_t l = 0; l < 3; ++l) lanes[l].out = ViewOf(out[l]);
    BatchScratch scratch;
    BatchedLutBootstrapInto(gates, lanes.data(), 3, scratch);  // Warm-up.

    const uint64_t before = AllocCount();
    for (int32_t i = 0; i < 3; ++i)
        BatchedLutBootstrapInto(gates, lanes.data(), 3, scratch);
    EXPECT_EQ(AllocCount(), before);
}

TEST_F(KernelTest, ConcurrentScratchesProduceIdenticalResults) {
    // Each thread owns its scratch; all must reproduce the sequential
    // result exactly on shared read-only key material.
    TGswSampleFft one = EncryptBitFft(1);
    TLweSample s(params_.big_n, params_.k);
    for (auto& poly : s.a)
        for (auto& c : poly.coefs) c = rng_.UniformTorus32();
    TLweSample want;
    TGswExternalProduct(want, one, s, fft_);

    constexpr int kThreads = 4;
    std::vector<TLweSample> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            ExternalProductScratch scratch;
            for (int32_t i = 0; i < 8; ++i)
                TGswExternalProduct(got[t], one, s, fft_, &scratch);
        });
    }
    for (auto& th : threads) th.join();

    for (int t = 0; t < kThreads; ++t)
        for (size_t c = 0; c < want.a.size(); ++c)
            for (int32_t p = 0; p < params_.big_n; ++p)
                ASSERT_EQ(got[t].a[c].coefs[p], want.a[c].coefs[p])
                    << t << "," << c << "," << p;
}

}  // namespace
}  // namespace pytfhe::tfhe
