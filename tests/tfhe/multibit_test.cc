/**
 * @file
 * Multi-bit plaintext encoding and the weighted-LUT programmable
 * bootstrap kernel (tfhe/multibit.h), under toy multibit parameters.
 *
 * The load-bearing suite is the exhaustive equivalence sweep: for every
 * arity k <= 3 and EVERY truth table over k bits, the encrypted LUT
 * bootstrap must agree with the plain table lookup on every input
 * assignment (k = 4 is sampled — 2^16 tables is past the point of
 * diminishing returns). Binary weights 1, 2, 4 make the weighted sum the
 * assignment index, which is exactly how opt/lut_lower.cc packs cones.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "tfhe/multibit.h"
#include "tfhe/noise.h"
#include "tfhe/params.h"

namespace pytfhe::tfhe {
namespace {

TEST(DigitEncoding, RoundTripsEveryDigitEveryModulus) {
    for (int32_t p : {2, 4, 8, 16}) {
        for (int32_t v = 0; v < p; ++v) {
            EXPECT_EQ(DecodeDigit(EncodeDigit(v, p), p), v)
                << "p=" << p << " v=" << v;
        }
    }
}

TEST(DigitEncoding, PhaseSitsAtSlotCenter) {
    // phi(v) = (2v+1)/(4p): successive digits are 1/(2p) apart and the
    // first sits half a slot above zero.
    for (int32_t p : {4, 16}) {
        const Torus32 slot = ModSwitchToTorus32(1, 2 * p);
        EXPECT_EQ(EncodeDigit(0, p), ModSwitchToTorus32(1, 4 * p));
        for (int32_t v = 1; v < p; ++v)
            EXPECT_EQ(EncodeDigit(v, p) - EncodeDigit(v - 1, p), slot);
    }
}

class MultibitKernelTest : public ::testing::Test {
  protected:
    MultibitKernelTest()
        : params_(ToyMultibitParams()),
          rng_(7),
          secret_(params_, rng_),
          gates_(secret_, rng_) {}

    LweSample EncryptDigit(int32_t v, int32_t p) {
        return LweEncryptDigit(v, p, params_.lwe_noise_stddev,
                               secret_.lwe_key, rng_);
    }

    /** Runs one LUT gate over fresh encryptions of `digits`. */
    int32_t EvalLut(const LutKernel& lut, const std::vector<int32_t>& digits) {
        std::vector<LweSample> in;
        in.reserve(digits.size());
        for (int32_t d : digits) in.push_back(EncryptDigit(d, lut.p));
        std::vector<LweCView> ops;
        for (const LweSample& s : in) ops.push_back(ViewOf(s));
        LweSample out(params_.n);
        LutBootstrapInto(gates_, lut,
                         std::span<const LweCView>(ops.data(), ops.size()),
                         ViewOf(out), &scratch_);
        return LweDecryptDigit(out, secret_.lwe_key, lut.p);
    }

    Params params_;
    Rng rng_;
    SecretKeySet secret_;
    GateEvaluator gates_;
    BootstrapScratch scratch_;
};

TEST_F(MultibitKernelTest, DigitEncryptionRoundTrips) {
    for (int32_t p : {2, 4, 8, 16}) {
        for (int32_t v = 0; v < p; ++v) {
            const LweSample c = EncryptDigit(v, p);
            EXPECT_EQ(LweDecryptDigit(c, secret_.lwe_key, p), v)
                << "p=" << p << " v=" << v;
        }
    }
}

/**
 * Exhaustive: every truth table of every arity up to 3, every input
 * assignment, against the plain table bit. One encryption set per arity
 * is reused across all tables (the kernel never mutates its operands).
 */
TEST_F(MultibitKernelTest, ExhaustiveTruthTablesUpToArity3) {
    constexpr int32_t kP = 16;
    ASSERT_GE(MaxMultibitWeightBudget(params_, kP), 21)
        << "toy multibit params no longer carry binary-weight LUT3s";
    for (int32_t k = 1; k <= 3; ++k) {
        const int32_t combos = 1 << k;
        std::vector<int8_t> weights;
        for (int32_t i = 0; i < k; ++i)
            weights.push_back(static_cast<int8_t>(1 << i));

        // Fresh encryptions of every assignment's bit digits, made once.
        std::vector<std::vector<LweSample>> enc(combos);
        for (int32_t m = 0; m < combos; ++m)
            for (int32_t i = 0; i < k; ++i)
                enc[m].push_back(EncryptDigit((m >> i) & 1, kP));

        const uint32_t tables = uint32_t{1} << combos;
        for (uint32_t table = 0; table < tables; ++table) {
            const LutKernel lut{
                std::span<const int8_t>(weights.data(), weights.size()), 0,
                table, 1, kP};
            for (int32_t m = 0; m < combos; ++m) {
                std::vector<LweCView> ops;
                for (const LweSample& s : enc[m]) ops.push_back(ViewOf(s));
                LweSample out(params_.n);
                LutBootstrapInto(
                    gates_, lut,
                    std::span<const LweCView>(ops.data(), ops.size()),
                    ViewOf(out), &scratch_);
                const int32_t want = (table >> m) & 1;
                ASSERT_EQ(LweDecryptDigit(out, secret_.lwe_key, kP), want)
                    << "k=" << k << " table=" << table << " m=" << m;
            }
        }
    }
}

/** Arity 4 sampled: 2^16 tables is too many; 32 random ones suffice. */
TEST_F(MultibitKernelTest, SampledTruthTablesArity4) {
    constexpr int32_t kP = 16;
    ASSERT_GE(MaxMultibitWeightBudget(params_, kP), 85)
        << "toy multibit params no longer carry binary-weight LUT4s";
    const int8_t weights[4] = {1, 2, 4, 8};
    std::mt19937 prng(42);
    for (int32_t t = 0; t < 32; ++t) {
        const uint32_t table = static_cast<uint16_t>(prng());
        const LutKernel lut{std::span<const int8_t>(weights, 4), 0, table, 1,
                            kP};
        for (int32_t m = 0; m < 16; ++m) {
            const int32_t got = EvalLut(
                lut, {m & 1, (m >> 1) & 1, (m >> 2) & 1, (m >> 3) & 1});
            ASSERT_EQ(got, (table >> m) & 1) << "table=" << table
                                             << " m=" << m;
        }
    }
}

/** Negative weights shift the domain below zero; lo re-anchors it. */
TEST_F(MultibitKernelTest, NegativeWeightsAndLo) {
    constexpr int32_t kP = 16;
    // m = a - b, in [-1, 1]; table encodes [a<b, a==b, a>b] as the bits
    // of "is m == that slot" for the greater-than relation: 0b100.
    const int8_t weights[2] = {1, -1};
    const LutKernel lut{std::span<const int8_t>(weights, 2), -1, 0b100, 1,
                        kP};
    EXPECT_EQ(EvalLut(lut, {0, 0}), 0);
    EXPECT_EQ(EvalLut(lut, {0, 1}), 0);
    EXPECT_EQ(EvalLut(lut, {1, 0}), 1);
    EXPECT_EQ(EvalLut(lut, {1, 1}), 0);
}

/** 2-bit output digits: a 3-way popcount in one bootstrap. */
TEST_F(MultibitKernelTest, TwoBitOutputPopcount) {
    constexpr int32_t kP = 16;
    const int8_t weights[3] = {1, 1, 1};
    // Entry i = i (the count itself), 2 bits each: 0b11'10'01'00.
    const LutKernel lut{std::span<const int8_t>(weights, 3), 0, 0xE4, 2, kP};
    for (int32_t m = 0; m < 8; ++m) {
        const int32_t count = (m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
        ASSERT_EQ(EvalLut(lut, {m & 1, (m >> 1) & 1, (m >> 2) & 1}), count);
    }
}

/** Digit-valued operands: a 2-bit digit consumed with weight 1. */
TEST_F(MultibitKernelTest, DigitOperands) {
    constexpr int32_t kP = 16;
    // out = (digit + bit) & 1 over digit in [0,4), bit in [0,2).
    const int8_t weights[2] = {1, 1};
    uint32_t table = 0;
    for (int32_t m = 0; m < 5; ++m) table |= (m & 1u) << m;
    const LutKernel lut{std::span<const int8_t>(weights, 2), 0, table, 1, kP};
    for (int32_t d = 0; d < 4; ++d)
        for (int32_t b = 0; b < 2; ++b)
            ASSERT_EQ(EvalLut(lut, {d, b}), (d + b) & 1) << d << "+" << b;
}

/** A univariate table at p = 4: (3m + 1) mod 4 over 2-bit outputs. */
TEST_F(MultibitKernelTest, UnaryLutAtP4) {
    constexpr int32_t kP = 4;
    const int8_t weights[1] = {1};
    uint32_t table = 0;
    for (uint32_t m = 0; m < kP; ++m) table |= ((3 * m + 1) % 4) << (2 * m);
    const LutKernel lut{std::span<const int8_t>(weights, 1), 0, table, 2, kP};
    for (int32_t m = 0; m < kP; ++m)
        EXPECT_EQ(EvalLut(lut, {m}), (3 * m + 1) % 4) << "m=" << m;
}

/** A univariate table at p = 8: m^2 mod 8 over 3-bit outputs. */
TEST_F(MultibitKernelTest, SquareLutAtP8) {
    constexpr int32_t kP = 8;
    const int8_t weights[1] = {1};
    uint32_t table = 0;
    for (uint32_t m = 0; m < kP; ++m) table |= ((m * m) % 8) << (3 * m);
    const LutKernel lut{std::span<const int8_t>(weights, 1), 0, table, 3, kP};
    for (int32_t m = 0; m < kP; ++m)
        EXPECT_EQ(EvalLut(lut, {m}), (m * m) % 8) << "m=" << m;
}

/**
 * Outputs land at slot centres, so each one feeds the next bootstrap as
 * is: 20 identity LUTs in a row on a 2-bit digit, never re-encrypted.
 */
TEST_F(MultibitKernelTest, ChainedIdentityLutsFeedEachOther) {
    constexpr int32_t kP = 16;
    const int8_t weights[1] = {1};
    // Entry i = i, 2 bits each: 0b11'10'01'00.
    const LutKernel lut{std::span<const int8_t>(weights, 1), 0, 0xE4, 2, kP};
    for (int32_t v = 0; v < 4; ++v) {
        LweSample s = EncryptDigit(v, kP);
        for (int i = 0; i < 20; ++i) {
            const LweCView ops[1] = {ViewOf(s)};
            LutBootstrapInto(gates_, lut, std::span<const LweCView>(ops, 1),
                             ViewOf(s), &scratch_);
            ASSERT_EQ(LweDecryptDigit(s, secret_.lwe_key, kP), v)
                << "v=" << v << " iteration " << i;
        }
    }
}

/** The output view may alias an operand: inputs are read first. */
TEST_F(MultibitKernelTest, InPlaceOutputAliasesOperand) {
    constexpr int32_t kP = 16;
    const int8_t weights[2] = {1, 2};
    const uint32_t table = 0b0110;  // XOR.
    const LutKernel lut{std::span<const int8_t>(weights, 2), 0, table, 1, kP};
    for (int32_t m = 0; m < 4; ++m) {
        LweSample a = EncryptDigit(m & 1, kP);
        LweSample b = EncryptDigit((m >> 1) & 1, kP);
        const LweCView ops[2] = {ViewOf(a), ViewOf(b)};
        LutBootstrapInto(gates_, lut, std::span<const LweCView>(ops, 2),
                         ViewOf(a), &scratch_);
        ASSERT_EQ(LweDecryptDigit(a, secret_.lwe_key, kP),
                  ((m & 1) ^ (m >> 1)) & 1);
    }
}

/** LUT bootstraps profile like boolean ones: one blind rotation each. */
TEST_F(MultibitKernelTest, ProfilesAsOneBootstrap) {
    constexpr int32_t kP = 16;
    const uint64_t before = gates_.profile().Snapshot().bootstrap_count;
    const int8_t weights[1] = {1};
    const LutKernel lut{std::span<const int8_t>(weights, 1), 0, 0b10, 1, kP};
    EvalLut(lut, {1});
    EXPECT_EQ(gates_.profile().Snapshot().bootstrap_count, before + 1);
}

// ------------------------------------------------- batched LUT bootstrap

bool SameLwe(const LweSample& x, const LweSample& y) {
    return x.a == y.a && x.b == y.b;
}

/**
 * `count` LUT lanes over fresh digit encryptions, wired up as
 * BatchGateViewSpecs: lane l has arity 1 + l % 4 with binary weights, a
 * 1- or 2-bit output and table `tables[l]`. Every pointer the specs hold
 * targets heap storage or elements of vectors sized once here, so the set
 * may be returned by value.
 */
struct LutLanes {
    std::vector<std::vector<int8_t>> weights;
    std::vector<std::vector<LweSample>> in;
    std::vector<std::vector<LweCView>> ops;
    std::vector<LutKernel> luts;
    std::vector<LweSample> out;
    std::vector<BatchGateViewSpec> specs;
};

LutLanes MakeLutLanes(const std::vector<uint32_t>& tables, int32_t p,
                      const SecretKeySet& secret, Rng& rng) {
    const int32_t count = static_cast<int32_t>(tables.size());
    LutLanes s;
    s.weights.resize(count);
    s.in.resize(count);
    s.ops.resize(count);
    s.luts.resize(count);
    s.out.assign(count, LweSample(secret.params.n));
    s.specs.resize(count);
    for (int32_t l = 0; l < count; ++l) {
        const int32_t arity = 1 + l % 4;
        for (int32_t i = 0; i < arity; ++i) {
            s.weights[l].push_back(static_cast<int8_t>(1 << i));
            s.in[l].push_back(LweEncryptDigit(
                static_cast<int32_t>(rng.UniformBelow(2)), p,
                secret.params.lwe_noise_stddev, secret.lwe_key, rng));
        }
        for (const LweSample& c : s.in[l]) s.ops[l].push_back(ViewOf(c));
        const uint8_t out_bits = arity <= 2 ? 2 : 1;
        s.luts[l] = LutKernel{std::span<const int8_t>(s.weights[l]), 0,
                              tables[l], out_bits, p};
        s.specs[l].lut = &s.luts[l];
        s.specs[l].ops = s.ops[l].data();
        s.specs[l].out = ViewOf(s.out[l]);
    }
    return s;
}

/** Scalar LutBootstrapInto of lane l, through its own fresh scratch. */
LweSample ScalarLane(GateEvaluator& gates, const LutLanes& s, int32_t l) {
    LweSample want(gates.params().n);
    BootstrapScratch scratch;
    LutBootstrapInto(gates, s.luts[l], s.ops[l], ViewOf(want), &scratch);
    return want;
}

/** Plain digit lane l must decrypt to. */
int32_t PlainLane(const LutLanes& s, int32_t l, const SecretKeySet& secret) {
    int32_t m = 0;
    for (size_t i = 0; i < s.in[l].size(); ++i)
        m += s.weights[l][i] *
             LweDecryptDigit(s.in[l][i], secret.lwe_key, s.luts[l].p);
    const uint32_t mask = (1u << s.luts[l].out_bits) - 1;
    return static_cast<int32_t>((s.luts[l].table >> (m * s.luts[l].out_bits)) &
                                mask);
}

/**
 * Batched LUT lanes equal scalar LutBootstrapInto word for word. b = 1..8
 * reaches every batched-FFT shape (single lane, AVX2 groups, AVX-512 at 4
 * and 8 lanes); every lane brings its own table, arity and output width.
 */
TEST_F(MultibitKernelTest, BatchedLutLanesMatchScalarWordForWord) {
    constexpr int32_t kP = 16;
    BatchScratch scratch;
    for (int32_t b = 1; b <= 8; ++b) {
        std::vector<uint32_t> tables;
        for (int32_t l = 0; l < b; ++l)
            tables.push_back(0x9E37u * static_cast<uint32_t>(b * 8 + l + 1) &
                             0xFFFFu);
        LutLanes s = MakeLutLanes(tables, kP, secret_, rng_);
        BatchedLutBootstrapInto(gates_, s.specs.data(), b, scratch);
        for (int32_t l = 0; l < b; ++l) {
            EXPECT_TRUE(SameLwe(s.out[l], ScalarLane(gates_, s, l)))
                << "b=" << b << " lane=" << l;
            EXPECT_EQ(LweDecryptDigit(s.out[l], secret_.lwe_key, kP),
                      PlainLane(s, l, secret_))
                << "b=" << b << " lane=" << l;
        }
    }
}

/**
 * Outputs may alias operands of their own and of other lanes: every
 * lane's operands are read before any output is written.
 */
TEST_F(MultibitKernelTest, BatchedLutOutputsMayAliasAnyOperand) {
    constexpr int32_t kP = 16;
    LutLanes s = MakeLutLanes({0x6996u, 0x1u, 0xE4u}, kP, secret_, rng_);
    std::vector<LweSample> want;
    for (int32_t l = 0; l < 3; ++l) want.push_back(ScalarLane(gates_, s, l));
    // Lane 0 (arity 1) writes over lane 1's first operand, lane 1 over
    // its own second operand, lane 2 over lane 0's only operand.
    s.specs[0].out = ViewOf(s.in[1][0]);
    s.specs[1].out = ViewOf(s.in[1][1]);
    s.specs[2].out = ViewOf(s.in[0][0]);
    BatchScratch scratch;
    BatchedLutBootstrapInto(gates_, s.specs.data(), 3, scratch);
    EXPECT_TRUE(SameLwe(s.in[1][0], want[0]));
    EXPECT_TRUE(SameLwe(s.in[1][1], want[1]));
    EXPECT_TRUE(SameLwe(s.in[0][0], want[2]));
}

/**
 * One call mixing LUT lanes and sign-bootstrapped boolean lanes on one
 * key: each lane equals its own scalar kernel.
 */
TEST_F(MultibitKernelTest, BatchedLutAndSignLanesShareOneCall) {
    constexpr int32_t kP = 16;
    LutLanes luts = MakeLutLanes({0xB4u, 0x2u}, kP, secret_, rng_);
    const LweSample x = secret_.Encrypt(true, rng_);
    const LweSample y = secret_.Encrypt(false, rng_);
    LweSample and_out(params_.n), or_out(params_.n);
    std::vector<BatchGateViewSpec> specs = {
        luts.specs[0],
        {+1, ViewOf(x), +1, ViewOf(y), static_cast<Torus32>(-kGateMu),
         ViewOf(and_out)},
        luts.specs[1],
        {+1, ViewOf(x), +1, ViewOf(y), kGateMu, ViewOf(or_out)},
    };
    BatchScratch scratch;
    BatchedLutBootstrapInto(gates_, specs.data(), 4, scratch);
    EXPECT_TRUE(SameLwe(luts.out[0], ScalarLane(gates_, luts, 0)));
    EXPECT_TRUE(SameLwe(luts.out[1], ScalarLane(gates_, luts, 1)));
    EXPECT_TRUE(SameLwe(and_out, gates_.And(x, y)));
    EXPECT_TRUE(SameLwe(or_out, gates_.Or(x, y)));
    EXPECT_EQ(gates_.profile().Snapshot().bootstrap_count, 4u + 2u + 2u);
}

/**
 * The per-scratch test-vector cache under batching: a first batch whose
 * lanes all bring new tables, then a run of batches that keeps one known
 * table per batch and adds three new ones until the cache crosses its
 * 128-entry clear mid-batch. Each lane holds a pointer into the cache
 * while the others are looked up, so any entry moved or freed under it
 * shows as a mismatch here (and as a use-after-free under ASan).
 */
TEST_F(MultibitKernelTest, BatchedTestVectorCacheCrossesItsClear) {
    constexpr int32_t kP = 16;
    BatchScratch scratch;
    uint32_t next_table = 0x100;
    uint32_t known = 0;
    for (int32_t round = 0; round < 48; ++round) {
        std::vector<uint32_t> tables;
        for (int32_t l = 0; l < 4; ++l)
            tables.push_back(round > 0 && l == 0 ? known : next_table++);
        known = tables[3];
        LutLanes s = MakeLutLanes(tables, kP, secret_, rng_);
        BatchedLutBootstrapInto(gates_, s.specs.data(), 4, scratch);
        for (int32_t l = 0; l < 4; ++l)
            ASSERT_TRUE(SameLwe(s.out[l], ScalarLane(gates_, s, l)))
                << "round " << round << " lane " << l;
        ASSERT_LE(scratch.lut_tv_cache.size(), 128u);
    }
    EXPECT_GT(next_table - 0x100, 128u) << "the run must cross the clear";
}

/**
 * The same bit-exactness at the production multibit-128 parameters
 * (N = 2048, l = 4), where the batched FFT runs its cross-block stages:
 * b in {1, 3, 4} with distinct tables, one lane writing over its own
 * operand.
 */
TEST(MultibitProductionTest, BatchedLutLanesMatchScalarAtMultibitParams) {
    constexpr int32_t kP = 16;
    Rng rng(2048);
    const SecretKeySet secret(MultibitParams(), rng);
    GateEvaluator gates(secret, rng);
    BatchScratch scratch;
    uint32_t table = 0x35u;
    for (const int32_t b : {1, 3, 4}) {
        std::vector<uint32_t> tables;
        for (int32_t l = 0; l < b; ++l) tables.push_back(table += 0x2F1u);
        LutLanes s = MakeLutLanes(tables, kP, secret, rng);
        std::vector<LweSample> want;
        for (int32_t l = 0; l < b; ++l)
            want.push_back(ScalarLane(gates, s, l));
        s.specs[b - 1].out = ViewOf(s.in[b - 1][0]);
        BatchedLutBootstrapInto(gates, s.specs.data(), b, scratch);
        for (int32_t l = 0; l + 1 < b; ++l)
            EXPECT_TRUE(SameLwe(s.out[l], want[l]))
                << "b=" << b << " lane=" << l;
        EXPECT_TRUE(SameLwe(s.in[b - 1][0], want[b - 1])) << "b=" << b;
    }
}

}  // namespace
}  // namespace pytfhe::tfhe
