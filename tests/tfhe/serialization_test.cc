#include "tfhe/serialization.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>

#include "tfhe/crc32c.h"
#include "tfhe/multibit.h"

namespace pytfhe::tfhe {
namespace {

void Put32(std::string& s, uint32_t v) {
    for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

void Put64(std::string& s, uint64_t v) {
    Put32(s, static_cast<uint32_t>(v));
    Put32(s, static_cast<uint32_t>(v >> 32));
}

/**
 * Writes the key-switching key section of a legacy (version 2/3)
 * evaluation key: all B samples per digit position (i, j), v = 0 stored as
 * a zero sample, sample v encrypting v * s_i / B^{j+1}. Appends every
 * sample to `rows` in stream order.
 */
std::string LegacyKskSection(const SecretKeySet& secret, Rng& rng,
                             std::vector<LweSample>* rows) {
    const Params& p = secret.params;
    const LweKey in_key = secret.tlwe_key.ExtractLweKey();
    const int32_t base = 1 << p.ks_base_bit;
    std::string s;
    Put32(s, static_cast<uint32_t>(in_key.N()));
    Put32(s, static_cast<uint32_t>(p.n));
    Put32(s, static_cast<uint32_t>(p.ks_t));
    Put32(s, static_cast<uint32_t>(p.ks_base_bit));
    Put64(s, static_cast<uint64_t>(in_key.N()) * p.ks_t * base);
    for (int32_t i = 0; i < in_key.N(); ++i)
        for (int32_t j = 0; j < p.ks_t; ++j)
            for (int32_t v = 0; v < base; ++v) {
                const Torus32 mu = static_cast<uint32_t>(v * in_key.key[i])
                                   << (32 - p.ks_base_bit * (j + 1));
                const LweSample row =
                    v == 0 ? LweSample(p.n)
                           : LweEncrypt(mu, p.lwe_noise_stddev,
                                        secret.lwe_key, rng);
                Put64(s, static_cast<uint64_t>(p.n));
                for (Torus32 a : row.a) Put32(s, a);
                Put32(s, row.b);
                rows->push_back(row);
            }
    return s;
}

/**
 * Re-frames a current BootstrappingKey stream of `key` as version 3 with
 * `legacy_ksk` in place of its key-switching key section (the last
 * section of the body).
 */
std::string AsLegacyVersion3(const std::string& current,
                             const BootstrappingKey& key,
                             const std::string& legacy_ksk) {
    const KeySwitchKey& k = key.ksk();
    const size_t ksk_bytes =
        24 + k.NumRows() * (8 + 4 * (static_cast<size_t>(k.OutputN()) + 1));
    std::string body = current.substr(16, current.size() - 20);
    body = body.substr(0, body.size() - ksk_bytes) + legacy_ksk;
    std::string out = current.substr(0, 4);  // Magic.
    Put32(out, 3);
    Put64(out, body.size());
    out += body;
    Put32(out, Crc32c(body.data(), body.size()));
    return out;
}

TEST(Serialization, ParamsRoundTrip) {
    for (const Params& p : {ToyParams(), SmallParams(), Tfhe128Params()}) {
        std::stringstream ss;
        SaveParams(ss, p);
        auto q = LoadParams(ss);
        ASSERT_TRUE(q.has_value()) << p.name;
        EXPECT_EQ(q->name, p.name);
        EXPECT_EQ(q->n, p.n);
        EXPECT_EQ(q->big_n, p.big_n);
        EXPECT_EQ(q->bk_l, p.bk_l);
        EXPECT_EQ(q->ks_t, p.ks_t);
        EXPECT_EQ(q->lwe_noise_stddev, p.lwe_noise_stddev);
    }
}

TEST(Serialization, LweSampleRoundTrip) {
    Rng rng(101);
    const Params p = ToyParams();
    LweKey key(p.n, rng);
    LweSample s = LweEncryptBit(true, p.lwe_noise_stddev, key, rng);
    std::stringstream ss;
    SaveLweSample(ss, s);
    auto t = LoadLweSample(ss);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->a, s.a);
    EXPECT_EQ(t->b, s.b);
    EXPECT_TRUE(LweDecryptBit(*t, key));
}

TEST(Serialization, SampleBatchRoundTrip) {
    Rng rng(102);
    const Params p = ToyParams();
    LweKey key(p.n, rng);
    std::vector<LweSample> batch;
    for (int i = 0; i < 7; ++i)
        batch.push_back(LweEncryptBit(i % 2, p.lwe_noise_stddev, key, rng));
    std::stringstream ss;
    SaveLweSamples(ss, batch);
    auto loaded = LoadLweSamples(ss);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(LweDecryptBit((*loaded)[i], key), i % 2 == 1);
}

TEST(Serialization, SecretKeySetRoundTrip) {
    Rng rng(103);
    SecretKeySet keys(ToyParams(), rng);
    std::stringstream ss;
    SaveSecretKeySet(ss, keys);
    auto loaded = LoadSecretKeySet(ss);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->lwe_key.key, keys.lwe_key.key);
    EXPECT_EQ(loaded->tlwe_key.key[0].coefs, keys.tlwe_key.key[0].coefs);

    // A ciphertext from the original keys decrypts under the loaded ones.
    LweSample s = keys.Encrypt(true, rng);
    EXPECT_TRUE(loaded->Decrypt(s));
}

TEST(Serialization, OnlyKeysAreWrittenAtTheSignedKeySwitchVersion) {
    // Objects that hold a key-switching key are written at version 4;
    // every other kind keeps the version-3 frame its bytes had before, and
    // refuses a version-4 label.
    Rng rng(106);
    SecretKeySet secret(ToyParams(), rng);
    const BootstrappingKey bk(secret.params, secret.lwe_key, secret.tlwe_key,
                              rng);
    auto version = [](const std::function<void(std::ostream&)>& save) {
        std::stringstream ss;
        save(ss);
        const std::string bytes = ss.str();
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[4 + i]))
                 << (8 * i);
        return v;
    };
    const LweSample sample = secret.Encrypt(true, rng);
    EXPECT_EQ(version([&](std::ostream& os) {
                  SaveParams(os, secret.params);
              }),
              3u);
    EXPECT_EQ(version([&](std::ostream& os) { SaveLweSample(os, sample); }),
              3u);
    EXPECT_EQ(version([&](std::ostream& os) {
                  SaveLweSamples(os, {sample, sample});
              }),
              3u);
    EXPECT_EQ(version([&](std::ostream& os) { SaveSecretKeySet(os, secret); }),
              3u);
    EXPECT_EQ(version([&](std::ostream& os) {
                  SaveFramedRecord(os, 0x50544843, "record");
              }),
              3u);
    EXPECT_EQ(version([&](std::ostream& os) {
                  SaveBootstrappingKey(os, bk);
              }),
              4u);
    EXPECT_EQ(version([&](std::ostream& os) {
                  SaveEvaluationKey(os, bk, KeyId{7});
              }),
              4u);

    std::stringstream params;
    SaveParams(params, secret.params);
    std::string relabelled = params.str();
    relabelled[4] = 4;
    std::stringstream in(relabelled);
    std::string error;
    EXPECT_FALSE(LoadParams(in, &error).has_value());
    EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
}

TEST(Serialization, BootstrappingKeyRoundTripEvaluatesGates) {
    Rng rng(104);
    SecretKeySet secret(ToyParams(), rng);
    auto original = std::make_shared<BootstrappingKey>(
        secret.params, secret.lwe_key, secret.tlwe_key, rng);

    std::stringstream ss;
    SaveBootstrappingKey(ss, *original);
    std::string error;
    auto loaded = LoadBootstrappingKey(ss, &error);
    ASSERT_TRUE(loaded.has_value()) << error;

    // The server restored from disk computes correct gates.
    GateEvaluator eval(
        std::make_shared<BootstrappingKey>(std::move(*loaded)));
    LweSample a = secret.Encrypt(true, rng);
    LweSample b = secret.Encrypt(false, rng);
    EXPECT_TRUE(secret.Decrypt(eval.Nand(a, b)));
    EXPECT_TRUE(secret.Decrypt(eval.Xor(a, b)));
    EXPECT_FALSE(secret.Decrypt(eval.And(a, b)));
}

TEST(Serialization, FftKeyRoundTripsWordForWordAndIsStoredInNaturalOrder) {
    Rng rng(107);
    SecretKeySet secret(ToyParams(), rng);
    const BootstrappingKey key(secret.params, secret.lwe_key,
                               secret.tlwe_key, rng);
    std::stringstream ss;
    SaveBootstrappingKey(ss, key);
    const std::string bytes = ss.str();
    std::string error;
    auto loaded = LoadBootstrappingKey(ss, &error);
    ASSERT_TRUE(loaded.has_value()) << error;

    // Save -> load reproduces every in-memory double exactly.
    ASSERT_EQ(loaded->bk().size(), key.bk().size());
    for (size_t i = 0; i < key.bk().size(); ++i) {
        const auto& want = key.bk()[i].rows;
        const auto& got = loaded->bk()[i].rows;
        ASSERT_EQ(got.size(), want.size());
        for (size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(got[r].size(), want[r].size());
            for (size_t c = 0; c < want[r].size(); ++c) {
                const int32_t h = want[r][c].HalfSize();
                ASSERT_EQ(got[r][c].HalfSize(), h);
                const size_t plane = static_cast<size_t>(h) * sizeof(double);
                ASSERT_EQ(std::memcmp(got[r][c].Re(), want[r][c].Re(), plane),
                          0)
                    << "bk " << i << " row " << r << " col " << c;
                ASSERT_EQ(std::memcmp(got[r][c].Im(), want[r][c].Im(), plane),
                          0)
                    << "bk " << i << " row " << r << " col " << c;
            }
        }
    }

    // On disk, the first TGSW sample's polynomials hold evaluation m in
    // place m. Each row's coefficients are recovered exactly by the
    // inverse transform and evaluated directly in O(h^2).
    const Params& p = secret.params;
    const int32_t h = p.big_n / 2;
    const NegacyclicFft& fft = key.fft();
    const double pi = std::acos(-1.0);
    // Frame header, params body, bk size, (l, bg_bit, row count).
    size_t at = 16 + 8 + p.name.size() + 7 * 4 + 2 * 8 + 8 + 16;
    auto f64 = [&](size_t pos) {
        uint64_t bits = 0;
        for (int b = 0; b < 8; ++b)
            bits |= static_cast<uint64_t>(
                        static_cast<unsigned char>(bytes[pos + b]))
                    << (8 * b);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    };
    for (const auto& row : key.bk()[0].rows) {
        at += 8;  // Column count.
        for (const FreqPolynomial& f : row) {
            at += 8;  // Slot count.
            TorusPolynomial coefs(p.big_n);
            fft.Inverse(coefs, f);
            double scale = 1.0;
            std::vector<std::complex<double>> want(h);
            for (int32_t m = 0; m < h; ++m) {
                for (int32_t j = 0; j < h; ++j) {
                    const std::complex<double> a(
                        static_cast<int32_t>(coefs.coefs[j]),
                        -static_cast<double>(
                            static_cast<int32_t>(coefs.coefs[j + h])));
                    want[m] += a * std::polar(1.0, -pi * j / p.big_n) *
                               std::polar(1.0, -2.0 * pi * ((j * m) % h) / h);
                }
                scale = std::max(scale, std::abs(want[m]));
            }
            for (int32_t m = 0; m < h; ++m) {
                ASSERT_NEAR(f64(at + 8 * m), want[m].real(), 1e-9 * scale)
                    << "slot " << m;
                ASSERT_NEAR(f64(at + 8 * (h + m)), want[m].imag(),
                            1e-9 * scale)
                    << "slot " << m;
            }
            at += 16 * static_cast<size_t>(h);
        }
    }
}

TEST(Serialization, LegacyVersion3KeySwitchKeyLoadsAndEvaluates) {
    // A v3 key stores all B samples per digit; the reader keeps v = 1..B/2
    // (the signed-digit key's rows) and drops the rest. Gates and a LUT
    // gate on the loaded key decrypt like those on a freshly generated one.
    using Gate2 = std::function<LweSample(GateEvaluator&, const LweSample&,
                                          const LweSample&)>;
    struct BinaryGate {
        const char* name;
        Gate2 eval;
        bool (*truth)(bool, bool);
    };
    const std::vector<BinaryGate> gates = {
        {"AND", [](GateEvaluator& e, const LweSample& a,
                   const LweSample& b) { return e.And(a, b); },
         [](bool a, bool b) { return a && b; }},
        {"NAND", [](GateEvaluator& e, const LweSample& a,
                    const LweSample& b) { return e.Nand(a, b); },
         [](bool a, bool b) { return !(a && b); }},
        {"OR", [](GateEvaluator& e, const LweSample& a,
                  const LweSample& b) { return e.Or(a, b); },
         [](bool a, bool b) { return a || b; }},
        {"NOR", [](GateEvaluator& e, const LweSample& a,
                   const LweSample& b) { return e.Nor(a, b); },
         [](bool a, bool b) { return !(a || b); }},
        {"XOR", [](GateEvaluator& e, const LweSample& a,
                   const LweSample& b) { return e.Xor(a, b); },
         [](bool a, bool b) { return a != b; }},
        {"XNOR", [](GateEvaluator& e, const LweSample& a,
                    const LweSample& b) { return e.Xnor(a, b); },
         [](bool a, bool b) { return a == b; }},
        {"ANDNY", [](GateEvaluator& e, const LweSample& a,
                     const LweSample& b) { return e.AndNY(a, b); },
         [](bool a, bool b) { return !a && b; }},
        {"ANDYN", [](GateEvaluator& e, const LweSample& a,
                     const LweSample& b) { return e.AndYN(a, b); },
         [](bool a, bool b) { return a && !b; }},
        {"ORNY", [](GateEvaluator& e, const LweSample& a,
                    const LweSample& b) { return e.OrNY(a, b); },
         [](bool a, bool b) { return !a || b; }},
        {"ORYN", [](GateEvaluator& e, const LweSample& a,
                    const LweSample& b) { return e.OrYN(a, b); },
         [](bool a, bool b) { return a || !b; }},
    };
    for (const Params& params : {ToyParams(), ToyMultibitParams()}) {
        Rng rng(105);
        SecretKeySet secret(params, rng);
        auto fresh = std::make_shared<BootstrappingKey>(
            secret.params, secret.lwe_key, secret.tlwe_key, rng);
        std::stringstream current;
        SaveBootstrappingKey(current, *fresh);
        std::vector<LweSample> legacy_rows;
        std::stringstream v3(AsLegacyVersion3(
            current.str(), *fresh,
            LegacyKskSection(secret, rng, &legacy_rows)));
        std::string error;
        auto loaded = LoadBootstrappingKey(v3, &error);
        ASSERT_TRUE(loaded.has_value()) << params.name << ": " << error;

        const KeySwitchKey& k = loaded->ksk();
        ASSERT_EQ(k.NumRows(), fresh->ksk().NumRows()) << params.name;
        const int32_t base = 1 << k.BaseBit();
        for (int32_t i = 0; i < k.InputN(); ++i)
            for (int32_t j = 0; j < k.T(); ++j)
                for (int32_t v = 1; v <= base / 2; ++v) {
                    const LweSample& want =
                        legacy_rows[(static_cast<size_t>(i) * k.T() + j) *
                                        base + v];
                    const Torus32* row = k.Row(i, j, v);
                    ASSERT_TRUE(std::equal(want.a.begin(), want.a.end(), row))
                        << params.name << " row " << i << "," << j << ","
                        << v;
                    ASSERT_EQ(row[k.OutputN()], want.b) << params.name;
                }

        GateEvaluator legacy(
            std::make_shared<BootstrappingKey>(*std::move(loaded)));
        GateEvaluator renewed(fresh);
        for (GateEvaluator* eval : {&legacy, &renewed}) {
            const char* which = eval == &legacy ? "legacy" : "fresh";
            for (const BinaryGate& g : gates)
                for (int m = 0; m < 4; ++m) {
                    const bool a = m & 1, b = m & 2;
                    const LweSample out = g.eval(*eval, secret.Encrypt(a, rng),
                                                 secret.Encrypt(b, rng));
                    EXPECT_EQ(secret.Decrypt(out), g.truth(a, b))
                        << params.name << " " << which << " " << g.name
                        << " " << a << b;
                }
            for (int m = 0; m < 8; ++m) {
                const bool c = m & 1, x = m & 2, y = m & 4;
                const LweSample out =
                    eval->Mux(secret.Encrypt(c, rng), secret.Encrypt(x, rng),
                              secret.Encrypt(y, rng));
                EXPECT_EQ(secret.Decrypt(out), c ? x : y)
                    << params.name << " " << which << " MUX " << m;
            }
            EXPECT_EQ(secret.Decrypt(eval->Not(secret.Encrypt(true, rng))),
                      false);
            if (params.name != ToyMultibitParams().name) continue;
            // LUT gate: (3 * (a + 2b) + 1) mod 4 over bit digits, p = 4.
            constexpr int32_t kP = 4;
            const int8_t weights[2] = {1, 2};
            uint32_t table = 0;
            for (uint32_t i = 0; i < 4; ++i)
                table |= ((3 * i + 1) % 4) << (2 * i);
            const LutKernel lut{std::span<const int8_t>(weights, 2), 0, table,
                                2, kP};
            for (int32_t m = 0; m < 4; ++m) {
                const LweSample da = LweEncryptDigit(
                    m & 1, kP, params.lwe_noise_stddev, secret.lwe_key, rng);
                const LweSample db =
                    LweEncryptDigit((m >> 1) & 1, kP, params.lwe_noise_stddev,
                                    secret.lwe_key, rng);
                const LweCView ops[2] = {ViewOf(da), ViewOf(db)};
                LweSample out(params.n);
                LutBootstrapInto(*eval, lut, std::span<const LweCView>(ops, 2),
                                 ViewOf(out));
                EXPECT_EQ(LweDecryptDigit(out, secret.lwe_key, kP),
                          (3 * m + 1) % 4)
                    << which << " LUT " << m;
            }
        }
    }
}

TEST(Serialization, RejectsWrongMagic) {
    Rng rng(105);
    const Params p = ToyParams();
    LweKey key(p.n, rng);
    std::stringstream ss;
    SaveLweSample(ss, LweEncryptBit(true, p.lwe_noise_stddev, key, rng));
    std::string error;
    EXPECT_FALSE(LoadParams(ss, &error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(Serialization, RejectsTruncation) {
    std::stringstream ss;
    SaveParams(ss, ToyParams());
    std::string bytes = ss.str();
    for (size_t cut : {size_t{3}, size_t{9}, bytes.size() - 2}) {
        std::stringstream truncated(bytes.substr(0, cut));
        std::string error;
        EXPECT_FALSE(LoadParams(truncated, &error).has_value()) << cut;
        EXPECT_FALSE(error.empty());
    }
}

TEST(Serialization, RejectsGarbage) {
    // Fuzz-ish: random byte blobs never crash, always error cleanly.
    std::mt19937_64 prng(9);
    for (int trial = 0; trial < 50; ++trial) {
        std::string blob(1 + prng() % 200, '\0');
        for (auto& c : blob) c = static_cast<char>(prng());
        std::stringstream ss(blob);
        std::string error;
        EXPECT_FALSE(LoadBootstrappingKey(ss, &error).has_value());
        std::stringstream ss2(blob);
        EXPECT_FALSE(LoadSecretKeySet(ss2, &error).has_value());
    }
}

}  // namespace
}  // namespace pytfhe::tfhe
