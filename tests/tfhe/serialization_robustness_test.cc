/**
 * @file
 * Corruption sweep for every serialization format: flip each byte (or a
 * stride of bytes for the multi-hundred-KB bootstrapping key) and truncate
 * at each prefix, asserting every mutation yields a typed failure — never
 * a crash, never a silently-wrong object. The sweep covers the six key /
 * ciphertext formats (the evaluation key in its version-4 signed-digit
 * layout) plus the backend's job-checkpoint record, which rides the same
 * frame. Also pins the legacy version-2 compatibility path and the
 * Load*OrThrow wrappers.
 */
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>
#include <string>

#include "backend/checkpoint.h"
#include "backend/interpreter.h"
#include "pasm/assembler.h"
#include "tfhe/serialization.h"

namespace pytfhe::tfhe {
namespace {

/** One format under sweep: its serialized bytes and a loader probe. */
struct Format {
    std::string name;
    std::string bytes;
    // Returns true when the stream loaded successfully.
    std::function<bool(std::istream&, std::string*)> load;
    std::function<void(std::istream&)> load_or_throw;
    size_t flip_stride = 1;
    // Whether a version-2 downgrade of the frame must still load.
    // Formats born on v3 (the job-checkpoint record) refuse it instead.
    bool legacy_v2 = true;
};

std::vector<Format> MakeFormats() {
    Rng rng(777);
    const Params params = ToyParams();
    SecretKeySet keys(params, rng);
    const LweSample sample = keys.Encrypt(true, rng);
    std::vector<LweSample> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(keys.Encrypt(i % 2, rng));
    BootstrappingKey bk(keys.params, keys.lwe_key, keys.tlwe_key, rng);

    std::vector<Format> formats;
    {
        std::stringstream ss;
        SaveParams(ss, params);
        formats.push_back(
            {"params", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadParams(is, e).has_value();
             },
             [](std::istream& is) { LoadParamsOrThrow(is); }});
    }
    {
        std::stringstream ss;
        SaveLweSample(ss, sample);
        formats.push_back(
            {"lwe_sample", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadLweSample(is, e).has_value();
             },
             [](std::istream& is) { LoadLweSampleOrThrow(is); }});
    }
    {
        std::stringstream ss;
        SaveLweSamples(ss, batch);
        formats.push_back(
            {"lwe_samples", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadLweSamples(is, e).has_value();
             },
             [](std::istream& is) { LoadLweSamplesOrThrow(is); }});
    }
    {
        std::stringstream ss;
        SaveSecretKeySet(ss, keys);
        formats.push_back(
            {"secret_key_set", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadSecretKeySet(is, e).has_value();
             },
             [](std::istream& is) { LoadSecretKeySetOrThrow(is); },
             /*flip_stride=*/7});
    }
    {
        std::stringstream ss;
        SaveBootstrappingKey(ss, bk);
        formats.push_back(
            {"bootstrapping_key", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadBootstrappingKey(is, e).has_value();
             },
             [](std::istream& is) { LoadBootstrappingKeyOrThrow(is); },
             /*flip_stride=*/997});
    }
    {
        std::stringstream ss;
        SaveEvaluationKey(ss, bk, KeyId{0x5eed0000c0ffee01});
        formats.push_back(
            {"evaluation_key", ss.str(),
             [](std::istream& is, std::string* e) {
                 return LoadEvaluationKey(is, e).has_value();
             },
             [](std::istream& is) { LoadEvaluationKeyOrThrow(is); },
             /*flip_stride=*/997});
    }
    {
        // The backend's job-checkpoint record shares the frame: run a
        // short chain halfway, snapshot the live set at an ordinal cut,
        // and sweep the resulting bytes like any key or ciphertext file.
        circuit::Netlist n;
        const circuit::NodeId in = n.AddInput();
        circuit::NodeId cur = in;
        for (int i = 0; i < 12; ++i)
            cur = n.AddGate(circuit::GateType::kNand, cur, in);
        n.AddOutput(cur);
        auto program = pasm::Assemble(n);
        backend::PlainEvaluator eval;
        backend::ValuePlane<backend::PlainEvaluator> plane;
        plane.Reset(*program, std::vector<bool>{true});
        typename backend::detail::WorkerScratchOf<
            backend::PlainEvaluator>::type scratch{};
        const uint64_t cut = program->FirstGateIndex() + 7;
        for (uint64_t idx = program->FirstGateIndex(); idx <= cut; ++idx)
            plane.Apply(eval, *program, idx, scratch);
        const pasm::ValueLiveness liveness =
            pasm::ComputeValueLiveness(*program);
        const std::string record = backend::EncodeCheckpoint(
            *program, plane, pasm::LiveValuesAtOrdinalCut(liveness, cut),
            backend::CheckpointCut::kOrdinal, cut,
            cut - program->FirstGateIndex() + 1);
        const uint64_t fp = backend::ProgramFingerprint(*program);
        const uint64_t end =
            program->FirstGateIndex() + program->NumGates();
        auto slurp = [](std::istream& is) {
            return std::string(std::istreambuf_iterator<char>(is),
                               std::istreambuf_iterator<char>());
        };
        formats.push_back(
            {"job_checkpoint", record,
             [fp, end, slurp](std::istream& is, std::string* e) {
                 return backend::DecodeCheckpoint<bool>(slurp(is), fp, end,
                                                        e)
                     .has_value();
             },
             [fp, end, slurp](std::istream& is) {
                 std::string error;
                 if (!backend::DecodeCheckpoint<bool>(slurp(is), fp, end,
                                                      &error))
                     throw CorruptPayloadError(error);
             },
             /*flip_stride=*/1, /*legacy_v2=*/false});
    }
    return formats;
}

TEST(SerializationRobustness, PristineBytesLoad) {
    for (const Format& f : MakeFormats()) {
        std::stringstream ss(f.bytes);
        std::string error;
        EXPECT_TRUE(f.load(ss, &error)) << f.name << ": " << error;
        EXPECT_TRUE(error.empty()) << f.name;
        std::stringstream ss2(f.bytes);
        EXPECT_NO_THROW(f.load_or_throw(ss2)) << f.name;
    }
}

TEST(SerializationRobustness, EveryByteFlipIsDetected) {
    // Flip one bit in each swept byte. Body flips are caught by the
    // CRC32C; header flips (magic, version, length, checksum) are caught
    // by frame validation. Nothing may load, nothing may crash. The
    // 16-byte header and the trailing checksum are always swept densely;
    // large bodies are sampled at the format's stride.
    for (const Format& f : MakeFormats()) {
        std::vector<size_t> positions;
        for (size_t pos = 0; pos < f.bytes.size() && pos < 16; ++pos)
            positions.push_back(pos);
        for (size_t pos = 16; pos < f.bytes.size(); pos += f.flip_stride)
            positions.push_back(pos);
        for (size_t back = 1; back <= 4 && back < f.bytes.size(); ++back)
            positions.push_back(f.bytes.size() - back);
        for (size_t pos : positions) {
            for (unsigned char mask : {0x01, 0xFF}) {
                std::string mutated = f.bytes;
                mutated[pos] = static_cast<char>(
                    static_cast<unsigned char>(mutated[pos]) ^ mask);
                std::stringstream ss(mutated);
                std::string error;
                EXPECT_FALSE(f.load(ss, &error))
                    << f.name << " byte " << pos << " mask " << int(mask);
                EXPECT_FALSE(error.empty())
                    << f.name << " byte " << pos << " mask " << int(mask);
            }
        }
    }
}

TEST(SerializationRobustness, ChecksumErrorNamesTheCorruption) {
    // A body flip (past the 16-byte header) must blame the checksum so an
    // operator knows the payload — not the reader — is at fault.
    for (const Format& f : MakeFormats()) {
        ASSERT_GT(f.bytes.size(), size_t{20}) << f.name;
        std::string mutated = f.bytes;
        const size_t pos = 16 + (f.bytes.size() - 20) / 2;
        mutated[pos] = static_cast<char>(
            static_cast<unsigned char>(mutated[pos]) ^ 0x40);
        std::stringstream ss(mutated);
        std::string error;
        EXPECT_FALSE(f.load(ss, &error)) << f.name;
        EXPECT_NE(error.find("checksum"), std::string::npos)
            << f.name << ": " << error;
    }
}

TEST(SerializationRobustness, EveryTruncationIsDetected) {
    for (const Format& f : MakeFormats()) {
        for (size_t cut = 0; cut < f.bytes.size(); cut += f.flip_stride) {
            std::stringstream ss(f.bytes.substr(0, cut));
            std::string error;
            EXPECT_FALSE(f.load(ss, &error)) << f.name << " cut " << cut;
            EXPECT_FALSE(error.empty()) << f.name << " cut " << cut;
        }
        // Always probe the worst case: everything but the final CRC byte.
        std::stringstream ss(f.bytes.substr(0, f.bytes.size() - 1));
        std::string error;
        EXPECT_FALSE(f.load(ss, &error)) << f.name;
        EXPECT_FALSE(error.empty()) << f.name;
    }
}

TEST(SerializationRobustness, FramesAreSelfDelimiting) {
    // The v3 frame knows its own length, so objects concatenate on one
    // stream (the upload protocol ships key + inputs back to back) and
    // each load consumes exactly its own frame.
    Rng rng(779);
    const Params a = ToyParams();
    const Params b = SmallParams();
    std::stringstream ss;
    SaveParams(ss, a);
    SaveParams(ss, b);
    std::string error;
    auto first = LoadParams(ss, &error);
    ASSERT_TRUE(first.has_value()) << error;
    auto second = LoadParams(ss, &error);
    ASSERT_TRUE(second.has_value()) << error;
    EXPECT_EQ(first->name, a.name);
    EXPECT_EQ(second->name, b.name);
}

TEST(SerializationRobustness, OrThrowRaisesCorruptPayloadError) {
    for (const Format& f : MakeFormats()) {
        std::string mutated = f.bytes;
        mutated[mutated.size() / 2] = static_cast<char>(
            static_cast<unsigned char>(mutated[mutated.size() / 2]) ^ 0x10);
        std::stringstream ss(mutated);
        try {
            f.load_or_throw(ss);
            FAIL() << f.name << ": expected CorruptPayloadError";
        } catch (const CorruptPayloadError& e) {
            EXPECT_FALSE(std::string(e.what()).empty()) << f.name;
        }
    }
}

TEST(SerializationRobustness, LegacyVersion2StillLoads) {
    // Hand-build a v2 stream — magic, version word 2, raw body with no
    // length or checksum — from the v3 frame. Key/ciphertext formats
    // must round-trip it; v3-native records must refuse the downgrade
    // rather than trust an unchecksummed body.
    for (const Format& f : MakeFormats()) {
        ASSERT_GT(f.bytes.size(), size_t{20}) << f.name;
        std::string legacy = f.bytes.substr(0, 4);  // Magic.
        legacy += std::string("\x02\x00\x00\x00", 4);
        // Body: skip magic+version+length (16), drop trailing CRC (4).
        legacy += f.bytes.substr(16, f.bytes.size() - 20);
        std::stringstream ss(legacy);
        std::string error;
        if (f.legacy_v2) {
            EXPECT_TRUE(f.load(ss, &error)) << f.name << ": " << error;
        } else {
            EXPECT_FALSE(f.load(ss, &error)) << f.name;
            EXPECT_FALSE(error.empty()) << f.name;
        }
    }
}

TEST(SerializationRobustness, CorruptBootstrappingKeyNeverDecrypts) {
    // The acceptance scenario: a bit-flipped bootstrapping key file must
    // surface CorruptPayloadError — the server must never construct an
    // evaluator from damaged key material and return wrong plaintexts.
    Rng rng(778);
    SecretKeySet keys(ToyParams(), rng);
    BootstrappingKey bk(keys.params, keys.lwe_key, keys.tlwe_key, rng);
    std::stringstream ss;
    SaveBootstrappingKey(ss, bk);
    std::string bytes = ss.str();
    for (size_t pos : {size_t{17}, bytes.size() / 3, bytes.size() - 2}) {
        std::string mutated = bytes;
        mutated[pos] =
            static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^ 1);
        std::stringstream corrupt(mutated);
        EXPECT_THROW(LoadBootstrappingKeyOrThrow(corrupt),
                     CorruptPayloadError)
            << pos;
    }
}

}  // namespace
}  // namespace pytfhe::tfhe
