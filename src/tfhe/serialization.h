/**
 * @file
 * Binary serialization for key material and ciphertexts.
 *
 * The cloud protocol of Fig. 1 ships data between machines: the client
 * uploads ciphertexts and the public evaluation key, the server returns
 * result ciphertexts. This module provides versioned little-endian
 * encodings for every transferable object. Secret keys serialize too (for
 * client-side persistence) — never send those to the server.
 *
 * Wire format (version 3): 4-byte magic, 4-byte version, 8-byte body
 * length, body, 4-byte CRC32C of the body. The checksum catches the
 * corruption a network or disk can silently introduce — a bit-flipped
 * bootstrapping key would otherwise decrypt to wrong plaintexts with no
 * diagnostic. Bootstrapping and evaluation keys are written at version 4:
 * the same frame, with the signed-digit key-switching key
 * (tfhe/keyswitch.h). Version-3 keys (all B rows per digit) and
 * version-2 files (unframed body, no checksum) still load.
 *
 * Every Load* validates the frame and returns nullopt on failure with an
 * error string naming the object section and the byte offset of the
 * problem. The Load*OrThrow wrappers raise the typed CorruptPayloadError
 * instead, for call sites that prefer exceptions over optionals.
 */
#ifndef PYTFHE_TFHE_SERIALIZATION_H
#define PYTFHE_TFHE_SERIALIZATION_H

#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tfhe/bootstrap.h"
#include "tfhe/gates.h"

namespace pytfhe::tfhe {

/**
 * A serialized payload failed to load: truncated, bit-flipped (checksum
 * mismatch), wrong object type, or structurally invalid. The message is
 * the same offset-bearing diagnostic the optional-returning Load*
 * functions report through their error out-parameter.
 */
class CorruptPayloadError : public std::runtime_error {
  public:
    explicit CorruptPayloadError(const std::string& what)
        : std::runtime_error(what) {}
};

void SaveParams(std::ostream& os, const Params& params);
std::optional<Params> LoadParams(std::istream& is,
                                 std::string* error = nullptr);

void SaveLweSample(std::ostream& os, const LweSample& sample);
std::optional<LweSample> LoadLweSample(std::istream& is,
                                       std::string* error = nullptr);

/** Batch of ciphertexts (the wire format for program inputs/outputs). */
void SaveLweSamples(std::ostream& os, const std::vector<LweSample>& samples);
std::optional<std::vector<LweSample>> LoadLweSamples(
    std::istream& is, std::string* error = nullptr);

/** Client-side secret key bundle. KEEP PRIVATE. */
void SaveSecretKeySet(std::ostream& os, const SecretKeySet& keys);
std::optional<SecretKeySet> LoadSecretKeySet(std::istream& is,
                                             std::string* error = nullptr);

/**
 * Public evaluation key: parameters, the FFT-domain bootstrapping key, and
 * the key-switching key. This is what the client uploads once.
 */
void SaveBootstrappingKey(std::ostream& os, const BootstrappingKey& key);
std::optional<BootstrappingKey> LoadBootstrappingKey(
    std::istream& is, std::string* error = nullptr);

/**
 * Evaluation-key artifact: the KeyId plus the full public evaluation key
 * in one CRC32C-framed payload. This is the unit a serving key cache
 * evicts to disk and lazily reloads — the id must ride inside the frame
 * so a reloaded key keeps the tenant identity the registry indexes by
 * (a bare BootstrappingKey file loads with no identity and a registry
 * would refuse it).
 */
struct EvaluationKeyArtifact {
    KeyId key_id;
    BootstrappingKey key;
};

void SaveEvaluationKey(std::ostream& os, const BootstrappingKey& key,
                       KeyId key_id);
std::optional<EvaluationKeyArtifact> LoadEvaluationKey(
    std::istream& is, std::string* error = nullptr);

/**
 * Generic framed-record escape hatch for higher layers that define their
 * own body encodings (e.g. backend job checkpoints): wraps `body` in the
 * same frame (magic, version, u64 length, body, CRC32C) every typed
 * Save* above uses, so per-byte corruption and truncation are
 * detected identically. `section` names the record kind in diagnostics.
 * Unlike the key/ciphertext loaders, records reject legacy version-2
 * (unchecksummed) frames: new record kinds never shipped without a CRC,
 * so an un-checksummed body is corruption, not compatibility.
 */
void SaveFramedRecord(std::ostream& os, uint32_t magic,
                      const std::string& body);
std::optional<std::string> LoadFramedRecord(std::istream& is, uint32_t magic,
                                            const char* section,
                                            std::string* error = nullptr);

namespace detail {
template <typename T, typename LoadFn>
T LoadOrThrowImpl(std::istream& is, LoadFn load) {
    std::string error;
    std::optional<T> value = load(is, &error);
    if (!value) throw CorruptPayloadError(error);
    return *std::move(value);
}
}  // namespace detail

/** Throwing variants: CorruptPayloadError instead of nullopt. */
inline Params LoadParamsOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<Params>(is, LoadParams);
}
inline LweSample LoadLweSampleOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<LweSample>(is, LoadLweSample);
}
inline std::vector<LweSample> LoadLweSamplesOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<std::vector<LweSample>>(is,
                                                           LoadLweSamples);
}
inline SecretKeySet LoadSecretKeySetOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<SecretKeySet>(is, LoadSecretKeySet);
}
inline BootstrappingKey LoadBootstrappingKeyOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<BootstrappingKey>(is,
                                                     LoadBootstrappingKey);
}
inline EvaluationKeyArtifact LoadEvaluationKeyOrThrow(std::istream& is) {
    return detail::LoadOrThrowImpl<EvaluationKeyArtifact>(is,
                                                          LoadEvaluationKey);
}
inline std::string LoadFramedRecordOrThrow(std::istream& is, uint32_t magic,
                                           const char* section) {
    std::string error;
    std::optional<std::string> body =
        LoadFramedRecord(is, magic, section, &error);
    if (!body) throw CorruptPayloadError(error);
    return *std::move(body);
}

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_SERIALIZATION_H
