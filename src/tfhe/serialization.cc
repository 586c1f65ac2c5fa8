#include "tfhe/serialization.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "tfhe/crc32c.h"

namespace pytfhe::tfhe {

namespace {

// Version 3: CRC32C-framed body (magic, version, u64 length, body, u32
// checksum). Version 4 has the same frame and is written only by the
// object kinds that hold a key-switching key (bootstrapping and
// evaluation keys), whose key-switching section then stores the
// signed-digit rows |v| = 1..B/2 only; every other kind keeps writing
// version 3. Version 2 (unframed FreqPolynomial-folded body) still loads.
// The key-switching key reader tells the signed layout from the v2/v3 one
// (all B rows per digit) by its row count, and drops the rows a signed
// key does not use as it streams.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kSignedKskVersion = 4;
constexpr uint32_t kLegacyVersion = 2;

// Magics, one per object kind.
constexpr uint32_t kMagicParams = 0x50544850;   // "PHTP"
constexpr uint32_t kMagicSample = 0x50544853;   // "SHTP"
constexpr uint32_t kMagicSamples = 0x5054484C;  // "LHTP"
constexpr uint32_t kMagicSecret = 0x5054484B;   // "KHTP"
constexpr uint32_t kMagicBk = 0x50544842;       // "BHTP"
constexpr uint32_t kMagicEk = 0x50544845;       // "EHTP"

/** The framed version an object kind is written at. */
constexpr uint32_t FramedVersion(uint32_t magic) {
    return magic == kMagicBk || magic == kMagicEk ? kSignedKskVersion
                                                  : kVersion;
}

/** Rejects absurd frame lengths before allocating the body buffer. */
constexpr uint64_t kMaxBodyBytes = UINT64_C(1) << 31;

// ------------------------------------------------------- write primitives

void W32(std::ostream& os, uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    os.write(b, 4);
}

void W64(std::ostream& os, uint64_t v) {
    W32(os, static_cast<uint32_t>(v));
    W32(os, static_cast<uint32_t>(v >> 32));
}

void WDouble(std::ostream& os, double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    W64(os, bits);
}

bool R32(std::istream& is, uint32_t* v) {
    char b[4];
    if (!is.read(b, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
        *v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i])) << (8 * i);
    return true;
}

bool R64(std::istream& is, uint64_t* v) {
    uint32_t lo, hi;
    if (!R32(is, &lo) || !R32(is, &hi)) return false;
    *v = lo | (static_cast<uint64_t>(hi) << 32);
    return true;
}

// ------------------------------------------------------------ body reader

/**
 * Cursor over an in-memory body. Every failure records the object section
 * and the body byte offset where parsing stopped, so a diagnostic like
 * "load BootstrappingKey: truncated tgsw row at body offset 1234" points
 * at the corrupt region instead of a bare "failed".
 */
struct Reader {
    const std::string& body;
    const char* section;
    std::string* error;
    size_t pos = 0;

    bool Fail(const std::string& message) {
        if (error)
            *error = std::string("load ") + section + ": " + message +
                     " at body offset " + std::to_string(pos);
        return false;
    }

    bool Bytes(void* out, size_t n, const char* what) {
        if (body.size() - pos < n)
            return Fail(std::string("truncated ") + what);
        std::memcpy(out, body.data() + pos, n);
        pos += n;
        return true;
    }

    bool U32(uint32_t* v, const char* what) {
        unsigned char b[4] = {0, 0, 0, 0};
        if (!Bytes(b, 4, what)) return false;
        *v = 0;
        for (int i = 0; i < 4; ++i)
            *v |= static_cast<uint32_t>(b[i]) << (8 * i);
        return true;
    }

    bool U64(uint64_t* v, const char* what) {
        uint32_t lo, hi;
        if (!U32(&lo, what) || !U32(&hi, what)) return false;
        *v = lo | (static_cast<uint64_t>(hi) << 32);
        return true;
    }

    bool F64(double* v, const char* what) {
        uint64_t bits;
        if (!U64(&bits, what)) return false;
        std::memcpy(v, &bits, 8);
        return true;
    }

    bool String(std::string* out, size_t n, const char* what) {
        if (body.size() - pos < n)
            return Fail(std::string("truncated ") + what);
        out->assign(body.data() + pos, n);
        pos += n;
        return true;
    }

    /** A fully parsed body must leave no unread bytes behind. */
    bool AtEnd() {
        if (pos != body.size())
            return Fail(std::to_string(body.size() - pos) +
                        " trailing bytes after object");
        return true;
    }
};

// ---------------------------------------------------------------- framing

void WriteFramed(std::ostream& os, uint32_t magic, const std::string& body) {
    W32(os, magic);
    W32(os, FramedVersion(magic));
    W64(os, body.size());
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    W32(os, Crc32c(body.data(), body.size()));
}

/**
 * Reads the header and body of one object: validates magic and version,
 * then — for framed versions 3 up to the kind's FramedVersion — the frame
 * length and the CRC32C of the body.
 * Version-2 streams have no frame, so the body is the rest of the stream.
 */
bool ReadFramedBody(std::istream& is, uint32_t magic, const char* section,
                    std::string* body, std::string* error,
                    bool allow_legacy = true) {
    auto fail = [&](const std::string& message) {
        if (error)
            *error = std::string("load ") + section + ": " + message;
        return false;
    };
    uint32_t m, v;
    if (!R32(is, &m) || !R32(is, &v))
        return fail("truncated header at byte offset 0");
    if (m != magic)
        return fail("bad magic (wrong object type?) at byte offset 0");
    if (v == kLegacyVersion && allow_legacy) {
        // Legacy unframed body: everything after the header, no checksum.
        std::ostringstream rest;
        rest << is.rdbuf();
        *body = rest.str();
        return true;
    }
    if (v < kVersion || v > FramedVersion(magic))
        return fail("unsupported version at byte offset 4");
    uint64_t len;
    if (!R64(is, &len))
        return fail("truncated frame length at byte offset 8");
    if (len > kMaxBodyBytes)
        return fail("implausible frame length " + std::to_string(len) +
                    " at byte offset 8");
    body->resize(len);
    if (len > 0 &&
        !is.read(body->data(), static_cast<std::streamsize>(len)))
        return fail("truncated body (frame promises " + std::to_string(len) +
                    " bytes) at byte offset 16");
    uint32_t stored;
    if (!R32(is, &stored))
        return fail("truncated checksum at byte offset " +
                    std::to_string(16 + len));
    const uint32_t computed = Crc32c(body->data(), body->size());
    if (stored != computed)
        return fail("checksum mismatch (stored " + std::to_string(stored) +
                    ", computed " + std::to_string(computed) +
                    ") — corrupt payload");
    return true;
}

// --------------------------------------------------------- raw body codecs

void WriteParamsBody(std::ostream& os, const Params& p) {
    W64(os, p.name.size());
    os.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    W32(os, static_cast<uint32_t>(p.n));
    W32(os, static_cast<uint32_t>(p.big_n));
    W32(os, static_cast<uint32_t>(p.k));
    W32(os, static_cast<uint32_t>(p.bk_l));
    W32(os, static_cast<uint32_t>(p.bk_bg_bit));
    W32(os, static_cast<uint32_t>(p.ks_t));
    W32(os, static_cast<uint32_t>(p.ks_base_bit));
    WDouble(os, p.lwe_noise_stddev);
    WDouble(os, p.tlwe_noise_stddev);
}

bool ReadParamsBody(Reader& r, Params* p) {
    uint64_t name_len;
    if (!r.U64(&name_len, "params name length")) return false;
    if (name_len > 4096) return r.Fail("bad params name");
    if (!r.String(&p->name, name_len, "params name")) return false;
    uint32_t v[7];
    for (auto& x : v)
        if (!r.U32(&x, "params")) return false;
    p->n = static_cast<int32_t>(v[0]);
    p->big_n = static_cast<int32_t>(v[1]);
    p->k = static_cast<int32_t>(v[2]);
    p->bk_l = static_cast<int32_t>(v[3]);
    p->bk_bg_bit = static_cast<int32_t>(v[4]);
    p->ks_t = static_cast<int32_t>(v[5]);
    p->ks_base_bit = static_cast<int32_t>(v[6]);
    if (!r.F64(&p->lwe_noise_stddev, "params noise") ||
        !r.F64(&p->tlwe_noise_stddev, "params noise"))
        return false;
    if (p->n <= 0 || p->big_n <= 0 || (p->big_n & (p->big_n - 1)) != 0 ||
        p->k <= 0 || p->bk_l <= 0 || p->bk_bg_bit <= 0)
        return r.Fail("invalid parameter values");
    return true;
}

void WriteSampleBody(std::ostream& os, const LweSample& s) {
    W64(os, s.a.size());
    for (Torus32 t : s.a) W32(os, t);
    W32(os, s.b);
}

bool ReadSampleBody(Reader& r, LweSample* s) {
    uint64_t n;
    if (!r.U64(&n, "sample dimension")) return false;
    if (n > (UINT64_C(1) << 24)) return r.Fail("bad sample dimension");
    s->a.resize(n);
    for (auto& t : s->a)
        if (!r.U32(&t, "sample")) return false;
    if (!r.U32(&s->b, "sample body")) return false;
    return true;
}

void WriteIntPoly(std::ostream& os, const IntPolynomial& p) {
    W64(os, p.coefs.size());
    for (int32_t c : p.coefs) W32(os, static_cast<uint32_t>(c));
}

bool ReadIntPoly(Reader& r, IntPolynomial* p) {
    uint64_t n;
    if (!r.U64(&n, "polynomial size")) return false;
    if (n > (UINT64_C(1) << 24)) return r.Fail("bad polynomial size");
    p->coefs.resize(n);
    for (auto& c : p->coefs) {
        uint32_t v;
        if (!r.U32(&v, "polynomial")) return false;
        c = static_cast<int32_t>(v);
    }
    return true;
}

/**
 * Writes one FFT-domain polynomial in natural slot order: evaluation m,
 * which the kernel keeps in slot slots[m] (BitReversedSlots), goes m-th.
 */
void WriteFreqPoly(std::ostream& os, const FreqPolynomial& f,
                   const std::vector<int32_t>& slots) {
    const int32_t half = f.HalfSize();
    W64(os, static_cast<uint64_t>(half));
    const double* re = f.Re();
    const double* im = f.Im();
    for (int32_t m = 0; m < half; ++m) WDouble(os, re[slots[m]]);
    for (int32_t m = 0; m < half; ++m) WDouble(os, im[slots[m]]);
}

/**
 * Reads one natural-order FFT-domain polynomial of `half` slots into the
 * kernel's bit-reversed order (`slots` = BitReversedSlots(half)).
 */
bool ReadFreqPoly(Reader& r, FreqPolynomial* f,
                  const std::vector<int32_t>& slots) {
    uint64_t n;
    if (!r.U64(&n, "frequency polynomial size")) return false;
    if (n != slots.size()) return r.Fail("bad frequency polynomial size");
    f->ResizeHalf(static_cast<int32_t>(n));
    double* re = f->Re();
    double* im = f->Im();
    for (uint64_t m = 0; m < n; ++m)
        if (!r.F64(&re[slots[m]], "freq poly")) return false;
    for (uint64_t m = 0; m < n; ++m)
        if (!r.F64(&im[slots[m]], "freq poly")) return false;
    return true;
}

void WriteBkBody(std::ostream& body, const BootstrappingKey& key) {
    WriteParamsBody(body, key.params());
    const std::vector<int32_t> slots = BitReversedSlots(key.fft().Half());
    W64(body, key.bk().size());
    for (const TGswSampleFft& s : key.bk()) {
        W32(body, static_cast<uint32_t>(s.l));
        W32(body, static_cast<uint32_t>(s.bg_bit));
        W64(body, s.rows.size());
        for (const auto& row : s.rows) {
            W64(body, row.size());
            for (const auto& f : row) WriteFreqPoly(body, f, slots);
        }
    }
    // Key-switching key: shape, row count, then each row (i, j, v) in slab
    // order as a sample body (u64 dimension, mask words, body word).
    const KeySwitchKey& ksk = key.ksk();
    W32(body, static_cast<uint32_t>(ksk.InputN()));
    W32(body, static_cast<uint32_t>(ksk.OutputN()));
    W32(body, static_cast<uint32_t>(ksk.T()));
    W32(body, static_cast<uint32_t>(ksk.BaseBit()));
    W64(body, ksk.NumRows());
    const int32_t n_out = ksk.OutputN();
    for (int32_t i = 0; i < ksk.InputN(); ++i)
        for (int32_t j = 0; j < ksk.T(); ++j)
            for (int32_t v = 1; v <= ksk.RowsPerDigit(); ++v) {
                const Torus32* row = ksk.Row(i, j, v);
                W64(body, static_cast<uint64_t>(n_out));
                for (int32_t c = 0; c <= n_out; ++c) W32(body, row[c]);
            }
}

/**
 * Streams the key-switching key section into its slab. A signed key (v4)
 * stores rows |v| = 1..B/2 per digit; a v2/v3 key stores v = 0..B-1, of
 * which rows 1..B/2 encrypt exactly the signed key's messages and the rest
 * are skipped.
 */
std::optional<KeySwitchKey> ReadKskBody(Reader& r, const Params& p) {
    uint32_t n_in, n_out, t, base_bit;
    uint64_t count;
    if (!r.U32(&n_in, "key-switching key header") ||
        !r.U32(&n_out, "key-switching key header") ||
        !r.U32(&t, "key-switching key header") ||
        !r.U32(&base_bit, "key-switching key header") ||
        !r.U64(&count, "key-switching key header"))
        return std::nullopt;
    // k * N in 64 bits: the parameters come from the same untrusted body.
    if (n_in != static_cast<uint64_t>(p.k) * static_cast<uint64_t>(p.big_n) ||
        n_out != static_cast<uint32_t>(p.n) ||
        n_out > static_cast<uint32_t>(KeySwitchKey::kMaxOutputN) ||
        t == 0 || t >= 32 || base_bit == 0 || base_bit >= 32 ||
        t * base_bit >= 32) {
        r.Fail("bad key-switching key shape");
        return std::nullopt;
    }
    const uint64_t digits = static_cast<uint64_t>(n_in) * t;
    const uint32_t base = UINT32_C(1) << base_bit;
    const uint32_t half = base / 2;
    const bool legacy = count == digits * base;
    if (!legacy && count != digits * half) {
        r.Fail("key-switching key size mismatch");
        return std::nullopt;
    }
    const uint64_t row_bytes = 8 + 4 * (static_cast<uint64_t>(n_out) + 1);
    if ((r.body.size() - r.pos) / row_bytes < count) {
        r.Fail("truncated key-switching key");
        return std::nullopt;
    }
    KeySwitchKey ksk(static_cast<int32_t>(n_in), static_cast<int32_t>(n_out),
                     static_cast<int32_t>(t),
                     static_cast<int32_t>(base_bit));
    const uint32_t v_first = legacy ? 0 : 1;
    const uint32_t v_last = legacy ? base - 1 : half;
    for (uint32_t i = 0; i < n_in; ++i)
        for (uint32_t j = 0; j < t; ++j)
            for (uint32_t v = v_first; v <= v_last; ++v) {
                uint64_t dim;
                if (!r.U64(&dim, "key-switching row dimension"))
                    return std::nullopt;
                if (dim != n_out) {
                    r.Fail("bad key-switching row dimension");
                    return std::nullopt;
                }
                if (v == 0 || v > half) {
                    r.pos += row_bytes - 8;  // Unused by a signed key.
                    continue;
                }
                Torus32* row = ksk.MutableRow(static_cast<int32_t>(i),
                                              static_cast<int32_t>(j),
                                              static_cast<int32_t>(v));
                for (uint32_t c = 0; c <= n_out; ++c)
                    if (!r.U32(&row[c], "key-switching row"))
                        return std::nullopt;
            }
    return ksk;
}

std::optional<BootstrappingKey> ReadBkBody(Reader& r) {
    Params p;
    if (!ReadParamsBody(r, &p)) return std::nullopt;

    uint64_t bk_size;
    if (!r.U64(&bk_size, "bootstrapping key size")) return std::nullopt;
    if (bk_size != static_cast<uint64_t>(p.n)) {
        r.Fail("bootstrapping key size mismatch");
        return std::nullopt;
    }
    // The bootstrapping key's polynomials have N/2 slots, N <= 2^25.
    if (p.big_n < 2 || p.big_n > (INT32_C(1) << 25)) {
        r.Fail("bad frequency polynomial size");
        return std::nullopt;
    }
    const std::vector<int32_t> slots = BitReversedSlots(p.big_n / 2);
    std::vector<TGswSampleFft> bk(bk_size);
    for (auto& s : bk) {
        uint32_t l, bg_bit;
        uint64_t rows;
        if (!r.U32(&l, "tgsw sample") || !r.U32(&bg_bit, "tgsw sample") ||
            !r.U64(&rows, "tgsw sample"))
            return std::nullopt;
        if (rows > 1024) {
            r.Fail("bad tgsw row count");
            return std::nullopt;
        }
        s.l = static_cast<int32_t>(l);
        s.bg_bit = static_cast<int32_t>(bg_bit);
        s.rows.resize(rows);
        for (auto& row : s.rows) {
            uint64_t cols;
            if (!r.U64(&cols, "tgsw row")) return std::nullopt;
            if (cols > 64) {
                r.Fail("bad tgsw column count");
                return std::nullopt;
            }
            row.resize(cols);
            for (auto& f : row)
                if (!ReadFreqPoly(r, &f, slots)) return std::nullopt;
        }
    }

    std::optional<KeySwitchKey> ksk = ReadKskBody(r, p);
    if (!ksk) return std::nullopt;
    return BootstrappingKey(p, std::move(bk), *std::move(ksk));
}

}  // namespace

void SaveParams(std::ostream& os, const Params& params) {
    std::ostringstream body;
    WriteParamsBody(body, params);
    WriteFramed(os, kMagicParams, body.str());
}

std::optional<Params> LoadParams(std::istream& is, std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicParams, "Params", &body, error))
        return std::nullopt;
    Reader r{body, "Params", error};
    Params p;
    if (!ReadParamsBody(r, &p) || !r.AtEnd()) return std::nullopt;
    return p;
}

void SaveLweSample(std::ostream& os, const LweSample& sample) {
    std::ostringstream body;
    WriteSampleBody(body, sample);
    WriteFramed(os, kMagicSample, body.str());
}

std::optional<LweSample> LoadLweSample(std::istream& is, std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicSample, "LweSample", &body, error))
        return std::nullopt;
    Reader r{body, "LweSample", error};
    LweSample s;
    if (!ReadSampleBody(r, &s) || !r.AtEnd()) return std::nullopt;
    return s;
}

void SaveLweSamples(std::ostream& os, const std::vector<LweSample>& samples) {
    std::ostringstream body;
    W64(body, samples.size());
    for (const auto& s : samples) WriteSampleBody(body, s);
    WriteFramed(os, kMagicSamples, body.str());
}

std::optional<std::vector<LweSample>> LoadLweSamples(std::istream& is,
                                                     std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicSamples, "LweSamples", &body, error))
        return std::nullopt;
    Reader r{body, "LweSamples", error};
    uint64_t count;
    if (!r.U64(&count, "sample count")) return std::nullopt;
    if (count > (UINT64_C(1) << 28)) {
        r.Fail("bad sample count");
        return std::nullopt;
    }
    std::vector<LweSample> out(count);
    for (auto& s : out)
        if (!ReadSampleBody(r, &s)) return std::nullopt;
    if (!r.AtEnd()) return std::nullopt;
    return out;
}

void SaveSecretKeySet(std::ostream& os, const SecretKeySet& keys) {
    std::ostringstream body;
    WriteParamsBody(body, keys.params);
    W64(body, keys.lwe_key.key.size());
    for (int32_t bit : keys.lwe_key.key) W32(body, static_cast<uint32_t>(bit));
    W64(body, keys.tlwe_key.key.size());
    for (const auto& poly : keys.tlwe_key.key) WriteIntPoly(body, poly);
    WriteFramed(os, kMagicSecret, body.str());
}

std::optional<SecretKeySet> LoadSecretKeySet(std::istream& is,
                                             std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicSecret, "SecretKeySet", &body, error))
        return std::nullopt;
    Reader r{body, "SecretKeySet", error};
    Params p;
    if (!ReadParamsBody(r, &p)) return std::nullopt;
    uint64_t n;
    if (!r.U64(&n, "lwe key size")) return std::nullopt;
    if (n != static_cast<uint64_t>(p.n)) {
        r.Fail("lwe key dimension mismatch");
        return std::nullopt;
    }
    LweKey lwe;
    lwe.key.resize(n);
    for (auto& bit : lwe.key) {
        uint32_t v;
        if (!r.U32(&v, "lwe key")) return std::nullopt;
        bit = static_cast<int32_t>(v);
    }
    uint64_t k;
    if (!r.U64(&k, "tlwe key size")) return std::nullopt;
    if (k != static_cast<uint64_t>(p.k)) {
        r.Fail("tlwe key size mismatch");
        return std::nullopt;
    }
    TLweKey tlwe;
    tlwe.key.resize(k);
    for (auto& poly : tlwe.key)
        if (!ReadIntPoly(r, &poly)) return std::nullopt;
    if (!r.AtEnd()) return std::nullopt;
    return SecretKeySet(std::move(p), std::move(lwe), std::move(tlwe));
}

void SaveBootstrappingKey(std::ostream& os, const BootstrappingKey& key) {
    std::ostringstream body;
    WriteBkBody(body, key);
    WriteFramed(os, kMagicBk, body.str());
}

std::optional<BootstrappingKey> LoadBootstrappingKey(std::istream& is,
                                                     std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicBk, "BootstrappingKey", &body, error))
        return std::nullopt;
    Reader r{body, "BootstrappingKey", error};
    std::optional<BootstrappingKey> key = ReadBkBody(r);
    if (!key || !r.AtEnd()) return std::nullopt;
    return key;
}

void SaveEvaluationKey(std::ostream& os, const BootstrappingKey& key,
                       KeyId key_id) {
    std::ostringstream body;
    W64(body, key_id.value);
    WriteBkBody(body, key);
    WriteFramed(os, kMagicEk, body.str());
}

std::optional<EvaluationKeyArtifact> LoadEvaluationKey(std::istream& is,
                                                       std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, kMagicEk, "EvaluationKey", &body, error))
        return std::nullopt;
    Reader r{body, "EvaluationKey", error};
    KeyId id;
    if (!r.U64(&id.value, "key id")) return std::nullopt;
    if (!id.IsSet()) {
        r.Fail("unset key id");
        return std::nullopt;
    }
    std::optional<BootstrappingKey> key = ReadBkBody(r);
    if (!key || !r.AtEnd()) return std::nullopt;
    return EvaluationKeyArtifact{id, *std::move(key)};
}

void SaveFramedRecord(std::ostream& os, uint32_t magic,
                      const std::string& body) {
    WriteFramed(os, magic, body);
}

std::optional<std::string> LoadFramedRecord(std::istream& is, uint32_t magic,
                                            const char* section,
                                            std::string* error) {
    std::string body;
    if (!ReadFramedBody(is, magic, section, &body, error,
                        /*allow_legacy=*/false))
        return std::nullopt;
    return body;
}

}  // namespace pytfhe::tfhe
