/**
 * @file
 * Bootstrapped homomorphic gates over LWE samples.
 *
 * Bits are encoded as torus messages -1/8 (false) and +1/8 (true). Each
 * two-input gate computes a public linear combination of the inputs whose
 * phase sign equals the gate output, then bootstraps to refresh noise.
 * NOT/COPY/CONSTANT are noiseless linear operations.
 *
 * The gate set matches the 11 gate types of the PyTFHE binary format:
 * NOT, AND, NAND, OR, NOR, XNOR, XOR, ANDNY, ANDYN, ORNY, ORYN (XOR = 6,
 * per Fig. 5/6 of the paper). MUX is provided as the standard TFHE
 * two-bootstrap composition and is lowered to the binary gate set by the
 * compiler frontend.
 */
#ifndef PYTFHE_TFHE_GATES_H
#define PYTFHE_TFHE_GATES_H

#include <atomic>
#include <memory>
#include <string>

#include "tfhe/bootstrap.h"
#include "tfhe/bootstrap_batch.h"

namespace pytfhe::tfhe {

/**
 * +1/8 on the discretized torus: the gate-domain bit encoding (+-kGateMu)
 * and the bootstrap target of every two-input gate. Exported so batch
 * dispatchers can form gate linear preludes outside the evaluator.
 */
constexpr Torus32 kGateMu = UINT32_C(1) << 29;
/** +1/4: the linear-domain encoding and the XOR-family prelude offset. */
constexpr Torus32 kGateQuarter = UINT32_C(1) << 30;

/**
 * Stable identity of one client's key material: an FNV-1a digest of the
 * parameter set plus the secret key bits the evaluation key was derived
 * from. Every evaluation key generated from the same SecretKeySet hashes
 * to the same KeyId (regeneration randomness does not enter the hash), so
 * a client and the server it provisioned always agree on the id, and a
 * serving registry can reject a job submitted against the wrong tenant's
 * keys with a clear error instead of returning garbage decryptions.
 * value == 0 means "no identity attached" (e.g. a key loaded from disk
 * without one).
 */
struct KeyId {
    uint64_t value = 0;

    bool IsSet() const { return value != 0; }
    /** Hex rendering for error messages, e.g. "key:4f1d22ab90c3e877". */
    std::string ToString() const;

    friend bool operator==(const KeyId& a, const KeyId& b) {
        return a.value == b.value;
    }
    friend bool operator!=(const KeyId& a, const KeyId& b) {
        return a.value != b.value;
    }
};

struct SecretKeySet;

/** Digest of `secret`'s params + key bits; never returns an unset id. */
KeyId ComputeKeyId(const SecretKeySet& secret);

/**
 * Linear-domain gates: XOR/XNOR/NOT evaluated as pure LWE sample
 * combinations — no blind rotate, no key switch, no noise refresh.
 *
 * Outputs use the *linear* bit encoding false = -1/4, true = +1/4 (the
 * gate encoding is +-1/8). The `a_linear`/`b_linear` flags say which
 * encoding each operand uses; a gate-domain operand enters with
 * coefficient 2, a linear-domain one with coefficient 1, so
 *   LweLinearXor  = c_a*a + c_b*b + 1/4,
 *   LweLinearXnor = c_a*a + c_b*b - 1/4,
 * both exact on the torus for every operand-domain mix. Noise adds as
 * c_a^2 var(a) + c_b^2 var(b); the bootstrap-elision pass
 * (circuit/opt/passes.h) bounds the accumulated variance. Linear-domain
 * bits decrypt by phase sign, same as gate-domain ones.
 */
LweSample LweLinearXor(const LweSample& a, bool a_linear, const LweSample& b,
                       bool b_linear);
LweSample LweLinearXnor(const LweSample& a, bool a_linear, const LweSample& b,
                        bool b_linear);
/** NOT of a linear-domain sample: plain negation, stays linear-domain. */
LweSample LweLinearNot(const LweSample& a);

/** Client-side key material. */
struct SecretKeySet {
    Params params;
    LweKey lwe_key;
    TLweKey tlwe_key;

    SecretKeySet(const Params& p, Rng& rng)
        : params(p), lwe_key(p.n, rng), tlwe_key(p.big_n, p.k, rng) {}

    /** Reconstructs from serialized parts (see tfhe/serialization.h). */
    SecretKeySet(Params p, LweKey lwe, TLweKey tlwe)
        : params(std::move(p)),
          lwe_key(std::move(lwe)),
          tlwe_key(std::move(tlwe)) {}

    /** Encrypts one bit for upload. */
    LweSample Encrypt(bool bit, Rng& rng) const {
        return LweEncryptBit(bit, params.lwe_noise_stddev, lwe_key, rng);
    }

    /** Decrypts one result bit. */
    bool Decrypt(const LweSample& s) const {
        return LweDecryptBit(s, lwe_key);
    }
};

/** Plain copyable snapshot of a GateProfile at one point in time. */
struct GateProfileSnapshot {
    double linear_seconds = 0.0;       ///< LWE linear combinations.
    double blind_rotate_seconds = 0.0; ///< Blind rotation + extraction.
    double key_switch_seconds = 0.0;   ///< Key switching.
    uint64_t bootstrap_count = 0;

    double TotalSeconds() const {
        return linear_seconds + blind_rotate_seconds + key_switch_seconds;
    }
};

/**
 * Wall-clock breakdown of gate evaluation, for Fig. 7 style profiling.
 *
 * Counters are atomics updated with relaxed ordering: gate evaluation runs
 * concurrently under the threaded backends, and relaxed adds keep the
 * totals exact (each increment happens exactly once) without ordering any
 * other memory. Time accumulates in integer nanoseconds because atomic
 * float addition is not lock-free everywhere. Take a Snapshot() for a
 * copyable view.
 */
class GateProfile {
  public:
    GateProfile() = default;
    GateProfile(const GateProfile&) = delete;
    GateProfile& operator=(const GateProfile&) = delete;

    void AddLinearNanos(uint64_t ns) { Add(linear_ns_, ns); }
    void AddBlindRotateNanos(uint64_t ns) { Add(blind_rotate_ns_, ns); }
    void AddKeySwitchNanos(uint64_t ns) { Add(key_switch_ns_, ns); }
    void AddBootstraps(uint64_t n) { Add(bootstraps_, n); }

    double linear_seconds() const { return 1e-9 * Load(linear_ns_); }
    double blind_rotate_seconds() const {
        return 1e-9 * Load(blind_rotate_ns_);
    }
    double key_switch_seconds() const { return 1e-9 * Load(key_switch_ns_); }
    uint64_t bootstrap_count() const { return Load(bootstraps_); }

    double TotalSeconds() const {
        return linear_seconds() + blind_rotate_seconds() +
               key_switch_seconds();
    }

    GateProfileSnapshot Snapshot() const {
        return GateProfileSnapshot{linear_seconds(), blind_rotate_seconds(),
                                   key_switch_seconds(), bootstrap_count()};
    }

    void Reset() {
        linear_ns_.store(0, std::memory_order_relaxed);
        blind_rotate_ns_.store(0, std::memory_order_relaxed);
        key_switch_ns_.store(0, std::memory_order_relaxed);
        bootstraps_.store(0, std::memory_order_relaxed);
    }

  private:
    static void Add(std::atomic<uint64_t>& c, uint64_t v) {
        c.fetch_add(v, std::memory_order_relaxed);
    }
    static uint64_t Load(const std::atomic<uint64_t>& c) {
        return c.load(std::memory_order_relaxed);
    }

    std::atomic<uint64_t> linear_ns_{0};
    std::atomic<uint64_t> blind_rotate_ns_{0};
    std::atomic<uint64_t> key_switch_ns_{0};
    std::atomic<uint64_t> bootstraps_{0};
};

/**
 * Server-side gate evaluator holding the public evaluation key.
 * All gate methods are const with respect to key material and safe to call
 * concurrently; the profile is atomic accounting only.
 */
class GateEvaluator {
  public:
    /** Generates the evaluation key from the client's secret keys. */
    GateEvaluator(const SecretKeySet& secret, Rng& rng)
        : key_(std::make_shared<BootstrappingKey>(
              secret.params, secret.lwe_key, secret.tlwe_key, rng)),
          key_id_(ComputeKeyId(secret)) {}

    /**
     * Wraps an existing evaluation key (e.g. loaded from disk). Pass the
     * KeyId recorded alongside the key when it is known; the default leaves
     * the evaluator without an identity (key_id().IsSet() == false), which
     * a serving registry will refuse to register.
     */
    explicit GateEvaluator(std::shared_ptr<BootstrappingKey> key,
                           KeyId key_id = {})
        : key_(std::move(key)), key_id_(key_id) {}

    const Params& params() const { return key_->params(); }
    const BootstrappingKey& key() const { return *key_; }

    /** Stable identity of the key material (see KeyId). */
    KeyId key_id() const { return key_id_; }

    GateProfile& profile() { return profile_; }
    const GateProfile& profile() const { return profile_; }

    /** Noiseless gates. */
    LweSample Constant(bool value) const;
    LweSample Not(const LweSample& a) const;
    LweSample Copy(const LweSample& a) const { return a; }

    /**
     * Bootstrapped two-input gates. The optional scratch is reused across
     * calls (one per worker thread) to keep bootstrapping allocation-free.
     */
    LweSample And(const LweSample& a, const LweSample& b,
                  BootstrapScratch* scratch = nullptr);
    LweSample Nand(const LweSample& a, const LweSample& b,
                   BootstrapScratch* scratch = nullptr);
    LweSample Or(const LweSample& a, const LweSample& b,
                 BootstrapScratch* scratch = nullptr);
    LweSample Nor(const LweSample& a, const LweSample& b,
                  BootstrapScratch* scratch = nullptr);
    LweSample Xor(const LweSample& a, const LweSample& b,
                  BootstrapScratch* scratch = nullptr);
    LweSample Xnor(const LweSample& a, const LweSample& b,
                   BootstrapScratch* scratch = nullptr);

    /**
     * XOR/XNOR with operand-domain flags: a linear-domain operand (output
     * of an elided gate, encoding +-1/4) is absorbed with coefficient 1
     * instead of 2 before the sign bootstrap. Output is gate-domain.
     */
    LweSample Xor(const LweSample& a, bool a_linear, const LweSample& b,
                  bool b_linear, BootstrapScratch* scratch = nullptr);
    LweSample Xnor(const LweSample& a, bool a_linear, const LweSample& b,
                   bool b_linear, BootstrapScratch* scratch = nullptr);

    /**
     * Elided gates (see LweLinearXor above): same results, but routed
     * through the evaluator so the time lands in profile().linear_seconds.
     */
    LweSample LinXor(const LweSample& a, bool a_linear, const LweSample& b,
                     bool b_linear);
    LweSample LinXnor(const LweSample& a, bool a_linear, const LweSample& b,
                      bool b_linear);
    LweSample LinNot(const LweSample& a);
    /** NOT(a) AND b. */
    LweSample AndNY(const LweSample& a, const LweSample& b,
                    BootstrapScratch* scratch = nullptr);
    /** a AND NOT(b). */
    LweSample AndYN(const LweSample& a, const LweSample& b,
                    BootstrapScratch* scratch = nullptr);
    /** NOT(a) OR b. */
    LweSample OrNY(const LweSample& a, const LweSample& b,
                   BootstrapScratch* scratch = nullptr);
    /** a OR NOT(b). */
    LweSample OrYN(const LweSample& a, const LweSample& b,
                   BootstrapScratch* scratch = nullptr);

    /** a ? b : c, two bootstraps plus one key switch. */
    LweSample Mux(const LweSample& a, const LweSample& b, const LweSample& c,
                  BootstrapScratch* scratch = nullptr);

    /**
     * Evaluates `count` bootstrapped gates through one batched blind
     * rotation (see bootstrap_batch.h): linear preludes per spec, one
     * structure-of-arrays rotation sharing every key row across lanes, then
     * a per-lane key switch. Bit-exact per gate vs the scalar gate methods.
     * Spec outputs must not alias spec inputs of the same call.
     */
    void BatchedLinearBootstrap(const BatchGateSpec* specs, int32_t count,
                                BatchScratch* scratch = nullptr);

    /**
     * View flavor: lanes gather from / scatter to caller-owned slots, and
     * an out view may alias any input view of the call. Lanes with a
     * `lut` are weighted LUT gates riding the same rotation (this is
     * BatchedLutBootstrapInto of tfhe/multibit.h).
     */
    void BatchedLinearBootstrap(const BatchGateViewSpec* specs, int32_t count,
                                BatchScratch* scratch = nullptr);

    /**
     * Allocation-free bootstrapped gate over caller-owned storage: the
     * linear prelude coef_a*a + coef_b*b + offset lands in the scratch,
     * is bootstrapped to +-kGateMu, and key-switched into `out`. Inputs
     * are fully read before `out` is written, so `out` may alias either
     * input. Zero heap allocations when `scratch` is warm.
     */
    void LinearBootstrapInto(int32_t coef_a, LweCView a, int32_t coef_b,
                             LweCView b, Torus32 offset, LweView out,
                             BootstrapScratch* scratch = nullptr);

    /**
     * Profiled linear-domain combination into caller-owned storage (the
     * elided XOR/XNOR path); elementwise, so `out` may alias an input.
     */
    void LinCombineInto(int32_t coef_a, LweCView a, int32_t coef_b,
                        LweCView b, Torus32 offset, LweView out);

    /** NOT into caller-owned storage; `out` may alias `a`. */
    void NotInto(LweCView a, LweView out) const { LweNegateInto(a, out); }

    /** Elided-NOT flavor of NotInto: time lands in the linear profile. */
    void LinNotInto(LweCView a, LweView out);

  private:
    /**
     * Evaluates a gate whose linear part is coef_a*a + coef_b*b + offset,
     * followed by a bootstrap to +-1/8. AND-family gates use +-1
     * coefficients; XOR/XNOR use +-2 for gate-domain operands and +-1 for
     * linear-domain ones.
     */
    LweSample LinearBootstrap(int32_t coef_a, const LweSample& a,
                              int32_t coef_b, const LweSample& b,
                              Torus32 offset, BootstrapScratch* scratch);

    std::shared_ptr<BootstrappingKey> key_;
    KeyId key_id_;
    GateProfile profile_;
};

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_GATES_H
