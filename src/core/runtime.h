/**
 * @file
 * Client/server runtime roles for the cloud scenario of Fig. 1.
 *
 * The Client owns the secret key: it encodes and encrypts data, ships the
 * public evaluation key, and decrypts results. The Server holds only the
 * evaluation key and executes compiled programs over ciphertexts — it
 * never sees a plaintext. Tests assert this split by construction: Server
 * has no decrypt path.
 *
 * Server::Run is the blocking single-request call of the paper's Fig. 1
 * scenario; the multi-tenant asynchronous path (many clients, one shared
 * worker pool) is core::Service in service.h.
 */
#ifndef PYTFHE_CORE_RUNTIME_H
#define PYTFHE_CORE_RUNTIME_H

#include <memory>
#include <vector>

#include "backend/execute.h"
#include "backend/executor.h"
#include "backend/interpreter.h"
#include "hdl/dtype.h"
#include "tfhe/gates.h"

namespace pytfhe::core {

using Ciphertexts = std::vector<tfhe::LweSample>;
using tfhe::KeyId;

/**
 * Per-request knobs for Server::Run and Service::Submit.
 *
 * - num_threads: workers for this run (Server::Run only — a Service
 *   schedules on its shared pool and ignores it).
 * - deadline_seconds: wall-clock budget, 0 = unlimited. Enforced
 *   cooperatively at gate granularity; an expired run throws (Server::Run)
 *   or resolves the job kDeadlineExceeded (Service).
 * - profile: when true, Server::Run records the per-run gate profile
 *   delta, retrievable via Server::last_run_profile(). Service jobs get
 *   per-job metrics on their handle regardless.
 */
struct RunOptions {
    int32_t num_threads = 1;
    double deadline_seconds = 0.0;
    bool profile = false;
};

class Server;

/** The data owner. */
class Client {
  public:
    explicit Client(const tfhe::Params& params, uint64_t seed = 1)
        : rng_(seed),
          secret_(params, rng_),
          key_id_(tfhe::ComputeKeyId(secret_)) {}

    /** Encrypts raw bits. */
    Ciphertexts EncryptBits(const std::vector<bool>& bits);

    /**
     * Encrypts raw bits in the encoding `program` executes under: the
     * boolean +-1/8 encoding for classic programs, the digit encoding
     * phi(v) = (2v+1)/(4p) for multibit (format v4) programs. Use this
     * overload whenever the program may have been compiled with
     * CompileOptions::multibit; the plain EncryptBits produces samples a
     * multibit program cannot consume.
     */
    Ciphertexts EncryptBitsFor(const pasm::Program& program,
                               const std::vector<bool>& bits);

    /** Program-aware flavor of EncryptValue (see EncryptBitsFor). */
    Ciphertexts EncryptValueFor(const pasm::Program& program,
                                const hdl::DType& dtype, double value);

    /** Encodes a number in `dtype` and encrypts its bits. */
    Ciphertexts EncryptValue(const hdl::DType& dtype, double value);

    /** Encodes and encrypts a vector of numbers, concatenated. */
    Ciphertexts EncryptValues(const hdl::DType& dtype,
                              const std::vector<double>& values);

    std::vector<bool> DecryptBits(const Ciphertexts& cts) const;

    /**
     * Decrypts outputs of `program` (see EncryptBitsFor): digit decoding
     * for multibit programs — their outputs are 1-bit digits by the
     * format's output rule — sign decoding otherwise.
     */
    std::vector<bool> DecryptBitsFor(const pasm::Program& program,
                                     const Ciphertexts& cts) const;

    /** Program-aware flavor of DecryptValue (see DecryptBitsFor). */
    double DecryptValueFor(const pasm::Program& program,
                           const hdl::DType& dtype,
                           const Ciphertexts& cts) const;
    double DecryptValue(const hdl::DType& dtype, const Ciphertexts& cts) const;
    std::vector<double> DecryptValues(const hdl::DType& dtype,
                                      const Ciphertexts& cts) const;

    /**
     * Produces the server for this client's keys. Generating the
     * bootstrapping key is the expensive step of the protocol.
     */
    std::unique_ptr<Server> MakeServer();

    /**
     * Produces just the public evaluation key, for registering with a
     * shared core::Service (one Service serves many tenants' keys). The
     * returned evaluator carries this client's KeyId.
     */
    std::shared_ptr<tfhe::GateEvaluator> MakeEvaluationKey();

    /**
     * Stable identity of this client's key material. Every evaluation key
     * this client produces carries the same id, so a mismatch against a
     * server's key_id() means "wrong server" before any garbage decrypts.
     */
    KeyId key_id() const { return key_id_; }

  private:
    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    KeyId key_id_;
};

/** The untrusted evaluator: public key material only. */
class Server {
  public:
    explicit Server(std::unique_ptr<tfhe::GateEvaluator> gates)
        : gates_(std::move(gates)), evaluator_(*gates_) {}

    /**
     * Executes a compiled program over ciphertexts through
     * backend::Execute. options.num_threads > 1 runs the program as one
     * job on the serving scheduler over the server's persistent worker
     * pool (shared across calls); 1 runs the sequential interpreter —
     * outputs are bit-identical either way. Throws
     * std::invalid_argument on input-count mismatch or num_threads < 1,
     * and backend::DeadlineExceededError when options.deadline_seconds
     * expires mid-run (checked at gate granularity; partial results are
     * discarded). Not safe to call concurrently — concurrent serving is
     * core::Service's job.
     */
    Ciphertexts Run(const pasm::Program& program, const Ciphertexts& inputs,
                    const RunOptions& options = {});

    const tfhe::GateProfile& profile() const { return gates_->profile(); }

    /**
     * Gate-profile delta of the most recent Run executed with
     * options.profile == true (zeroes before any such run).
     */
    const tfhe::GateProfileSnapshot& last_run_profile() const {
        return last_run_profile_;
    }

    /** Identity of the key material this server evaluates under. */
    KeyId key_id() const { return gates_->key_id(); }

  private:
    std::unique_ptr<tfhe::GateEvaluator> gates_;
    backend::TfheEvaluator evaluator_;
    backend::Executor executor_;
    tfhe::GateProfileSnapshot last_run_profile_;
};

}  // namespace pytfhe::core

#endif  // PYTFHE_CORE_RUNTIME_H
