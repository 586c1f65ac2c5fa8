/**
 * @file
 * Gate evaluators: the pluggable execution substrate of every backend.
 *
 * An evaluator provides a Ciphertext type plus Constant/Apply operations
 * with TFHE gate semantics. Backends are templates over the evaluator so
 * the same scheduler runs functionally on plaintext bits (fast, used for
 * validation), on real TFHE ciphertexts (the actual FHE execution), or on
 * a counting stub (used by the simulators).
 */
#ifndef PYTFHE_BACKEND_EVALUATOR_H
#define PYTFHE_BACKEND_EVALUATOR_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "circuit/gate_type.h"
#include "circuit/netlist.h"
#include "tfhe/gates.h"
#include "tfhe/multibit.h"

namespace pytfhe::backend {

using circuit::GateType;

/**
 * One gate inside a batched evaluator call: inputs by pointer (so
 * dispatchers can gather scattered value slots without copies), output by
 * pointer, operand encoding-domain flags as in the scalar Apply. Only
 * bootstrapped gate types (circuit::NeedsBootstrap) are batchable; linear
 * and NOT gates stay on the scalar fast path.
 */
template <typename C>
struct BatchGate {
    GateType type = GateType::kNot;
    const C* a = nullptr;
    bool a_linear = false;
    const C* b = nullptr;
    bool b_linear = false;
    C* out = nullptr;
};

/**
 * View flavor of BatchGate for arena-resident ciphertexts (backend/arena.h):
 * operands and output are spans into a ciphertext slab rather than pointers
 * to LweSample objects. The kernel consumes every lane's inputs before
 * writing any lane's output, so `out` may alias any input view of the same
 * call — which is exactly what an in-place memory plan produces. A kLut
 * lane carries its weighted operands and table in `lut` (a/b are unused);
 * the payload is held by value so items stay safely copyable.
 */
struct BatchGateView {
    GateType type = GateType::kNot;
    tfhe::LweCView a;
    bool a_linear = false;
    tfhe::LweCView b;
    bool b_linear = false;
    tfhe::LweView out;
    struct Lut {
        tfhe::LweCView ops[circuit::kMaxLutArity];
        int8_t weights[circuit::kMaxLutArity] = {};
        uint8_t arity = 0;
        int32_t lo = 0;
        uint32_t table = 0;
        uint8_t out_bits = 1;
        int32_t p = 0;

        /** Kernel description; borrows `weights`, so keep *this alive. */
        tfhe::LutKernel Kernel() const {
            return tfhe::LutKernel{std::span<const int8_t>(weights, arity),
                                   lo, table, out_bits, p};
        }
        std::span<const tfhe::LweCView> Ops() const {
            return std::span<const tfhe::LweCView>(ops, arity);
        }
    } lut;
};

namespace detail {

/**
 * The linear prelude of each bootstrapped gate kind: the gate evaluates as
 * sign-bootstrap(coef_a*a + coef_b*b + offset). Returns false for gate
 * kinds that are not bootstrapped (NOT and the elided kLin* family), which
 * must take the scalar linear path instead. This is the single coefficient
 * table shared by every batched and view-based dispatch.
 */
inline bool GatePrelude(GateType t, bool a_linear, bool b_linear,
                        int32_t* coef_a, int32_t* coef_b,
                        tfhe::Torus32* offset) {
    switch (t) {
        case GateType::kAnd:
            *coef_a = +1; *coef_b = +1; *offset = -tfhe::kGateMu;
            return true;
        case GateType::kNand:
            *coef_a = -1; *coef_b = -1; *offset = tfhe::kGateMu;
            return true;
        case GateType::kOr:
            *coef_a = +1; *coef_b = +1; *offset = tfhe::kGateMu;
            return true;
        case GateType::kNor:
            *coef_a = -1; *coef_b = -1; *offset = -tfhe::kGateMu;
            return true;
        case GateType::kXor:
            *coef_a = a_linear ? 1 : 2;
            *coef_b = b_linear ? 1 : 2;
            *offset = tfhe::kGateQuarter;
            return true;
        case GateType::kXnor:
            *coef_a = a_linear ? 1 : 2;
            *coef_b = b_linear ? 1 : 2;
            *offset = -tfhe::kGateQuarter;
            return true;
        case GateType::kAndNY:
            *coef_a = -1; *coef_b = +1; *offset = -tfhe::kGateMu;
            return true;
        case GateType::kAndYN:
            *coef_a = +1; *coef_b = -1; *offset = -tfhe::kGateMu;
            return true;
        case GateType::kOrNY:
            *coef_a = -1; *coef_b = +1; *offset = tfhe::kGateMu;
            return true;
        case GateType::kOrYN:
            *coef_a = +1; *coef_b = -1; *offset = tfhe::kGateMu;
            return true;
        default:
            return false;
    }
}

}  // namespace detail

/** Evaluates gates on plaintext booleans (reference semantics). */
class PlainEvaluator {
  public:
    using Ciphertext = bool;

    Ciphertext Constant(bool value) const { return value; }
    Ciphertext Apply(GateType t, Ciphertext a, Ciphertext b) const {
        return circuit::EvalGate(t, a, b);
    }
};

/** Evaluates gates on real TFHE ciphertexts via bootstrapped gates. */
class TfheEvaluator {
  public:
    using Ciphertext = tfhe::LweSample;
    /**
     * Interpreters construct one of these per worker thread and pass it to
     * the scratch-aware Apply overload, making gate evaluation
     * allocation-free in steady state.
     */
    using WorkerScratch = tfhe::BootstrapScratch;
    /**
     * Per-worker scratch of the batched path (bootstrap_batch.h): sized on
     * first use, reused across batches — including ragged tails.
     */
    using BatchScratch = tfhe::BatchScratch;

    explicit TfheEvaluator(tfhe::GateEvaluator& gates) : gates_(&gates) {}

    Ciphertext Constant(bool value) const { return gates_->Constant(value); }

    Ciphertext Apply(GateType t, const Ciphertext& a,
                     const Ciphertext& b) const {
        WorkerScratch scratch;
        return Apply(t, a, false, b, false, scratch);
    }

    Ciphertext Apply(GateType t, const Ciphertext& a, const Ciphertext& b,
                     WorkerScratch& s) const {
        return Apply(t, a, false, b, false, s);
    }

    /**
     * Domain-aware dispatch: `a_linear`/`b_linear` say whether each operand
     * carries the linear (+-1/4) encoding, i.e. was produced by an elided
     * kLin* gate. Interpreters derive the flags statically from the
     * producing opcode (pasm::Program::ProducesLinearDomain). Linear gates
     * never touch the bootstrap scratch — they are pure sample arithmetic.
     */
    Ciphertext Apply(GateType t, const Ciphertext& a, bool a_linear,
                     const Ciphertext& b, bool b_linear,
                     WorkerScratch& s) const {
        switch (t) {
            case GateType::kNot: return gates_->Not(a);
            case GateType::kAnd: return gates_->And(a, b, &s);
            case GateType::kNand: return gates_->Nand(a, b, &s);
            case GateType::kOr: return gates_->Or(a, b, &s);
            case GateType::kNor: return gates_->Nor(a, b, &s);
            case GateType::kXnor:
                return gates_->Xnor(a, a_linear, b, b_linear, &s);
            case GateType::kXor:
                return gates_->Xor(a, a_linear, b, b_linear, &s);
            case GateType::kAndNY: return gates_->AndNY(a, b, &s);
            case GateType::kAndYN: return gates_->AndYN(a, b, &s);
            case GateType::kOrNY: return gates_->OrNY(a, b, &s);
            case GateType::kOrYN: return gates_->OrYN(a, b, &s);
            case GateType::kLinXor:
                return gates_->LinXor(a, a_linear, b, b_linear);
            case GateType::kLinXnor:
                return gates_->LinXnor(a, a_linear, b, b_linear);
            case GateType::kLinNot: return gates_->LinNot(a);
            case GateType::kLut:
                throw std::invalid_argument(
                    "TfheEvaluator::Apply: kLut has no payload here; LUT "
                    "gates run through ApplyLutInto");
        }
        return a;  // Unreachable for valid gate types.
    }

    /**
     * True iff `t` may be placed in an ApplyBatch call: every bootstrapped
     * kind, LUT gates included. Lanes start from their own test vectors,
     * so sign gates and LUT gates with different tables share one blind
     * rotation. LUT lanes travel in the view flavor only (their payload
     * lives in BatchGateView), which is the one the arena plane builds.
     */
    static bool Batchable(GateType t) { return circuit::NeedsBootstrap(t); }

    /**
     * Evaluates one weighted LUT gate (multi-bit programs, format v4):
     * linear prelude over the operand views, one programmable bootstrap
     * through the table-valued test vector, one key switch into `out`.
     * Operands are fully read before `out` is written, so `out` may alias
     * any operand view — the in-place shape a memory plan produces.
     */
    void ApplyLutInto(const tfhe::LutKernel& lut,
                      std::span<const tfhe::LweCView> ops, tfhe::LweView out,
                      WorkerScratch& s) const {
        tfhe::LutBootstrapInto(*gates_, lut, ops, out, &s);
    }

    /**
     * Evaluates `count` bootstrapped two-input gates through one batched
     * blind rotation. Gate kinds may be mixed freely — each kind is only a
     * different linear prelude into the shared +-1/8 bootstrap. kLut has
     * no payload here and is rejected. Bit-exact per gate vs the scalar
     * Apply. Staging lives in the scratch, so a warm scratch makes
     * dispatch allocation-free.
     */
    void ApplyBatch(const BatchGate<Ciphertext>* items, int32_t count,
                    BatchScratch& s) const {
        s.specs.resize(count);
        for (int32_t i = 0; i < count; ++i) {
            const BatchGate<Ciphertext>& g = items[i];
            tfhe::BatchGateSpec& spec = s.specs[i];
            spec.a = g.a;
            spec.b = g.b;
            spec.out = g.out;
            if (!detail::GatePrelude(g.type, g.a_linear, g.b_linear,
                                     &spec.coef_a, &spec.coef_b,
                                     &spec.offset))
                throw std::invalid_argument(
                    "TfheEvaluator::ApplyBatch: non-bootstrapped gate "
                    "type in batch");
        }
        gates_->BatchedLinearBootstrap(s.specs.data(), count, &s);
    }

    /**
     * View flavor of ApplyBatch for arena-resident lanes: gathers operand
     * slots and scatters output slots directly, no LweSample objects in
     * the loop. Each lane gets its own prelude and test vector: a sign
     * gate its coefficients and the +-1/8 vector, a kLut lane its weighted
     * sum and table (tfhe::BatchedLutBootstrapInto), so a claim mixing
     * both kinds on one key still runs as one rotation. Bit-exact per
     * lane vs ApplyInto / ApplyLutInto.
     */
    void ApplyBatch(const BatchGateView* items, int32_t count,
                    BatchScratch& s) const {
        s.view_specs.resize(count);
        s.luts.resize(count);
        for (int32_t i = 0; i < count; ++i) {
            const BatchGateView& g = items[i];
            tfhe::BatchGateViewSpec& spec = s.view_specs[i];
            spec = tfhe::BatchGateViewSpec{};
            spec.out = g.out;
            if (g.type == GateType::kLut) {
                s.luts[i] = g.lut.Kernel();
                spec.lut = &s.luts[i];
                spec.ops = g.lut.ops;
                continue;
            }
            spec.a = g.a;
            spec.b = g.b;
            if (!detail::GatePrelude(g.type, g.a_linear, g.b_linear,
                                     &spec.coef_a, &spec.coef_b,
                                     &spec.offset))
                throw std::invalid_argument(
                    "TfheEvaluator::ApplyBatch: non-bootstrapped gate "
                    "type in batch");
        }
        tfhe::BatchedLutBootstrapInto(*gates_, s.view_specs.data(), count,
                                      s);
    }

    /**
     * Zero-copy scalar dispatch: evaluates one gate from operand views
     * straight into the destination view (typically all three are arena
     * slots). Inputs are fully consumed before `out` is written, so `out`
     * may alias either input — the in-place shape a memory plan produces.
     * Bit-exact vs the object-based Apply for every gate kind.
     */
    void ApplyInto(GateType t, tfhe::LweCView a, bool a_linear,
                   tfhe::LweCView b, bool b_linear, tfhe::LweView out,
                   WorkerScratch& s) const {
        int32_t coef_a = 0, coef_b = 0;
        tfhe::Torus32 offset = 0;
        if (detail::GatePrelude(t, a_linear, b_linear, &coef_a, &coef_b,
                                &offset)) {
            gates_->LinearBootstrapInto(coef_a, a, coef_b, b, offset, out,
                                        &s);
            return;
        }
        switch (t) {
            case GateType::kNot:
                gates_->NotInto(a, out);
                return;
            case GateType::kLinNot:
                gates_->LinNotInto(a, out);
                return;
            case GateType::kLinXor:
                gates_->LinCombineInto(a_linear ? 1 : 2, a, b_linear ? 1 : 2,
                                       b, tfhe::kGateQuarter, out);
                return;
            case GateType::kLinXnor:
                gates_->LinCombineInto(a_linear ? 1 : 2, a, b_linear ? 1 : 2,
                                       b, -tfhe::kGateQuarter, out);
                return;
            default:
                throw std::invalid_argument(
                    "TfheEvaluator::ApplyInto: unknown gate type");
        }
    }

  private:
    tfhe::GateEvaluator* gates_;
};

/** Counts gate evaluations; Ciphertext is a placeholder byte. */
class CountingEvaluator {
  public:
    using Ciphertext = uint8_t;

    Ciphertext Constant(bool value) const { return value; }
    Ciphertext Apply(GateType t, Ciphertext a, Ciphertext b) {
        ++counts_[static_cast<int32_t>(t)];
        ++total_;
        return circuit::EvalGate(t, a, b) ? 1 : 0;
    }

    /**
     * Accounting hook for LUT gates (multi-bit programs). The plane
     * evaluates the digit semantics itself — a placeholder byte cannot be
     * threaded through a weighted sum — and reports each gate here; one
     * LUT gate costs exactly one bootstrap, like any bootstrapped gate.
     */
    void OnLutGate() {
        ++counts_[static_cast<int32_t>(GateType::kLut)];
        ++total_;
    }

    uint64_t Total() const { return total_; }
    uint64_t CountOf(GateType t) const {
        return counts_[static_cast<int32_t>(t)];
    }

  private:
    uint64_t counts_[circuit::kNumGateTypes] = {};
    uint64_t total_ = 0;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_EVALUATOR_H
