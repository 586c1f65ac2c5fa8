/**
 * @file
 * A PyTFHE program: a validated sequence of 128-bit instructions plus a
 * decoded view that backends execute directly.
 *
 * The on-disk format is the raw instruction stream, little-endian, 16 bytes
 * per instruction, preceded by nothing — the header instruction *is* the
 * file header.
 */
#ifndef PYTFHE_PASM_PROGRAM_H
#define PYTFHE_PASM_PROGRAM_H

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pasm/instruction.h"

namespace pytfhe::pasm {

/**
 * Decoded gate record, indexed the same way as the instruction stream.
 * For multibit LUT gates (format version >= 4) `type` is kLut but the
 * operand fields are the packed record, not indices — branch on
 * Program::IsLutGate() and decode through LutAt() instead.
 */
struct DecodedGate {
    circuit::GateType type;
    uint64_t in0;
    uint64_t in1;
};

/** One decoded kLut gate's stored form (format version >= 4). */
struct LutRecord {
    uint64_t first_op = 0;  ///< Offset into the program's operand table.
    uint32_t table = 0;     ///< Packed out_bits-wide entries.
    int32_t lo = 0;         ///< Minimum reachable weighted sum.
    uint8_t arity = 0;      ///< Operand count (1..8).
    uint8_t out_bits = 1;   ///< Output digit width (1 or 2).
};

/** Resolved view of one kLut gate: weighted operands plus the table. */
struct DecodedLut {
    /** (producing instruction index, weight), ascending by index. */
    std::span<const std::pair<uint64_t, int8_t>> operands;
    uint32_t table = 0;
    int32_t lo = 0;
    uint8_t out_bits = 1;
};

/**
 * One decoded wide group from the trailer (format version >= 2): >= 2
 * distinct gate instruction indices, all the same bootstrapped gate type,
 * declared by the frontend as batchable through one SoA bootstrap kernel
 * call. Membership is an explicit list, not a range — CSE and rewrites
 * break index contiguity long before assembly. Groups are scheduling
 * hints: every backend produces identical results with or without them.
 */
struct WideOp {
    std::vector<uint64_t> members;
};

/**
 * Dataflow view of a program's gate instructions: per-gate predecessor
 * counts plus CSR fan-out (successor) lists. This is what the
 * dependency-counting executor schedules on — a gate becomes ready when its
 * predecessor count reaches zero, and finishing it decrements each
 * successor's count.
 *
 * Counts and successor lists count input *slots*, not distinct producers:
 * a gate reading the same producer through both operands contributes two
 * decrements and appears twice in that producer's successor list, so the
 * arithmetic always balances.
 */
struct GateDependencies {
    /** Instruction index of the first gate; gate i lives at first_gate+i. */
    uint64_t first_gate = 0;
    /** Per gate: number of gate-typed operands (program inputs excluded). */
    std::vector<uint32_t> pred_count;
    /** CSR offsets into `successors`, one per gate plus a final sentinel. */
    std::vector<uint64_t> succ_offsets;
    /** Successor gate instruction indices, grouped by producing gate. */
    std::vector<uint64_t> successors;

    uint64_t NumGates() const { return pred_count.size(); }

    /** Number of gate consumers of the gate at instruction index `idx`. */
    uint64_t FanOut(uint64_t idx) const {
        const uint64_t g = idx - first_gate;
        return succ_offsets[g + 1] - succ_offsets[g];
    }

    /** Successor instruction indices of the gate at `idx`, as [begin,end). */
    std::pair<const uint64_t*, const uint64_t*> SuccessorsOf(
        uint64_t idx) const {
        const uint64_t g = idx - first_gate;
        return {successors.data() + succ_offsets[g],
                successors.data() + succ_offsets[g + 1]};
    }

    /** Instruction indices of gates with no gate predecessors (ready at
     * start). */
    std::vector<uint64_t> RootGates() const {
        std::vector<uint64_t> roots;
        for (uint64_t g = 0; g < pred_count.size(); ++g)
            if (pred_count[g] == 0) roots.push_back(first_gate + g);
        return roots;
    }
};

/**
 * Compile-time memory plan (format version >= 3): a mapping from values
 * (program inputs and gate results, named by instruction index) onto a
 * small set of physical ciphertext slots, computed by liveness analysis
 * over the static DAG. Backends that honor the plan bound peak memory per
 * job at O(max live ciphertexts) instead of O(gates).
 *
 * Safety contract, enforced on load:
 *  - two values may share a slot only if their live intervals do not
 *    overlap (a value lives from its defining instruction to its last
 *    reader, or to the end of the program when it is an output);
 *  - when `level_safe` is set, a slot freed by a value whose last reader
 *    runs at wave level L is only reassigned to a value defined at level
 *    >= L+1, so readers and the overwriting gate never share a wave and
 *    every edge crosses a wave boundary forward (what level-cut
 *    checkpoints need). Dependency-counting execution additionally needs
 *    the anti-dependency edges from BuildGateDependencies(&plan).
 */
struct MemoryPlan {
    /**
     * Physical slot per instruction index; entries [1, NumInputs() +
     * NumGates()] are meaningful, entry 0 is unused and zero.
     */
    std::vector<uint64_t> slot_of;
    /** Number of physical slots; all slot_of entries are below this. */
    uint64_t num_slots = 0;
    /** Slot reuse respects wave-level boundaries (see above). */
    bool level_safe = false;
};

/** A validated PyTFHE binary. */
class Program {
  public:
    Program() = default;

    /**
     * Wraps and validates a raw instruction stream. Returns nullopt and
     * fills `error` (when non-null) on malformed input.
     */
    static std::optional<Program> FromInstructions(
        std::vector<Instruction> instructions, std::string* error = nullptr);

    const std::vector<Instruction>& Instructions() const {
        return instructions_;
    }

    /** Number of primary inputs. First input index is 1. */
    uint64_t NumInputs() const { return num_inputs_; }
    /** Number of gate instructions. First gate index is NumInputs() + 1. */
    uint64_t NumGates() const { return num_gates_; }
    /** Producing index for each declared output, in order. */
    const std::vector<uint64_t>& OutputIndices() const { return outputs_; }
    /** Decoded wide groups, in trailer order (empty before version 2). */
    const std::vector<WideOp>& WideOps() const { return wide_ops_; }

    /** Index of the first gate instruction. */
    uint64_t FirstGateIndex() const { return 1 + num_inputs_; }

    /**
     * Format version from the header: kFormatVersionLegacy for
     * all-bootstrapped programs (byte-identical to pre-versioning
     * binaries), kFormatVersionLinear when linear opcodes may appear,
     * kFormatVersionWide when a wide-group trailer may follow the
     * outputs.
     */
    uint64_t FormatVersion() const { return format_version_; }

    /**
     * True if the instruction at `idx` produces a linear-domain (+-1/4)
     * ciphertext: exactly the kLin* gates. Inputs and bootstrapped/NOT
     * gates produce the gate (+-1/8) encoding. Backends use this to pick
     * per-operand coefficients; it is static, derived from the opcode.
     */
    bool ProducesLinearDomain(uint64_t idx) const {
        if (idx < FirstGateIndex()) return false;  // Program input.
        return circuit::IsLinearGate(
            static_cast<circuit::GateType>(instructions_[idx].TypeField()));
    }

    /** Decoded gate at instruction index `idx` (idx >= FirstGateIndex()). */
    DecodedGate GateAt(uint64_t idx) const {
        const Instruction& i = instructions_[idx];
        return DecodedGate{static_cast<circuit::GateType>(i.TypeField()),
                           i.Input0(), i.Input1()};
    }

    /**
     * Message modulus p of a multibit program (format version >= 4);
     * 0 for boolean programs. Multibit programs are homogeneous: every
     * gate is a kLut record.
     */
    int32_t MessageModulus() const { return message_modulus_; }

    /** True when the gate at `idx` is a multibit LUT gate. */
    bool IsLutGate(uint64_t idx) const {
        return message_modulus_ != 0 && idx >= FirstGateIndex() &&
               idx < FirstGateIndex() + num_gates_;
    }

    /** Resolved LUT gate at `idx` (requires IsLutGate(idx)). */
    DecodedLut LutAt(uint64_t idx) const {
        const LutRecord& r = lut_records_[idx - FirstGateIndex()];
        return DecodedLut{
            std::span<const std::pair<uint64_t, int8_t>>(
                lut_operands_.data() + r.first_op, r.arity),
            r.table, r.lo, r.out_bits};
    }

    /**
     * Invokes fn(producer_index) for every operand slot of the gate at
     * `idx` — twice for a classic gate (even when both slots coincide,
     * matching the dependency-count arithmetic), once per weighted
     * operand for a LUT gate. The uniform traversal backends and
     * liveness analyses iterate with.
     */
    template <typename Fn>
    void ForEachOperand(uint64_t idx, Fn&& fn) const {
        if (IsLutGate(idx)) {
            const LutRecord& r = lut_records_[idx - FirstGateIndex()];
            for (uint32_t i = 0; i < r.arity; ++i)
                fn(lut_operands_[r.first_op + i].first);
        } else {
            const Instruction& ins = instructions_[idx];
            fn(ins.Input0());
            fn(ins.Input1());
        }
    }

    /**
     * Builds the predecessor-count / fan-out view of the gate DAG.
     * O(NumGates()) time and memory; recompute-per-run is cheap relative to
     * gate evaluation, so the result is not cached here.
     */
    GateDependencies BuildGateDependencies() const;

    /**
     * Plan-aware variant: in addition to the data edges, adds the
     * anti-dependency edges slot reuse induces — when value w overwrites
     * the slot last held by value v, every gate reading v must complete
     * before w executes (write-after-read), and a reader-less gate v must
     * itself complete first (write-after-write). Dependency-counting
     * executors schedule on these edges to make any valid plan safe under
     * concurrency; with a null plan this is identical to the overload
     * above.
     */
    GateDependencies BuildGateDependencies(const MemoryPlan* plan) const;

    /**
     * Memory plan carried by the binary (version >= 3), or nullptr.
     * Backends without plan support simply ignore it — execution results
     * are identical either way; only peak memory differs.
     */
    const MemoryPlan* Plan() const { return plan_ ? &*plan_ : nullptr; }

    /**
     * Returns a copy of this program carrying `plan` in a version-3 plan
     * section (replacing any existing plan). The plan is validated like
     * any other loaded plan; returns nullopt on an unsafe or malformed
     * plan. A program with no values is returned unchanged.
     */
    std::optional<Program> WithPlan(MemoryPlan plan,
                                    std::string* error = nullptr) const;

    /**
     * ASAP wave level per instruction index: inputs are level 0, a gate is
     * one past its deepest operand. Matches the wave partition the
     * barrier-scheduled backend executes (up to a constant offset), which
     * is what level-safe plans are validated against.
     */
    std::vector<uint64_t> ValueLevels() const;

    /** Serializes to a binary stream (16 bytes per instruction, LE). */
    void Serialize(std::ostream& os) const;
    /** Deserializes and validates. */
    static std::optional<Program> Deserialize(std::istream& is,
                                              std::string* error = nullptr);

    /** Convenience file wrappers. */
    bool SaveToFile(const std::string& path) const;
    static std::optional<Program> LoadFromFile(const std::string& path,
                                               std::string* error = nullptr);

    /** Full text disassembly. */
    std::string Disassemble() const;

    /** Size of the binary in bytes. */
    size_t ByteSize() const { return instructions_.size() * 16; }

  private:
    std::vector<Instruction> instructions_;
    uint64_t num_inputs_ = 0;
    uint64_t num_gates_ = 0;
    uint64_t format_version_ = kFormatVersionLegacy;
    int32_t message_modulus_ = 0;
    std::vector<uint64_t> outputs_;
    std::vector<WideOp> wide_ops_;
    /** Per-gate LUT records, dense: gate at idx is entry idx-first_gate. */
    std::vector<LutRecord> lut_records_;
    /** Pooled (producer index, weight) operand entries for all LUT gates. */
    std::vector<std::pair<uint64_t, int8_t>> lut_operands_;
    std::optional<MemoryPlan> plan_;
    /** Position of the plan sentinel record, 0 when there is no plan. */
    uint64_t plan_pos_ = 0;
};

}  // namespace pytfhe::pasm

#endif  // PYTFHE_PASM_PROGRAM_H
