#include "pasm/program.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace pytfhe::pasm {

namespace {

bool Fail(std::string* error, const std::string& message) {
    if (error) *error = message;
    return false;
}

/**
 * Last position at which each value is read: the maximum consuming gate
 * index, the value's own index when it has no readers, or `end` (one past
 * the last gate) when the value is a program output and must survive to
 * harvest. Indexed by instruction index; entry 0 unused.
 */
std::vector<uint64_t> LastUses(const Program& p) {
    const uint64_t first_gate = p.FirstGateIndex();
    const uint64_t end = first_gate + p.NumGates();
    std::vector<uint64_t> last(end, 0);
    for (uint64_t v = 1; v < end; ++v) last[v] = v;
    for (uint64_t idx = first_gate; idx < end; ++idx) {
        p.ForEachOperand(idx, [&](uint64_t in) {
            last[in] = std::max(last[in], idx);
        });
    }
    for (const uint64_t src : p.OutputIndices()) last[src] = end;
    return last;
}

/**
 * Checks the plan's safety contract: values sharing a slot have disjoint
 * live intervals, and (when level_safe) reuse skips at least one wave
 * level so barrier-scheduled threads cannot race a reader against the
 * overwriting gate.
 */
bool PlanIsSafe(const Program& p, const MemoryPlan& plan,
                std::string* error) {
    const uint64_t num_values = p.NumInputs() + p.NumGates();
    const std::vector<uint64_t> last = LastUses(p);
    std::vector<uint64_t> level;
    std::vector<uint64_t> death;
    if (plan.level_safe) {
        level = p.ValueLevels();
        // Death level = max wave level over ALL readers: an early-ordinal
        // reader can sit at a deeper level than the last-by-ordinal one,
        // and level-ordered execution (a level cut) runs it later.
        death = level;
        const uint64_t first_gate = p.FirstGateIndex();
        for (uint64_t idx = first_gate; idx < first_gate + p.NumGates();
             ++idx) {
            p.ForEachOperand(idx, [&](uint64_t in) {
                death[in] = std::max(death[in], level[idx]);
            });
        }
    }
    // Values are defined in index order, so walking them in order visits
    // each slot's occupants in definition order.
    std::vector<uint64_t> prev(plan.num_slots, 0);  // 0 = slot untouched.
    for (uint64_t v = 1; v <= num_values; ++v) {
        const uint64_t s = plan.slot_of[v];
        const uint64_t u = prev[s];
        if (u != 0) {
            if (last[u] > v)
                return Fail(error,
                            "memory plan assigns overlapping live values " +
                                std::to_string(u) + " and " +
                                std::to_string(v) + " to slot " +
                                std::to_string(s));
            if (plan.level_safe) {
                if (level[v] < death[u] + 1)
                    return Fail(error,
                                "level-safe memory plan reuses slot " +
                                    std::to_string(s) + " for value " +
                                    std::to_string(v) +
                                    " within the freeing wave level");
            }
        }
        prev[s] = v;
    }
    return true;
}

}  // namespace

std::optional<Program> Program::FromInstructions(
    std::vector<Instruction> instructions, std::string* error) {
    Program p;
    p.instructions_ = std::move(instructions);
    const auto& ins = p.instructions_;

    if (ins.empty()) {
        Fail(error, "empty program");
        return std::nullopt;
    }
    if (ins[0].Kind(0) != InstructionKind::kHeader ||
        ins[0].TypeField() != kHeaderType) {
        Fail(error, "first instruction is not a valid header");
        return std::nullopt;
    }
    // The header's INPUT0 is `version | message_modulus << 8` since
    // version 4; earlier writers emitted the bare version, whose upper
    // bits were zero, so the split decode is backward compatible.
    const uint64_t header_field = ins[0].Input0();
    p.format_version_ = header_field & 0xFF;
    p.message_modulus_ = static_cast<int32_t>((header_field >> 8) & 0xFF);
    if (p.format_version_ > kMaxFormatVersion) {
        Fail(error, "unsupported program format version " +
                        std::to_string(p.format_version_));
        return std::nullopt;
    }
    if ((header_field >> 16) != 0) {
        Fail(error, "header carries unknown high bits");
        return std::nullopt;
    }
    const bool multibit = p.format_version_ >= kFormatVersionMultibit;
    if (!multibit && p.message_modulus_ != 0) {
        Fail(error, "header declares a message modulus but format version " +
                        std::to_string(p.format_version_) +
                        " predates multibit programs");
        return std::nullopt;
    }
    if (multibit &&
        (p.message_modulus_ < 2 || p.message_modulus_ > 16 ||
         (p.message_modulus_ & (p.message_modulus_ - 1)) != 0)) {
        Fail(error, "invalid message modulus " +
                        std::to_string(p.message_modulus_) +
                        " (must be a power of two in [2, 16])");
        return std::nullopt;
    }
    const uint64_t declared_gates = ins[0].Input1();

    // Phase order: inputs, then gates, then outputs, then (version >= 4)
    // the mandatory LUT operand table, then the optional wide-group
    // trailer (version >= 2, boolean programs only), then the optional
    // memory-plan section (version >= 3).
    enum Phase {
        kInputs,
        kGates,
        kOutputs,
        kLutOperands,
        kWideTrailer,
        kPlanTrailer
    } phase = kInputs;
    // Wide-trailer decode state: members still expected for the open
    // group, and the set of gates already claimed by some group.
    uint64_t wide_expected = 0;
    WideOp wide_current;
    std::unordered_set<uint64_t> wide_used;
    // LUT operand-table decode state (version >= 4).
    bool lut_head_seen = false;
    uint64_t lut_declared = 0;
    uint64_t lut_values_left = 0;
    // Plan-section decode state.
    bool plan_head_seen = false;
    uint64_t plan_values_left = 0;
    uint64_t plan_next_value = 1;
    MemoryPlan plan_current;
    for (uint64_t pos = 1; pos < ins.size(); ++pos) {
        switch (ins[pos].Kind(pos)) {
            case InstructionKind::kHeader:
                Fail(error, "unexpected header at position " +
                                std::to_string(pos));
                return std::nullopt;
            case InstructionKind::kInput:
                if (phase != kInputs) {
                    Fail(error, "input instruction after gates at position " +
                                    std::to_string(pos));
                    return std::nullopt;
                }
                ++p.num_inputs_;
                break;
            case InstructionKind::kGate: {
                if (phase != kInputs && phase != kGates) {
                    Fail(error, "gate instruction after outputs at position " +
                                    std::to_string(pos));
                    return std::nullopt;
                }
                if (multibit) {
                    Fail(error,
                         "classic gate at position " + std::to_string(pos) +
                             " in a multibit program (format version >= 4 "
                             "programs carry only LUT gates)");
                    return std::nullopt;
                }
                phase = kGates;
                const DecodedGate g{
                    static_cast<circuit::GateType>(ins[pos].TypeField()),
                    ins[pos].Input0(), ins[pos].Input1()};
                if (static_cast<int32_t>(g.type) >= circuit::kNumGateTypes) {
                    Fail(error, "invalid gate type at position " +
                                    std::to_string(pos));
                    return std::nullopt;
                }
                if (g.in0 >= pos || g.in1 >= pos || g.in0 == 0 || g.in1 == 0) {
                    Fail(error,
                         "gate at position " + std::to_string(pos) +
                             " references an invalid index");
                    return std::nullopt;
                }
                if (circuit::IsLinearGate(g.type) &&
                    p.format_version_ < kFormatVersionLinear) {
                    Fail(error,
                         "linear opcode at position " + std::to_string(pos) +
                             " requires format version >= 1");
                    return std::nullopt;
                }
                // Torus-domain rules, mirroring Netlist::Validate. The
                // producing opcode decides an operand's encoding; indices
                // at or below num_inputs_ are program inputs (gate
                // domain).
                const auto linear_operand = [&](uint64_t in) {
                    return in > p.num_inputs_ &&
                           circuit::IsLinearGate(static_cast<circuit::GateType>(
                               ins[in].TypeField()));
                };
                const bool lin0 = linear_operand(g.in0);
                const bool lin1 = linear_operand(g.in1);
                bool domain_ok = true;
                switch (g.type) {
                    case circuit::GateType::kXor:
                    case circuit::GateType::kXnor:
                    case circuit::GateType::kLinXor:
                    case circuit::GateType::kLinXnor:
                        break;
                    case circuit::GateType::kNot:
                        domain_ok = !lin0;
                        break;
                    case circuit::GateType::kLinNot:
                        domain_ok = lin0;
                        break;
                    default:
                        domain_ok = !lin0 && !lin1;
                        break;
                }
                if (!domain_ok) {
                    Fail(error, "gate at position " + std::to_string(pos) +
                                    " violates operand-encoding rules");
                    return std::nullopt;
                }
                ++p.num_gates_;
                break;
            }
            case InstructionKind::kOutput: {
                if (phase == kLutOperands || phase == kWideTrailer ||
                    phase == kPlanTrailer) {
                    Fail(error, "output after the wide trailer at position " +
                                    std::to_string(pos));
                    return std::nullopt;
                }
                phase = kOutputs;
                const uint64_t src = ins[pos].Input1();
                if (src == 0 || src > p.num_inputs_ + p.num_gates_) {
                    Fail(error, "output at position " + std::to_string(pos) +
                                    " references an invalid index");
                    return std::nullopt;
                }
                p.outputs_.push_back(src);
                break;
            }
            case InstructionKind::kWide: {
                // Version >= 4 reuses the 0xE nibble for LUT gate records
                // (gate section) and the LUT operand table (directly
                // after the outputs); the phase disambiguates.
                if (multibit && (phase == kInputs || phase == kGates)) {
                    phase = kGates;
                    const uint64_t spec = ins[pos].Input0();
                    if ((spec >> 48) != 0) {
                        Fail(error, "LUT gate at position " +
                                        std::to_string(pos) +
                                        " carries unknown high bits");
                        return std::nullopt;
                    }
                    LutRecord r;
                    r.table = static_cast<uint32_t>(spec & 0xFFFFFFFF);
                    r.arity = static_cast<uint8_t>((spec >> 32) & 0xF);
                    r.out_bits = static_cast<uint8_t>(((spec >> 36) & 0x3) + 1);
                    r.lo = static_cast<int32_t>((spec >> 38) & 0x3FF) - 512;
                    r.first_op = ins[pos].Input1();
                    if (r.arity < 1 || r.arity > 8) {
                        Fail(error, "LUT gate at position " +
                                        std::to_string(pos) +
                                        " declares an invalid operand count " +
                                        std::to_string(r.arity) +
                                        " (1..8 allowed)");
                        return std::nullopt;
                    }
                    if (r.out_bits > 2) {
                        Fail(error, "LUT gate at position " +
                                        std::to_string(pos) +
                                        " declares an invalid output digit "
                                        "width (1 or 2 bits allowed)");
                        return std::nullopt;
                    }
                    p.lut_records_.push_back(r);
                    ++p.num_gates_;
                    break;
                }
                if (multibit && phase != kPlanTrailer && !lut_head_seen) {
                    // The operand-table head is the mandatory first
                    // trailer record of a multibit program. Its count is
                    // never all-ones, which keeps it distinct from the
                    // plan sentinel.
                    if (ins[pos].Input0() != kIndexAllOnes ||
                        ins[pos].Input1() == kIndexAllOnes) {
                        Fail(error, "multibit program misses its LUT "
                                    "operand-table head at position " +
                                        std::to_string(pos));
                        return std::nullopt;
                    }
                    lut_declared = ins[pos].Input1();
                    // Every gate holds at most 8 entries, which bounds
                    // the table (and the allocation below) up front.
                    if (lut_declared > 8 * p.num_gates_) {
                        Fail(error, "LUT operand-table head at position " +
                                        std::to_string(pos) +
                                        " declares an impossible entry "
                                        "count");
                        return std::nullopt;
                    }
                    lut_values_left = lut_declared;
                    p.lut_operands_.reserve(lut_declared);
                    lut_head_seen = true;
                    phase = kLutOperands;
                    break;
                }
                if (phase == kLutOperands && lut_values_left > 0) {
                    for (const uint64_t field :
                         {ins[pos].Input0(), ins[pos].Input1()}) {
                        if (lut_values_left == 0) {
                            if (field != kIndexAllOnes) {
                                Fail(error, "LUT operand record at position " +
                                                std::to_string(pos) +
                                                " carries an extra entry");
                                return std::nullopt;
                            }
                            continue;
                        }
                        const uint64_t in = field & kLutOperandIndexMask;
                        const int32_t biased = static_cast<int32_t>(
                            (field >> kLutOperandIndexBits) & 0xFF);
                        if (biased == 128) {
                            Fail(error, "LUT operand at position " +
                                            std::to_string(pos) +
                                            " carries a zero weight");
                            return std::nullopt;
                        }
                        p.lut_operands_.emplace_back(
                            in, static_cast<int8_t>(biased - 128));
                        --lut_values_left;
                    }
                    break;
                }
                // Memory-plan section: everything after the sentinel.
                if (phase == kPlanTrailer) {
                    if (!plan_head_seen) {
                        plan_current.num_slots = ins[pos].Input0();
                        const uint64_t flags = ins[pos].Input1();
                        if (flags & ~kPlanFlagLevelSafe) {
                            Fail(error, "plan head at position " +
                                            std::to_string(pos) +
                                            " carries unknown flag bits");
                            return std::nullopt;
                        }
                        plan_current.level_safe =
                            (flags & kPlanFlagLevelSafe) != 0;
                        const uint64_t num_values =
                            p.num_inputs_ + p.num_gates_;
                        if (num_values == 0 ||
                            plan_current.num_slots == 0 ||
                            plan_current.num_slots > num_values) {
                            Fail(error, "plan head at position " +
                                            std::to_string(pos) +
                                            " declares an invalid slot "
                                            "count");
                            return std::nullopt;
                        }
                        plan_current.slot_of.assign(1 + num_values, 0);
                        plan_values_left = num_values;
                        plan_head_seen = true;
                        break;
                    }
                    if (plan_values_left == 0) {
                        Fail(error, "record after the memory plan at "
                                    "position " +
                                        std::to_string(pos));
                        return std::nullopt;
                    }
                    for (const uint64_t s :
                         {ins[pos].Input0(), ins[pos].Input1()}) {
                        if (plan_values_left == 0) {
                            if (s != kIndexAllOnes) {
                                Fail(error, "plan record at position " +
                                                std::to_string(pos) +
                                                " carries an extra slot");
                                return std::nullopt;
                            }
                            continue;
                        }
                        if (s >= plan_current.num_slots) {
                            Fail(error, "plan slot at position " +
                                            std::to_string(pos) +
                                            " is out of range");
                            return std::nullopt;
                        }
                        plan_current.slot_of[plan_next_value++] = s;
                        --plan_values_left;
                    }
                    break;
                }
                // Plan sentinel: both index fields all-ones. A wide leader
                // always declares a count in [2, num_gates], so this is
                // unambiguous outside an open wide group.
                if (wide_expected == 0 &&
                    ins[pos].Input0() == kIndexAllOnes &&
                    ins[pos].Input1() == kIndexAllOnes) {
                    if (p.format_version_ < kFormatVersionPlanned) {
                        Fail(error, "memory plan at position " +
                                        std::to_string(pos) +
                                        " requires format version >= 3");
                        return std::nullopt;
                    }
                    phase = kPlanTrailer;
                    p.plan_pos_ = pos;
                    break;
                }
                if (p.format_version_ < kFormatVersionWide) {
                    Fail(error, "wide record at position " +
                                    std::to_string(pos) +
                                    " requires format version >= 2");
                    return std::nullopt;
                }
                if (multibit) {
                    Fail(error, "wide-group record at position " +
                                    std::to_string(pos) +
                                    " in a multibit program (LUT programs "
                                    "carry no wide trailer)");
                    return std::nullopt;
                }
                phase = kWideTrailer;
                const uint64_t first_gate = 1 + p.num_inputs_;
                const uint64_t end_gate = first_gate + p.num_gates_;
                if (wide_expected == 0) {
                    // Leader: INPUT0 all-ones, INPUT1 the member count.
                    if (ins[pos].Input0() != kIndexAllOnes) {
                        Fail(error,
                             "wide member record without a leader at "
                             "position " +
                                 std::to_string(pos));
                        return std::nullopt;
                    }
                    wide_expected = ins[pos].Input1();
                    if (wide_expected < 2 || wide_expected > p.num_gates_) {
                        Fail(error, "wide leader at position " +
                                        std::to_string(pos) +
                                        " declares an invalid member count");
                        return std::nullopt;
                    }
                    wide_current.members.clear();
                    wide_current.members.reserve(wide_expected);
                    break;
                }
                // Member pair record; the second slot of the group's final
                // record pads with all-ones when the count is odd.
                for (const uint64_t m : {ins[pos].Input0(),
                                         ins[pos].Input1()}) {
                    if (wide_expected == 0) {
                        if (m != kIndexAllOnes) {
                            Fail(error, "wide record at position " +
                                            std::to_string(pos) +
                                            " carries an extra member");
                            return std::nullopt;
                        }
                        continue;
                    }
                    if (m < first_gate || m >= end_gate) {
                        Fail(error, "wide member at position " +
                                        std::to_string(pos) +
                                        " is not a gate index");
                        return std::nullopt;
                    }
                    const auto type =
                        static_cast<circuit::GateType>(ins[m].TypeField());
                    if (!circuit::NeedsBootstrap(type)) {
                        Fail(error, "wide member " + std::to_string(m) +
                                        " is not a bootstrapped gate");
                        return std::nullopt;
                    }
                    if (!wide_current.members.empty() &&
                        ins[m].TypeField() !=
                            ins[wide_current.members[0]].TypeField()) {
                        Fail(error, "wide group ending at position " +
                                        std::to_string(pos) +
                                        " mixes gate types");
                        return std::nullopt;
                    }
                    if (!wide_used.insert(m).second) {
                        Fail(error, "gate " + std::to_string(m) +
                                        " appears in more than one wide "
                                        "group");
                        return std::nullopt;
                    }
                    wide_current.members.push_back(m);
                    --wide_expected;
                }
                if (wide_expected == 0)
                    p.wide_ops_.push_back(std::move(wide_current));
                break;
            }
        }
    }
    if (wide_expected != 0) {
        Fail(error, "truncated wide group: " + std::to_string(wide_expected) +
                        " members missing");
        return std::nullopt;
    }
    if (p.num_gates_ != declared_gates) {
        Fail(error, "header declares " + std::to_string(declared_gates) +
                        " gates but program contains " +
                        std::to_string(p.num_gates_));
        return std::nullopt;
    }
    if (multibit) {
        if (!lut_head_seen) {
            Fail(error, "multibit program misses its LUT operand table");
            return std::nullopt;
        }
        if (lut_values_left != 0) {
            Fail(error, "truncated LUT operand table: " +
                            std::to_string(lut_values_left) +
                            " entries missing");
            return std::nullopt;
        }
        uint64_t total_arity = 0;
        for (const LutRecord& r : p.lut_records_) total_arity += r.arity;
        if (total_arity != lut_declared) {
            Fail(error, "LUT operand-table head declares " +
                            std::to_string(lut_declared) +
                            " entries but the gates reference " +
                            std::to_string(total_arity));
            return std::nullopt;
        }
        // Resolve and semantically validate every LUT gate, mirroring
        // Netlist::Validate: offsets in range, operands strictly
        // ascending prior indices, the declared lo equal to the minimum
        // reachable weighted sum over nominal digit ranges, and the
        // reachable domain inside the message modulus and the table word.
        const uint64_t first_gate = p.FirstGateIndex();
        for (uint64_t g = 0; g < p.lut_records_.size(); ++g) {
            const LutRecord& r = p.lut_records_[g];
            const uint64_t pos = first_gate + g;
            if (r.first_op > lut_declared ||
                r.arity > lut_declared - r.first_op) {
                Fail(error, "LUT gate at position " + std::to_string(pos) +
                                " references operand entries past the table");
                return std::nullopt;
            }
            int64_t lo = 0, hi = 0;
            uint64_t prev_in = 0;
            for (uint64_t e = r.first_op; e < r.first_op + r.arity; ++e) {
                const auto& [in, w] = p.lut_operands_[e];
                if (in == 0 || in >= pos) {
                    Fail(error, "LUT gate at position " +
                                    std::to_string(pos) +
                                    " references an invalid index " +
                                    std::to_string(in));
                    return std::nullopt;
                }
                if (e > r.first_op && in <= prev_in) {
                    Fail(error, "LUT gate at position " +
                                    std::to_string(pos) +
                                    " carries unsorted or duplicate "
                                    "operand entries");
                    return std::nullopt;
                }
                prev_in = in;
                // Nominal operand range: [0, 2^digit_bits - 1], the
                // producing gate's declared output width (inputs are
                // 1-bit wires).
                const int64_t vmax =
                    in >= first_gate &&
                            p.lut_records_[in - first_gate].out_bits == 2
                        ? 3
                        : 1;
                if (w > 0)
                    hi += static_cast<int64_t>(w) * vmax;
                else
                    lo += static_cast<int64_t>(w) * vmax;
            }
            if (lo != r.lo) {
                Fail(error, "LUT gate at position " + std::to_string(pos) +
                                " declares lo " + std::to_string(r.lo) +
                                " but its operands reach " +
                                std::to_string(lo));
                return std::nullopt;
            }
            const int64_t domain = hi - lo + 1;
            if (domain > p.message_modulus_) {
                Fail(error, "LUT gate at position " + std::to_string(pos) +
                                " spans " + std::to_string(domain) +
                                " sums, more than the message modulus " +
                                std::to_string(p.message_modulus_));
                return std::nullopt;
            }
            if (domain * r.out_bits > 32) {
                Fail(error, "LUT gate at position " + std::to_string(pos) +
                                " does not fit its 32-bit table");
                return std::nullopt;
            }
        }
        // Circuit outputs must be 1-bit digits, like Netlist::Validate.
        for (const uint64_t src : p.outputs_) {
            if (src >= first_gate &&
                p.lut_records_[src - first_gate].out_bits != 1) {
                Fail(error, "output references the 2-bit digit at position " +
                                std::to_string(src) +
                                "; outputs must be 1-bit");
                return std::nullopt;
            }
        }
    }
    if (phase == kPlanTrailer) {
        if (!plan_head_seen || plan_values_left != 0) {
            Fail(error, "truncated memory plan section");
            return std::nullopt;
        }
        if (!PlanIsSafe(p, plan_current, error)) return std::nullopt;
        p.plan_ = std::move(plan_current);
    }
    return p;
}

GateDependencies Program::BuildGateDependencies() const {
    GateDependencies deps;
    deps.first_gate = FirstGateIndex();
    const uint64_t end_gate = deps.first_gate + num_gates_;
    deps.pred_count.assign(num_gates_, 0);

    // Two passes over the gates: count each gate's fan-out, then fill the
    // CSR successor lists. Both operands count, even when they coincide.
    std::vector<uint64_t> fan_out(num_gates_, 0);
    for (uint64_t idx = deps.first_gate; idx < end_gate; ++idx) {
        ForEachOperand(idx, [&](uint64_t in) {
            if (in < deps.first_gate) return;  // Program input.
            ++deps.pred_count[idx - deps.first_gate];
            ++fan_out[in - deps.first_gate];
        });
    }
    deps.succ_offsets.assign(num_gates_ + 1, 0);
    for (uint64_t g = 0; g < num_gates_; ++g)
        deps.succ_offsets[g + 1] = deps.succ_offsets[g] + fan_out[g];
    deps.successors.resize(deps.succ_offsets[num_gates_]);
    std::vector<uint64_t> cursor(deps.succ_offsets.begin(),
                                 deps.succ_offsets.end() - 1);
    for (uint64_t idx = deps.first_gate; idx < end_gate; ++idx) {
        ForEachOperand(idx, [&](uint64_t in) {
            if (in < deps.first_gate) return;
            deps.successors[cursor[in - deps.first_gate]++] = idx;
        });
    }
    return deps;
}

GateDependencies Program::BuildGateDependencies(
    const MemoryPlan* plan) const {
    if (plan == nullptr) return BuildGateDependencies();
    const uint64_t first_gate = FirstGateIndex();
    const uint64_t end_gate = first_gate + num_gates_;

    // Anti-dependency edges (r -> w): gate w overwrites the slot last held
    // by value u, so every gate r reading u must finish first
    // (write-after-read); a reader-less gate u must itself finish first
    // (write-after-write). Validation guarantees last[u] <= w, so the
    // edges always point forward; r == w is the in-place case (w consumes
    // u and writes its slot), safe without an edge because gate kernels
    // read all operands before writing the destination.
    std::vector<std::vector<uint64_t>> readers(end_gate);
    for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
        ForEachOperand(idx, [&](uint64_t in) {
            auto& r = readers[in];
            if (r.empty() || r.back() != idx) r.push_back(idx);
        });
    }
    std::vector<std::pair<uint64_t, uint64_t>> anti;  // (r, w)
    std::vector<uint64_t> prev(plan->num_slots, 0);
    for (uint64_t v = 1; v < end_gate; ++v) {
        const uint64_t u = prev[plan->slot_of[v]];
        if (u != 0 && v >= first_gate) {
            if (readers[u].empty()) {
                if (u >= first_gate) anti.emplace_back(u, v);
            } else {
                for (const uint64_t r : readers[u])
                    if (r != v) anti.emplace_back(r, v);
            }
        }
        prev[plan->slot_of[v]] = v;
    }

    GateDependencies deps = BuildGateDependencies();
    if (anti.empty()) return deps;
    for (const auto& [r, w] : anti) {
        (void)r;
        ++deps.pred_count[w - first_gate];
    }
    std::vector<uint64_t> extra(num_gates_, 0);
    for (const auto& [r, w] : anti) {
        (void)w;
        ++extra[r - first_gate];
    }
    // Rebuild the CSR with room for the extra edges per source gate.
    std::vector<uint64_t> offsets(num_gates_ + 1, 0);
    for (uint64_t g = 0; g < num_gates_; ++g)
        offsets[g + 1] = offsets[g] + (deps.succ_offsets[g + 1] -
                                       deps.succ_offsets[g]) +
                         extra[g];
    std::vector<uint64_t> successors(offsets[num_gates_]);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (uint64_t g = 0; g < num_gates_; ++g)
        for (uint64_t i = deps.succ_offsets[g]; i < deps.succ_offsets[g + 1];
             ++i)
            successors[cursor[g]++] = deps.successors[i];
    for (const auto& [r, w] : anti) successors[cursor[r - first_gate]++] = w;
    deps.succ_offsets = std::move(offsets);
    deps.successors = std::move(successors);
    return deps;
}

std::vector<uint64_t> Program::ValueLevels() const {
    const uint64_t first_gate = FirstGateIndex();
    const uint64_t end_gate = first_gate + num_gates_;
    std::vector<uint64_t> level(end_gate, 0);
    for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
        uint64_t deepest = 0;
        ForEachOperand(idx, [&](uint64_t in) {
            deepest = std::max(deepest, level[in]);
        });
        level[idx] = 1 + deepest;
    }
    return level;
}

std::optional<Program> Program::WithPlan(MemoryPlan plan,
                                         std::string* error) const {
    const uint64_t num_values = num_inputs_ + num_gates_;
    if (num_values == 0) return *this;
    if (plan.slot_of.size() != 1 + num_values) {
        Fail(error, "memory plan covers " +
                        std::to_string(plan.slot_of.size()) +
                        " entries but the program has " +
                        std::to_string(num_values) + " values");
        return std::nullopt;
    }
    std::vector<Instruction> ins(
        instructions_.begin(),
        plan_pos_ != 0 ? instructions_.begin() + plan_pos_
                       : instructions_.end());
    // A plan section needs at least version 3; multibit programs keep
    // their version-4 header (and its message-modulus byte).
    const uint64_t version =
        std::max<uint64_t>(format_version_, kFormatVersionPlanned);
    ins[0] = Instruction::MakeHeader(
        num_gates_,
        version | (static_cast<uint64_t>(message_modulus_) << 8));
    ins.reserve(ins.size() + 2 + (num_values + 1) / 2);
    ins.push_back(Instruction::MakePlanSentinel());
    ins.push_back(Instruction::MakePlanHead(
        plan.num_slots, plan.level_safe ? kPlanFlagLevelSafe : 0));
    for (uint64_t v = 1; v <= num_values; v += 2)
        ins.push_back(Instruction::MakePlanSlots(
            plan.slot_of[v],
            v + 1 <= num_values ? plan.slot_of[v + 1] : kIndexAllOnes));
    return FromInstructions(std::move(ins), error);
}

void Program::Serialize(std::ostream& os) const {
    for (const Instruction& i : instructions_) {
        char buf[16];
        for (int b = 0; b < 8; ++b) {
            buf[b] = static_cast<char>((i.lo >> (8 * b)) & 0xFF);
            buf[8 + b] = static_cast<char>((i.hi >> (8 * b)) & 0xFF);
        }
        os.write(buf, 16);
    }
}

std::optional<Program> Program::Deserialize(std::istream& is,
                                            std::string* error) {
    std::vector<Instruction> ins;
    char buf[16];
    while (is.read(buf, 16)) {
        Instruction i;
        for (int b = 0; b < 8; ++b) {
            i.lo |= static_cast<uint64_t>(static_cast<uint8_t>(buf[b]))
                    << (8 * b);
            i.hi |= static_cast<uint64_t>(static_cast<uint8_t>(buf[8 + b]))
                    << (8 * b);
        }
        ins.push_back(i);
    }
    if (is.gcount() != 0) {
        Fail(error, "trailing bytes: file size is not a multiple of 16");
        return std::nullopt;
    }
    return FromInstructions(std::move(ins), error);
}

bool Program::SaveToFile(const std::string& path) const {
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    Serialize(f);
    return static_cast<bool>(f);
}

std::optional<Program> Program::LoadFromFile(const std::string& path,
                                             std::string* error) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        Fail(error, "cannot open " + path);
        return std::nullopt;
    }
    return Deserialize(f, error);
}

std::string Program::Disassemble() const {
    std::ostringstream os;
    bool in_plan = false;
    for (uint64_t pos = 0; pos < instructions_.size(); ++pos) {
        if (IsLutGate(pos)) {
            const DecodedLut l = LutAt(pos);
            os << pos << ": LUT table=0x" << std::hex << l.table << std::dec
               << " lo=" << l.lo
               << " out_bits=" << static_cast<int>(l.out_bits);
            for (const auto& [in, w] : l.operands)
                os << " " << static_cast<int>(w) << "*v" << in;
            os << "\n";
            continue;
        }
        // Multibit programs keep the packed operand table after the
        // outputs; print it as such rather than as a wide trailer (the
        // records share the 0xE nibble). Plan-trailer records (after the
        // sentinel) keep the generic printing.
        const Instruction& ins = instructions_[pos];
        if (ins.Input0() == kIndexAllOnes && ins.Input1() == kIndexAllOnes &&
            ins.Kind(pos) == InstructionKind::kWide)
            in_plan = true;
        if (message_modulus_ != 0 && !in_plan &&
            ins.Kind(pos) == InstructionKind::kWide) {
            if (ins.Input0() == kIndexAllOnes) {
                os << pos << ": LUTOPS " << ins.Input1() << " entries\n";
            } else {
                os << pos << ": LUTOPS";
                for (const uint64_t e : {ins.Input0(), ins.Input1()}) {
                    if (e == kIndexAllOnes) continue;  // Odd-count padding.
                    os << " "
                       << static_cast<int32_t>(e >> kLutOperandIndexBits) -
                              128
                       << "*v" << (e & kLutOperandIndexMask);
                }
                os << "\n";
            }
            continue;
        }
        os << ins.ToString(pos) << "\n";
    }
    return os.str();
}

}  // namespace pytfhe::pasm
