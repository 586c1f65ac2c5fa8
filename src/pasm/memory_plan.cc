#include "pasm/memory_plan.h"

#include <algorithm>

#include "circuit/opt/slot_alloc.h"

namespace pytfhe::pasm {

ValueLiveness ComputeValueLiveness(const Program& program) {
    const uint64_t first_gate = program.FirstGateIndex();
    const uint64_t end_gate = first_gate + program.NumGates();

    // Exact liveness: last reader per value, with outputs pinned. The
    // death *level* is the max wave level over all readers — not the level
    // of the last-by-ordinal reader, which can be the shallower one (an
    // earlier-ordinal reader may sit at a deeper level, and level-ordered
    // execution — a level cut — runs it later).
    ValueLiveness out;
    out.first_gate = first_gate;
    out.end_index = end_gate;
    out.level = program.ValueLevels();
    out.last_use.assign(end_gate, 0);
    out.death_level.assign(end_gate, 0);
    for (uint64_t v = 1; v < end_gate; ++v) {
        out.last_use[v] = v;
        out.death_level[v] = out.level[v];
    }
    for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
        program.ForEachOperand(idx, [&](uint64_t in) {
            out.last_use[in] = std::max(out.last_use[in], idx);
            out.death_level[in] = std::max(out.death_level[in], out.level[idx]);
        });
    }
    out.pinned.assign(end_gate, false);
    for (const uint64_t src : program.OutputIndices()) out.pinned[src] = true;
    return out;
}

std::vector<uint64_t> LiveValuesAtLevelCut(const ValueLiveness& liveness,
                                           uint64_t boundary) {
    std::vector<uint64_t> live;
    for (uint64_t v = 1; v < liveness.end_index; ++v) {
        if (liveness.level[v] >= boundary) continue;  // Not yet defined.
        if (liveness.death_level[v] >= boundary || liveness.pinned[v])
            live.push_back(v);
    }
    return live;
}

std::vector<uint64_t> LiveValuesAtOrdinalCut(const ValueLiveness& liveness,
                                             uint64_t last_done) {
    std::vector<uint64_t> live;
    const uint64_t defined_end =
        std::min(last_done + 1, liveness.end_index);
    for (uint64_t v = 1; v < defined_end; ++v) {
        if (liveness.last_use[v] > last_done || liveness.pinned[v])
            live.push_back(v);
    }
    return live;
}

MemoryPlan ComputeMemoryPlan(const Program& program,
                             const MemoryPlanOptions& options) {
    const uint64_t num_values = program.NumInputs() + program.NumGates();

    MemoryPlan plan;
    plan.level_safe = options.level_safe;
    if (num_values == 0) return plan;

    const ValueLiveness liveness = ComputeValueLiveness(program);
    std::vector<circuit::LiveInterval> intervals(num_values);
    for (uint64_t v = 1; v <= num_values; ++v) {
        circuit::LiveInterval& iv = intervals[v - 1];
        iv.def = v;
        iv.last_use = liveness.last_use[v];
        iv.def_level = liveness.level[v];
        iv.death_level = liveness.death_level[v];
        iv.pinned = liveness.pinned[v];
    }

    const circuit::SlotAssignment assignment =
        circuit::AssignSlots(intervals, options.level_safe);
    plan.num_slots = assignment.num_slots;
    plan.slot_of.assign(1 + num_values, 0);
    for (uint64_t v = 1; v <= num_values; ++v)
        plan.slot_of[v] = assignment.slot[v - 1];
    return plan;
}

}  // namespace pytfhe::pasm
