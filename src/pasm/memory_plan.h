/**
 * @file
 * Memory-plan computation: liveness analysis over a program's gate DAG
 * followed by linear-scan slot allocation (circuit/opt/slot_alloc.h). The
 * resulting MemoryPlan maps every value onto a physical ciphertext slot
 * such that peak storage is O(max live ciphertexts) instead of O(gates);
 * Program::WithPlan embeds it as a version-3 plan section.
 */
#ifndef PYTFHE_PASM_MEMORY_PLAN_H
#define PYTFHE_PASM_MEMORY_PLAN_H

#include <vector>

#include "pasm/program.h"

namespace pytfhe::pasm {

struct MemoryPlanOptions {
    /**
     * Restrict slot reuse to wave-level boundaries (a slot freed at level
     * L is reassigned only at level >= L+1). Level-safe plans admit
     * level-cut checkpoints (a wave boundary of the serving scheduler);
     * turning this off packs slightly tighter but limits checkpoints to
     * ordinal cuts. Every plan is valid for in-order and
     * dependency-counting execution. The compiler emits level-safe plans.
     */
    bool level_safe = true;
};

/**
 * Computes a slot plan for `program` from exact per-value live intervals:
 * a value lives from its defining instruction to its last reader; program
 * outputs are pinned (they must survive to harvest and never free their
 * slot). Deterministic, O(V log V).
 */
MemoryPlan ComputeMemoryPlan(const Program& program,
                             const MemoryPlanOptions& options = {});

/**
 * Per-value liveness facts for a program, in the exact form the memory
 * plan is derived from. Vectors are indexed by instruction index
 * (values are 1-based: inputs occupy [1, FirstGateIndex()), gates
 * [FirstGateIndex(), end_index)). Checkpointing consumes this to decide
 * which slots must be snapshotted at a cut.
 */
struct ValueLiveness {
    uint64_t first_gate = 0;  ///< First gate instruction index.
    uint64_t end_index = 0;   ///< One past the last instruction index.
    std::vector<uint64_t> level;        ///< Wave level (inputs are 0).
    std::vector<uint64_t> last_use;     ///< Last reader ordinal (or self).
    std::vector<uint64_t> death_level;  ///< Max reader level (or own).
    std::vector<bool> pinned;           ///< Program outputs.
};

/** Computes the liveness facts ComputeMemoryPlan is built on. O(V). */
ValueLiveness ComputeValueLiveness(const Program& program);

/**
 * Values provably resident in their slots at a quiesced level-`boundary`
 * cut (every gate at level < boundary done, none at level >= boundary
 * started) and still needed afterwards: defined below the cut, with a
 * reader at or above it or pinned as a program output. Valid for
 * level-safe plans (and unplanned execution), where no overwriter of a
 * still-live value can run below the cut.
 */
std::vector<uint64_t> LiveValuesAtLevelCut(const ValueLiveness& liveness,
                                           uint64_t boundary);

/**
 * Values live immediately after instruction `last_done` in sequential
 * (ordinal) execution order: defined at or before it, with a later
 * reader or pinned. Valid for any plan the sequential interpreter
 * accepts, including sequential-tight (non-level-safe) plans.
 */
std::vector<uint64_t> LiveValuesAtOrdinalCut(const ValueLiveness& liveness,
                                             uint64_t last_done);

}  // namespace pytfhe::pasm

#endif  // PYTFHE_PASM_MEMORY_PLAN_H
