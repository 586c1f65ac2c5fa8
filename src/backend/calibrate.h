/**
 * @file
 * Calibration: derive simulator cost models from real measurements on the
 * local machine, instead of the paper-scale defaults in cost_model.h.
 */
#ifndef PYTFHE_BACKEND_CALIBRATE_H
#define PYTFHE_BACKEND_CALIBRATE_H

#include "backend/cost_model.h"
#include "tfhe/gates.h"

namespace pytfhe::backend {

/**
 * Times `samples` bootstrapped gates (and noiseless NOTs) through the
 * given evaluator and returns a cost model with the measured means.
 */
CpuCostModel MeasureCpuCostModel(tfhe::GateEvaluator& gates,
                                 tfhe::SecretKeySet& secret, tfhe::Rng& rng,
                                 int32_t samples = 10);

/**
 * Measures the batched-bootstrap speedups (shared key traffic of
 * GateEvaluator::BatchedLinearBootstrap) at batch 2/4/8 relative to
 * batch 1 on this machine, and overwrites `model`'s batchN_speedup
 * fields. `samples` batches are timed per size. Speedups below 1 are
 * clamped to 1 so a noisy measurement never makes the simulators model
 * batching as a slowdown.
 */
void MeasureBatchSpeedups(tfhe::GateEvaluator& gates,
                          tfhe::SecretKeySet& secret, tfhe::Rng& rng,
                          CpuCostModel* model, int32_t samples = 3);

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_CALIBRATE_H
