#include "tfhe/noise.h"

#include <cmath>
#include <sstream>

namespace pytfhe::tfhe {

NoiseAnalysis AnalyzeNoise(const Params& p, double elision_safety_margin) {
    NoiseAnalysis a;
    a.fresh_lwe_variance = p.lwe_noise_stddev * p.lwe_noise_stddev;

    // Blind rotation: n external products. Each adds
    //   (k+1) * l * N * beta^2 * sigma_bk^2         (key noise term)
    // + (1 + k*N) * eps^2                           (decomposition error)
    // with beta = Bg/2 and eps = 1 / (2 * Bg^l).
    const double beta = p.Bg() / 2.0;
    const double sigma_bk2 = p.tlwe_noise_stddev * p.tlwe_noise_stddev;
    const double eps = 1.0 / (2.0 * std::pow(p.Bg(), p.bk_l));
    const double per_cmux =
        (p.k + 1) * p.bk_l * p.big_n * beta * beta * sigma_bk2 +
        (1.0 + p.k * p.big_n) * eps * eps;
    a.blind_rotate_variance = p.n * per_cmux;

    // Key switching from dimension kN to n: every nonzero signed digit
    // adds or subtracts one key sample (at most t per input coefficient),
    // plus the rounding of each input coefficient to t digits.
    const double sigma_ks2 = p.lwe_noise_stddev * p.lwe_noise_stddev;
    const double ks_rounding =
        std::pow(2.0, -2.0 * (p.ks_t * p.ks_base_bit + 1)) / 3.0;
    a.key_switch_variance =
        static_cast<double>(p.ExtractedN()) * (p.ks_t * sigma_ks2 + ks_rounding);

    a.gate_output_variance =
        a.blind_rotate_variance + a.key_switch_variance;

    // Mod switch to Z_2N: each of the n+1 coefficients is rounded to a
    // multiple of 1/(2N); uniform error of width 1/(2N) has variance
    // (1/2N)^2 / 12, scaled by the key's expected weight (n/2 + 1 terms).
    const double step = 1.0 / (2.0 * p.big_n);
    a.mod_switch_variance = (p.n / 2.0 + 1.0) * step * step / 12.0;

    // Worst linear combination: XOR computes 2*(a + b), amplifying each
    // input's variance by 4. Inputs are gate outputs (post-bootstrap).
    a.worst_gate_input_variance =
        4.0 * 2.0 * a.gate_output_variance + a.mod_switch_variance;

    // The decision margin of the gate encoding is 1/8: linear
    // combinations sit at distance 1/8 from the sign boundary.
    a.gate_failure_probability =
        FailureProbability(a.worst_gate_input_variance, kGateDecisionMargin);

    a.elision_safety_margin = elision_safety_margin;
    a.max_linear_depth =
        MaxLinearDepth(a, kDefaultMaxGateFailure, elision_safety_margin);
    return a;
}

int32_t MaxLinearDepth(const NoiseAnalysis& a, double max_failure,
                       double safety_margin) {
    // A chain of k linear XORs accumulates k+1 bootstrapped operands, each
    // with total coefficient 2 (coefficient 2 on entry, 1 on every later
    // hop), so its variance is 4*(k+1)*gate_output_variance. The binding
    // consumer is one more bootstrapped XOR, which adds a second
    // gate-domain operand (coefficient 2) plus the mod-switch error and
    // decides at the +-1/4 margin of the combined phase.
    int32_t depth = 0;
    for (int32_t k = 1; k <= 64; ++k) {
        const double variance =
            safety_margin * (4.0 * (k + 2) * a.gate_output_variance +
                             a.mod_switch_variance);
        if (FailureProbability(variance, kLinearDecisionMargin) > max_failure)
            break;
        depth = k;
    }
    return depth;
}

double FailureProbability(double variance, double margin) {
    if (variance <= 0) return 0.0;
    return std::erfc(margin / std::sqrt(2.0 * variance));
}

bool CheckParams(const Params& params, double max_failure,
                 std::string* report) {
    const NoiseAnalysis a = AnalyzeNoise(params);
    if (report != nullptr) *report = a.ToString();
    return a.gate_failure_probability <= max_failure;
}

MultibitNoiseCheck CheckMultibitParams(const Params& params,
                                       int32_t message_modulus,
                                       int64_t weight_sq, double max_failure,
                                       double safety_margin) {
    MultibitNoiseCheck c;
    c.message_modulus = message_modulus;
    c.weight_sq = weight_sq;
    const int32_t p = message_modulus;
    if (p < 2 || p > 16 || (p & (p - 1)) != 0) {
        c.reason = "message modulus " + std::to_string(p) +
                   " is not a power of two in [2, 16]";
        return c;
    }
    if (2 * p > params.big_n) {
        c.reason = "2p = " + std::to_string(2 * p) + " exceeds N = " +
                   std::to_string(params.big_n) +
                   " (each message needs >= 2 test-vector slots)";
        return c;
    }
    if (weight_sq < 1) {
        c.reason = "weight budget must be positive";
        return c;
    }
    const NoiseAnalysis a = AnalyzeNoise(params, safety_margin);
    c.packed_variance = static_cast<double>(weight_sq) *
                            a.gate_output_variance +
                        a.mod_switch_variance;
    c.margin = 1.0 / (4.0 * p);
    c.failure_probability =
        FailureProbability(safety_margin * c.packed_variance, c.margin);
    if (c.failure_probability > max_failure) {
        std::ostringstream os;
        os << "slot-decision failure " << c.failure_probability
           << " above bound " << max_failure << " at p = " << p
           << ", sum w^2 = " << weight_sq;
        c.reason = os.str();
        return c;
    }
    c.fits = true;
    return c;
}

int64_t MaxMultibitWeightBudget(const Params& params, int32_t message_modulus,
                                double max_failure, double safety_margin) {
    // failure = erfc(margin / sqrt(2 * safety * var)) is monotone in
    // weight_sq, so binary search would do; the cap is small enough that a
    // doubling scan plus backoff is simpler and equally cheap.
    int64_t best = 0;
    for (int64_t w = 1; w <= 4096; w = w < 64 ? w + 1 : w + w / 8) {
        if (CheckMultibitParams(params, message_modulus, w, max_failure,
                                safety_margin)
                .fits) {
            best = w;
        } else {
            break;
        }
    }
    return best;
}

std::string NoiseAnalysis::ToString() const {
    std::ostringstream os;
    os << "fresh lwe:        " << fresh_lwe_variance << "\n"
       << "blind rotate:     " << blind_rotate_variance << "\n"
       << "key switch:       " << key_switch_variance << "\n"
       << "gate output:      " << gate_output_variance << "\n"
       << "mod switch:       " << mod_switch_variance << "\n"
       << "worst gate input: " << worst_gate_input_variance << "\n"
       << "gate failure p:   " << gate_failure_probability << "\n"
       << "elision safety:   " << elision_safety_margin
       << "x variance slack\n"
       << "max linear depth: " << max_linear_depth
       << " chained elided XORs\n";
    return os.str();
}

}  // namespace pytfhe::tfhe
