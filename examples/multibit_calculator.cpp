/**
 * @file
 * Encrypted word arithmetic on weighted programmable bootstraps — the
 * extension layer beyond the paper's gate-level programs.
 *
 * Where the classic pipeline spends one bootstrap per boolean gate, the
 * hdl::Multibit* generators pack several bits into one weighted LUT
 * bootstrap under message modulus 16 (tfhe/multibit.h). This example
 * builds two such circuits, compiles them with CompileOptions::multibit,
 * and runs them through the ordinary client/server protocol:
 *
 *  - (a * b + c) mod 4 over 2-bit words, for all 64 inputs;
 *  - 27 + 57 = 84 as a 7-bit addition.
 *
 * Toy (INSECURE, fast) multibit parameters. Exits nonzero on any wrong
 * answer.
 */
#include <cstdio>
#include <optional>
#include <string>

#include "core/compiler.h"
#include "core/runtime.h"
#include "hdl/multibit_ops.h"
#include "tfhe/noise.h"

using namespace pytfhe;

namespace {

/** Compiles a multibit netlist as a LUT program, or reports why not. */
std::optional<core::Compiled> CompileLuts(const circuit::Netlist& netlist,
                                          const tfhe::Params& params) {
    core::CompileOptions options;
    options.params = params;
    options.multibit = 16;
    std::string error;
    auto compiled = core::Compile(netlist, options, &error);
    if (!compiled || compiled->program.MessageModulus() != 16) {
        std::fprintf(stderr, "compilation failed: %s\n",
                     compiled ? "fell back to boolean" : error.c_str());
        return std::nullopt;
    }
    return compiled;
}

}  // namespace

int main() {
    const tfhe::Params params = tfhe::ToyMultibitParams();
    const hdl::MultibitPlan plan{
        16, tfhe::MaxMultibitWeightBudget(params, 16)};
    std::printf("parameter set: %s, LUT weight budget %lld\n",
                params.name.c_str(),
                static_cast<long long>(plan.weight_budget));

    // 1. Describe both computations with the multibit generators.
    hdl::Builder mac;
    {
        const hdl::Bits a = hdl::InputBits(mac, 2, "a");
        const hdl::Bits b = hdl::InputBits(mac, 2, "b");
        const hdl::Bits c = hdl::InputBits(mac, 2, "c");
        hdl::OutputBits(
            mac,
            hdl::MultibitAdd(mac, plan, hdl::MultibitUMul(mac, plan, a, b, 2),
                             c),
            "r");
    }
    hdl::Builder adder;
    {
        const hdl::Bits x = hdl::InputBits(adder, 7, "x");
        const hdl::Bits y = hdl::InputBits(adder, 7, "y");
        hdl::OutputBits(adder, hdl::MultibitAdd(adder, plan, x, y), "s");
    }

    // 2. Compile to LUT programs (pasm v4).
    const auto mac_prog = CompileLuts(mac.netlist(), params);
    const auto add_prog = CompileLuts(adder.netlist(), params);
    if (!mac_prog || !add_prog) return 1;
    std::printf("compiled: (a * b + c) mod 4 to %llu LUTs, 7-bit add to "
                "%llu LUTs\n",
                static_cast<unsigned long long>(mac_prog->program.NumGates()),
                static_cast<unsigned long long>(add_prog->program.NumGates()));

    // 3. Client keys; the server gets only public key material.
    core::Client client(params, /*seed=*/2024);
    auto server = client.MakeServer();

    // 4. (a * b + c) mod 4 for every 2-bit a, b, c.
    const hdl::DType u2 = hdl::DType::UInt(2);
    const pasm::Program& mp = mac_prog->program;
    int wrong = 0;
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            for (int c = 0; c < 4; ++c) {
                core::Ciphertexts in = client.EncryptValueFor(mp, u2, a);
                for (const int v : {b, c}) {
                    const core::Ciphertexts more =
                        client.EncryptValueFor(mp, u2, v);
                    in.insert(in.end(), more.begin(), more.end());
                }
                const int got = static_cast<int>(
                    client.DecryptValueFor(mp, u2, server->Run(mp, in)));
                if (got != (a * b + c) % 4) {
                    std::printf("WRONG: (%d * %d + %d) mod 4 = %d\n", a, b,
                                c, got);
                    ++wrong;
                }
                if (a == 3 && b == 2 && c == 3)
                    std::printf("(3 * 2 + 3) mod 4 = %d (expected 1)\n", got);
            }
        }
    }
    std::printf("(a * b + c) mod 4: %d of 64 inputs correct\n", 64 - wrong);

    // 5. A 7-bit addition.
    const hdl::DType u7 = hdl::DType::UInt(7);
    const pasm::Program& ap = add_prog->program;
    core::Ciphertexts in = client.EncryptValueFor(ap, u7, 27);
    const core::Ciphertexts more = client.EncryptValueFor(ap, u7, 57);
    in.insert(in.end(), more.begin(), more.end());
    const double sum = client.DecryptValueFor(ap, u7, server->Run(ap, in));
    std::printf("27 + 57 = %g (expected 84)\n", sum);
    return wrong == 0 && sum == 84 ? 0 : 1;
}
