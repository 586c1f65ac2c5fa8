/**
 * @file
 * core::Service tests: the multi-tenant serving runtime end to end under
 * real (toy-parameter) encryption — tenant key registry, concurrent
 * submissions from many clients with bit-exact results, typed rejection
 * paths, and the redesigned Server::Run(RunOptions) API (deadline,
 * profiling, deprecated positional shim). Labeled `concurrency` for the
 * -DPYTFHE_SANITIZE=thread job.
 */
#include "core/service.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/compiler.h"
#include "hdl/word_ops.h"

namespace pytfhe::core {
namespace {

using hdl::Bits;
using hdl::Builder;
using hdl::DType;

circuit::Netlist AdderNetlist() {
    Builder b;
    const Bits x = hdl::InputBits(b, 8, "x");
    const Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    return std::move(b.netlist());
}

TEST(KeyId, StableAcrossEvaluationKeysDistinctAcrossClients) {
    Client alice(tfhe::ToyParams(), /*seed=*/21);
    Client bob(tfhe::ToyParams(), /*seed=*/22);
    ASSERT_TRUE(alice.key_id().IsSet());
    ASSERT_TRUE(bob.key_id().IsSet());
    EXPECT_NE(alice.key_id(), bob.key_id());

    // Every evaluation key a client produces carries the client's id,
    // even though bootstrapping-key generation draws fresh randomness.
    const auto key1 = alice.MakeEvaluationKey();
    const auto key2 = alice.MakeEvaluationKey();
    EXPECT_EQ(key1->key_id(), alice.key_id());
    EXPECT_EQ(key2->key_id(), alice.key_id());
    EXPECT_EQ(alice.MakeServer()->key_id(), alice.key_id());
    EXPECT_NE(key1->key_id().ToString(), bob.key_id().ToString());
}

TEST(Service, RegistryAcceptsTenantsAndRejectsUnknownKeys) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());

    Service service;
    Client alice(tfhe::ToyParams(), 31);
    Client bob(tfhe::ToyParams(), 32);
    const KeyId alice_id = service.RegisterTenant(alice.MakeEvaluationKey());
    EXPECT_EQ(alice_id, alice.key_id());
    // Re-registering the same id returns the same id and REPLACES the
    // stored key (key refresh) — the registry still holds one tenant.
    EXPECT_EQ(service.RegisterTenant(alice.MakeEvaluationKey()), alice_id);
    EXPECT_EQ(service.stats().tenants, 1u);

    EXPECT_THROW((void)service.RegisterTenant(nullptr),
                 std::invalid_argument);

    // Bob never registered: his submission is rejected by key identity
    // instead of being evaluated under Alice's key into garbage.
    const DType u8 = DType::UInt(8);
    EXPECT_THROW((void)service.Submit(bob.key_id(), compiled->program,
                                      bob.EncryptValues(u8, {1, 2})),
                 UnknownKeyError);
    EXPECT_THROW((void)service.Submit(KeyId{}, compiled->program,
                                      bob.EncryptValues(u8, {1, 2})),
                 UnknownKeyError);
}

TEST(Service, ReRegistrationReplacesStaleKey) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());
    const auto program =
        std::make_shared<const pasm::Program>(compiled->program);

    Service service;
    Client alice(tfhe::ToyParams(), 33);
    const DType u8 = DType::UInt(8);
    const Ciphertexts in = alice.EncryptValues(u8, {20, 22});

    // MakeEvaluationKey draws fresh bootstrapping randomness each call, so
    // the two keys produce different (equally decryptable) ciphertexts —
    // which key the service evaluates under is observable bit-exactly.
    auto old_key = alice.MakeEvaluationKey();
    auto new_key = alice.MakeEvaluationKey();
    ASSERT_EQ(service.RegisterTenant(old_key), alice.key_id());
    ASSERT_EQ(service.RegisterTenant(new_key), alice.key_id());
    EXPECT_EQ(service.stats().tenants, 1u);

    backend::TfheEvaluator new_eval(*new_key);
    const Ciphertexts want = backend::RunProgram(*program, new_eval, in);
    JobHandle job = service.Submit(alice.key_id(), program, in);
    const Ciphertexts& got = job.Get();
    // The refreshed key — not the stale first registration — served this
    // job (this was silently try_emplace'd away before).
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].a, want[i].a) << "output " << i;
        EXPECT_EQ(got[i].b, want[i].b) << "output " << i;
    }
    EXPECT_EQ(alice.DecryptValue(u8, got), 42);
}

TEST(Service, TwoTenantsConcurrentJobsMatchSequentialServer) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());
    const auto program =
        std::make_shared<const pasm::Program>(compiled->program);

    ServiceOptions opts;
    opts.serving.num_workers = 4;
    Service service(opts);

    Client alice(tfhe::ToyParams(), 41);
    Client bob(tfhe::ToyParams(), 42);
    // Keep handles on the registered keys: bit-identical ground truth must
    // evaluate under the *same* bootstrapping key the service holds (a
    // second MakeEvaluationKey call draws fresh key randomness and yields
    // different — though equally decryptable — ciphertexts).
    auto alice_key = alice.MakeEvaluationKey();
    auto bob_key = bob.MakeEvaluationKey();
    const KeyId alice_id = service.RegisterTenant(alice_key);
    const KeyId bob_id = service.RegisterTenant(bob_key);
    EXPECT_EQ(service.stats().tenants, 2u);

    struct Case {
        int a, b;
    };
    const std::vector<Case> cases{{3, 4}, {100, 55}, {200, 99}, {17, 240}};

    std::vector<std::string> failures(2);
    auto tenant_worker = [&](int which, Client& client, KeyId id,
                             tfhe::GateEvaluator& key) {
        const DType t = DType::UInt(8);
        backend::TfheEvaluator eval(key);
        for (const Case& c : cases) {
            Ciphertexts in = client.EncryptValues(
                t, {static_cast<double>(c.a), static_cast<double>(c.b)});
            const Ciphertexts want = backend::RunProgram(*program, eval, in);
            JobHandle job = service.Submit(id, program, in);
            if (job.Wait() != JobStatus::kDone) {
                failures[which] = "job not done";
                return;
            }
            // Bit-identical to the sequential single-tenant run, not just
            // equal after decryption.
            const Ciphertexts& got = job.Get();
            if (got.size() != want.size()) {
                failures[which] = "size mismatch";
                return;
            }
            for (size_t i = 0; i < got.size(); ++i) {
                if (got[i].a != want[i].a || got[i].b != want[i].b) {
                    failures[which] = "ciphertext mismatch at output " +
                                      std::to_string(i);
                    return;
                }
            }
            const double sum = client.DecryptValue(t, got);
            if (sum != (c.a + c.b) % 256) {
                failures[which] = "wrong sum " + std::to_string(sum);
                return;
            }
            if (job.Metrics().gates_executed != program->NumGates()) {
                failures[which] = "metrics gate count mismatch";
                return;
            }
        }
    };

    std::thread alice_thread(tenant_worker, 0, std::ref(alice), alice_id,
                             std::ref(*alice_key));
    std::thread bob_thread(tenant_worker, 1, std::ref(bob), bob_id,
                           std::ref(*bob_key));
    alice_thread.join();
    bob_thread.join();
    EXPECT_EQ(failures[0], "");
    EXPECT_EQ(failures[1], "");

    const Service::Stats stats = service.stats();
    EXPECT_EQ(stats.serving.jobs_submitted, 2 * cases.size());
    EXPECT_EQ(stats.serving.jobs_completed, 2 * cases.size());
    EXPECT_EQ(stats.serving.gates_executed,
              2 * cases.size() * program->NumGates());
}

TEST(Service, DeadlineResolvesJobDeadlineExceeded) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());
    Service service;
    Client client(tfhe::ToyParams(), 51);
    const KeyId id = service.RegisterTenant(client.MakeEvaluationKey());

    RunOptions options;
    options.deadline_seconds = 1e-9;  // Expires before admission.
    JobHandle job = service.Submit(id, compiled->program,
                                   client.EncryptValues(DType::UInt(8),
                                                        {9, 9}),
                                   options);
    EXPECT_EQ(job.Wait(), JobStatus::kDeadlineExceeded);
    EXPECT_THROW((void)job.Get(), backend::DeadlineExceededError);
}

TEST(Runtime, RunOptionsDeadlineThrowsTypedError) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());
    Client client(tfhe::ToyParams(), 52);
    auto server = client.MakeServer();
    const Ciphertexts in = client.EncryptValues(DType::UInt(8), {5, 6});

    RunOptions expired;
    expired.deadline_seconds = 1e-9;
    EXPECT_THROW((void)server->Run(compiled->program, in, expired),
                 backend::DeadlineExceededError);
    expired.num_threads = 4;
    EXPECT_THROW((void)server->Run(compiled->program, in, expired),
                 backend::DeadlineExceededError);

    RunOptions generous;
    generous.deadline_seconds = 3600.0;
    const auto out = server->Run(compiled->program, in, generous);
    EXPECT_EQ(client.DecryptValue(DType::UInt(8), out), 11);
}

TEST(Runtime, ProfileToggleRecordsPerRunDelta) {
    auto compiled = Compile(AdderNetlist());
    ASSERT_TRUE(compiled.has_value());
    Client client(tfhe::ToyParams(), 53);
    auto server = client.MakeServer();
    const Ciphertexts in = client.EncryptValues(DType::UInt(8), {1, 2});

    // Unprofiled runs leave last_run_profile untouched.
    (void)server->Run(compiled->program, in);
    EXPECT_EQ(server->last_run_profile().bootstrap_count, 0u);

    RunOptions profiled;
    profiled.profile = true;
    (void)server->Run(compiled->program, in, profiled);
    const auto first = server->last_run_profile();
    EXPECT_GT(first.bootstrap_count, 0u);
    EXPECT_GT(first.blind_rotate_seconds, 0.0);

    // The recorded profile is the per-run delta, not the cumulative total.
    (void)server->Run(compiled->program, in, profiled);
    EXPECT_EQ(server->last_run_profile().bootstrap_count,
              first.bootstrap_count);
    EXPECT_GT(server->profile().bootstrap_count(),
              first.bootstrap_count);
}

}  // namespace
}  // namespace pytfhe::core
