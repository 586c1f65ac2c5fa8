/**
 * @file
 * Serving-runtime benchmark: jobs/sec and latency percentiles for the
 * multi-job ServingExecutor against back-to-back Server::Run, at 1, 4,
 * and 16 concurrent clients on 8 shared workers. Emits
 * BENCH_serving.json.
 *
 * The story the numbers tell: one small encrypted job is nearly serial
 * (a ripple adder keeps ~1.3 workers busy), so giving it 8 threads
 * barely helps — but 16 *independent* jobs interleaved gate-by-gate
 * keep all 8 workers saturated and multiply throughput. Toy parameters
 * keep real encrypted bootstraps in the loop without hour-long runs.
 *
 * Gating: wall-clock throughput and percentiles are recorded for humans
 * (machine-noise caveat, like every wall_s metric); the deterministic
 * modeled_s_single_job from the CPU cost model is what bench_check
 * gates on. The acceptance headline `speedup_vs_sequential_1t` at
 * concurrency 16 is asserted here at runtime instead: the binary exits
 * nonzero below 3x, so regressions fail loudly at generation time.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "backend/arena.h"
#include "backend/cluster_sim.h"
#include "backend/serving.h"
#include "bench_util.h"
#include "core/key_cache.h"
#include "core/service.h"
#include "hdl/word_ops.h"
#include "pasm/assembler.h"
#include "pasm/memory_plan.h"
#include "tfhe/serialization.h"

// Counting global allocator for the allocs-per-gate metric in the memory
// suite. A relaxed fetch_add per allocation is noise next to a bootstrap,
// and the plain-suite numbers are regenerated with the same binary as
// their baseline, so the accounting does not skew any gated metric.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// The replacements below allocate with malloc/aligned_alloc and release
// with free, a pairing GCC cannot see through operator new/delete, so it
// reports each delete as mismatched. The pairing is correct by design.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

#pragma GCC diagnostic pop

using namespace pytfhe;

namespace {

using Clock = std::chrono::steady_clock;

circuit::Netlist AdderNetlist() {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    return b.netlist();
}

struct Percentiles {
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

Percentiles ComputePercentiles(std::vector<double> latencies_s) {
    std::sort(latencies_s.begin(), latencies_s.end());
    auto at = [&](double q) {
        const size_t i = static_cast<size_t>(
            q * static_cast<double>(latencies_s.size() - 1) + 0.5);
        return latencies_s[i] * 1e3;
    };
    Percentiles p;
    p.p50_ms = at(0.50);
    p.p99_ms = at(0.99);
    return p;
}

struct Measurement {
    double jobs_per_s = 0.0;
    Percentiles lat;
};

/**
 * `concurrency` client threads each push `jobs_per_client` jobs
 * back-to-back through `submit` (which blocks until its job completes
 * and returns the job's wall latency in seconds).
 */
template <typename SubmitFn>
Measurement DriveClients(int concurrency, int jobs_per_client,
                         const SubmitFn& submit) {
    std::vector<double> latencies(
        static_cast<size_t>(concurrency) * jobs_per_client);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(concurrency);
    for (int c = 0; c < concurrency; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < jobs_per_client; ++j)
                latencies[static_cast<size_t>(c) * jobs_per_client + j] =
                    submit(c, j);
        });
    }
    for (auto& t : clients) t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    Measurement m;
    m.jobs_per_s = static_cast<double>(latencies.size()) / elapsed;
    m.lat = ComputePercentiles(std::move(latencies));
    return m;
}

constexpr int kWorkers = 8;
constexpr int kConcurrency[] = {1, 4, 16};

struct Suite {
    double seq_1t_jobs_per_s = 0.0;
    double seq_8t_jobs_per_s = 0.0;
    Measurement at_concurrency[3];
    double speedup_vs_sequential_1t = 0.0;  ///< Concurrency 16 vs seq 1t.
};

/** Encrypted suite: the full core::Service stack under toy parameters. */
Suite MeasureEncrypted(const pasm::Program& program) {
    Suite suite;
    core::Client client(tfhe::ToyParams(), /*seed=*/77);
    const auto key = client.MakeEvaluationKey();
    const core::Ciphertexts inputs =
        client.EncryptValues(hdl::DType::UInt(8), {161, 94});
    backend::TfheEvaluator eval(*key);
    const auto want = backend::RunProgram(program, eval, inputs);

    auto check = [&](const core::Ciphertexts& got) {
        if (got.size() != want.size()) std::abort();
        for (size_t i = 0; i < got.size(); ++i)
            if (got[i].a != want[i].a || got[i].b != want[i].b) {
                std::fprintf(stderr,
                             "serving output differs from sequential run "
                             "at bit %zu\n",
                             i);
                std::abort();
            }
    };

    // Baseline: one blocking Server::Run per job, back to back.
    {
        auto server = client.MakeServer();
        const auto seq_want = server->Run(program, inputs);
        for (auto [threads, slot] :
             {std::pair<int, double*>{1, &suite.seq_1t_jobs_per_s},
              {kWorkers, &suite.seq_8t_jobs_per_s}}) {
            core::RunOptions options;
            options.num_threads = threads;
            constexpr int kJobs = 24;
            const Clock::time_point t0 = Clock::now();
            for (int j = 0; j < kJobs; ++j) {
                const auto got = server->Run(program, inputs, options);
                if (client.DecryptBits(got) != client.DecryptBits(seq_want))
                    std::abort();
            }
            *slot = kJobs / std::chrono::duration<double>(Clock::now() - t0)
                                .count();
        }
    }

    for (size_t ci = 0; ci < 3; ++ci) {
        const int concurrency = kConcurrency[ci];
        core::ServiceOptions opts;
        opts.serving.num_workers = kWorkers;
        opts.serving.max_active_jobs = 16;
        opts.serving.max_pending_jobs = 64;
        core::Service service(opts);
        const core::KeyId id = service.RegisterTenant(key);
        const auto shared_program =
            std::make_shared<const pasm::Program>(program);
        const int jobs_per_client = concurrency == 1 ? 24 : 96 / concurrency;
        suite.at_concurrency[ci] = DriveClients(
            concurrency, jobs_per_client, [&](int, int) {
                core::JobHandle job =
                    service.Submit(id, shared_program, inputs);
                check(job.Get());
                return job.Metrics().wall_seconds;
            });
        std::printf("  encrypted c=%-2d  %8.2f jobs/s   p50 %7.2f ms   "
                    "p99 %7.2f ms\n",
                    concurrency, suite.at_concurrency[ci].jobs_per_s,
                    suite.at_concurrency[ci].lat.p50_ms,
                    suite.at_concurrency[ci].lat.p99_ms);
        std::fflush(stdout);
    }
    suite.speedup_vs_sequential_1t =
        suite.at_concurrency[2].jobs_per_s / suite.seq_1t_jobs_per_s;
    return suite;
}

/**
 * Plaintext suite: gate cost is ~ns, so this measures pure scheduler
 * overhead — the honest worst case for gate-level interleaving.
 */
Suite MeasurePlain(const pasm::Program& program) {
    Suite suite;
    backend::PlainEvaluator eval;
    std::vector<bool> inputs(program.NumInputs());
    for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = (i * 5) % 3 == 0;
    const auto want = backend::RunProgram(program, eval, inputs);

    {
        constexpr int kJobs = 4000;
        const Clock::time_point t0 = Clock::now();
        for (int j = 0; j < kJobs; ++j)
            if (backend::RunProgram(program, eval, inputs) != want)
                std::abort();
        suite.seq_1t_jobs_per_s =
            kJobs /
            std::chrono::duration<double>(Clock::now() - t0).count();
        suite.seq_8t_jobs_per_s = suite.seq_1t_jobs_per_s;  // 1t optimal.
    }

    for (size_t ci = 0; ci < 3; ++ci) {
        const int concurrency = kConcurrency[ci];
        backend::Executor executor;
        backend::ServingOptions opts;
        opts.num_workers = kWorkers;
        opts.max_active_jobs = 16;
        backend::ServingExecutor<backend::PlainEvaluator> serving(executor,
                                                                  opts);
        const auto shared_program =
            std::make_shared<const pasm::Program>(program);
        const int jobs_per_client = 2000 / concurrency;
        suite.at_concurrency[ci] = DriveClients(
            concurrency, jobs_per_client, [&](int, int) {
                auto job = serving.Submit(shared_program, eval, inputs);
                if (job->Outputs() != want) std::abort();
                return job->Metrics().wall_seconds;
            });
        std::printf("  plain     c=%-2d  %8.0f jobs/s   p50 %7.3f ms   "
                    "p99 %7.3f ms\n",
                    concurrency, suite.at_concurrency[ci].jobs_per_s,
                    suite.at_concurrency[ci].lat.p50_ms,
                    suite.at_concurrency[ci].lat.p99_ms);
        std::fflush(stdout);
    }
    suite.speedup_vs_sequential_1t =
        suite.at_concurrency[2].jobs_per_s / suite.seq_1t_jobs_per_s;
    return suite;
}

struct FaultedResult {
    double jobs_per_s = 0.0;
    double fault_free_jobs_per_s = 0.0;
    double recovery_overhead = 0.0;  ///< jobs/s lost to faults, fractional.
    unsigned long long retries = 0;
    unsigned long long faulted_jobs = 0;
    /** Gates re-executed / gates executed among completed jobs when every
     * retry restarts from scratch vs when it resumes from the last
     * wave-boundary checkpoint. */
    double reexec_fraction_no_ckpt = 0.0;
    double reexec_fraction_ckpt = 0.0;
    unsigned long long checkpoints_taken = 0;
    unsigned long long checkpoint_resumes = 0;
};

/**
 * Fault-tolerance scenario: transient gate faults injected into every
 * 4th job (25%) late in the program (ordinal ~3N/4, where a from-scratch
 * retry wastes the most work), RetryPolicy re-runs them, all outputs
 * stay bit-exact. The faulted block runs twice — without and with
 * ServingOptions::checkpoint — so the JSON reports the re-executed-gate
 * fraction each way; checkpointed resume must cut it at least 2x.
 */
FaultedResult MeasureFaulted(const pasm::Program& program) {
    backend::PlainEvaluator eval;
    std::vector<bool> inputs(program.NumInputs());
    for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = (i * 5) % 3 == 0;
    const auto want = backend::RunProgram(program, eval, inputs);
    const auto shared_program =
        std::make_shared<const pasm::Program>(program);
    constexpr int kConcurrentClients = 4;
    constexpr int kJobsPerClient = 500;

    enum Mode { kFaultFree, kFaulty, kFaultyCheckpointed };
    FaultedResult result;
    for (Mode mode : {kFaultFree, kFaulty, kFaultyCheckpointed}) {
        backend::FaultPlan plan;
        plan.fault_every_nth_job = 4;
        plan.fault_gate_ordinal = program.NumGates() * 3 / 4;
        plan.transient_clears_after = 1;
        backend::FaultInjector injector(plan);
        backend::Executor executor;
        backend::ServingOptions opts;
        opts.num_workers = kWorkers;
        opts.max_active_jobs = 16;
        if (mode != kFaultFree) {
            opts.fault_injector = &injector;
            opts.retry.max_attempts = 3;
        }
        if (mode == kFaultyCheckpointed) opts.checkpoint.every_n_levels = 2;
        backend::ServingExecutor<backend::PlainEvaluator> serving(executor,
                                                                  opts);
        const Measurement m = DriveClients(
            kConcurrentClients, kJobsPerClient, [&](int, int) {
                auto job = serving.Submit(shared_program, eval, inputs);
                if (job->Outputs() != want) std::abort();
                return job->Metrics().wall_seconds;
            });
        const backend::ServingStats stats = serving.stats();
        if (stats.jobs_failed != 0) std::abort();
        const double reexec =
            stats.gates_executed > 0
                ? static_cast<double>(stats.gates_reexecuted) /
                      static_cast<double>(stats.gates_executed)
                : 0.0;
        switch (mode) {
            case kFaultFree:
                result.fault_free_jobs_per_s = m.jobs_per_s;
                break;
            case kFaulty:
                result.jobs_per_s = m.jobs_per_s;
                result.retries = stats.job_retries;
                result.faulted_jobs = injector.counters().Total();
                result.reexec_fraction_no_ckpt = reexec;
                break;
            case kFaultyCheckpointed:
                result.reexec_fraction_ckpt = reexec;
                result.checkpoints_taken = stats.checkpoints_taken;
                result.checkpoint_resumes = stats.checkpoint_resumes;
                if (stats.checkpoint_resumes == 0) std::abort();
                break;
        }
    }
    result.recovery_overhead =
        result.fault_free_jobs_per_s > 0.0
            ? 1.0 - result.jobs_per_s / result.fault_free_jobs_per_s
            : 0.0;
    // Acceptance gate: resuming from wave-boundary checkpoints must cut
    // the re-executed-gate waste at least 2x at the 25% fault rate.
    if (result.reexec_fraction_ckpt * 2.0 > result.reexec_fraction_no_ckpt)
        std::abort();
    std::printf("  faulted   25%%   %8.0f jobs/s   (fault-free %8.0f, "
                "overhead %5.1f%%, %llu retries)\n",
                result.jobs_per_s, result.fault_free_jobs_per_s,
                result.recovery_overhead * 100.0, result.retries);
    std::printf("  reexec    25%%   %6.2f%% of gates w/o checkpoints, "
                "%6.2f%% with (%llu snapshots, %llu resumes)\n",
                result.reexec_fraction_no_ckpt * 100.0,
                result.reexec_fraction_ckpt * 100.0,
                result.checkpoints_taken, result.checkpoint_resumes);
    std::fflush(stdout);
    return result;
}

struct KeyCacheResult {
    uint64_t tenants = 0;
    uint64_t jobs = 0;
    uint64_t key_bytes = 0;       ///< Accounted size of one tenant key.
    uint64_t capacity_bytes = 0;  ///< Cache bound (fits 2 of 5 keys).
    core::KeyCacheStats stats;
};

/**
 * Key-cache economics on the REAL service: 5 tenants with real toy-param
 * evaluation keys registered as lazy FileKeySources (CRC32C artifacts on
 * disk), cache capacity 2 keys. A skewed trace (tenant 1 hot) forces
 * evictions and lazy reloads; every output is checked bit-exact against
 * an unlimited-capacity service running the same trace, and peak resident
 * bytes are asserted <= capacity. Aborts on any violation.
 */
KeyCacheResult MeasureKeyCache(const pasm::Program& program) {
    constexpr int kTenants = 5;
    const auto shared_program =
        std::make_shared<const pasm::Program>(program);

    std::vector<std::unique_ptr<core::Client>> clients;
    std::vector<std::shared_ptr<tfhe::GateEvaluator>> keys;
    std::vector<core::Ciphertexts> inputs;
    std::vector<int> expected;
    std::vector<std::string> artifacts;
    for (int t = 0; t < kTenants; ++t) {
        clients.push_back(std::make_unique<core::Client>(
            tfhe::ToyParams(), /*seed=*/1000 + t));
        keys.push_back(clients.back()->MakeEvaluationKey());
        const int x = 37 + 11 * t;
        const int y = 58 + 7 * t;
        expected.push_back((x + y) & 0xFF);
        inputs.push_back(clients.back()->EncryptValues(
            hdl::DType::UInt(8),
            {static_cast<double>(x), static_cast<double>(y)}));
        const std::string path =
            "bench_tenant_key_" + std::to_string(t) + ".ekey";
        std::ofstream os(path, std::ios::binary);
        tfhe::SaveEvaluationKey(os, keys.back()->key(),
                                keys.back()->key_id());
        artifacts.push_back(path);
    }

    KeyCacheResult result;
    result.tenants = kTenants;
    result.key_bytes = core::EvaluationKeyBytes(*keys[0]);

    // Skewed trace: tenant 0 between every other access, so the LRU keeps
    // the hot key while tenants 1..4 cycle through the remaining slot.
    std::vector<int> trace;
    for (int round = 0; round < 3; ++round)
        for (int t = 1; t < kTenants; ++t) {
            trace.push_back(0);
            trace.push_back(t);
        }
    result.jobs = trace.size();

    // Reference: unlimited capacity, keys registered directly.
    std::vector<core::Ciphertexts> want(trace.size());
    {
        core::Service service;
        for (int t = 0; t < kTenants; ++t) service.RegisterTenant(keys[t]);
        for (size_t i = 0; i < trace.size(); ++i) {
            const int t = trace[i];
            want[i] = service
                          .Submit(keys[t]->key_id(), shared_program,
                                  inputs[t])
                          .Get();
        }
    }

    core::ServiceOptions opts;
    opts.key_cache_capacity_bytes = 2 * result.key_bytes;
    result.capacity_bytes = opts.key_cache_capacity_bytes;
    core::Service service(opts);
    for (int t = 0; t < kTenants; ++t)
        service.RegisterTenantSource(keys[t]->key_id(),
                                     core::FileKeySource(artifacts[t]));
    for (size_t i = 0; i < trace.size(); ++i) {
        const int t = trace[i];
        const core::JobHandle job =
            service.Submit(keys[t]->key_id(), shared_program, inputs[t]);
        const core::Ciphertexts& got = job.Get();
        if (got.size() != want[i].size()) std::abort();
        for (size_t b = 0; b < got.size(); ++b)
            if (got[b].a != want[i][b].a || got[b].b != want[i][b].b) {
                std::fprintf(stderr,
                             "key-cache output differs from always-"
                             "resident run at job %zu bit %zu\n",
                             i, b);
                std::abort();
            }
        const auto bits = clients[t]->DecryptBits(got);
        int value = 0;
        for (size_t b = 0; b < bits.size(); ++b)
            value |= (bits[b] ? 1 : 0) << b;
        if (value != expected[t]) {
            std::fprintf(stderr,
                         "key-cache decrypt mismatch: tenant %d got %d "
                         "want %d\n",
                         t, value, expected[t]);
            std::abort();
        }
    }
    result.stats = service.stats().key_cache;
    for (const std::string& path : artifacts) std::remove(path.c_str());

    if (result.stats.peak_resident_bytes > result.capacity_bytes) {
        std::fprintf(stderr,
                     "FAIL: peak resident key bytes %llu exceed the "
                     "cache capacity %llu\n",
                     static_cast<unsigned long long>(
                         result.stats.peak_resident_bytes),
                     static_cast<unsigned long long>(
                         result.capacity_bytes));
        std::abort();
    }
    if (result.stats.reloads == 0 || result.stats.evictions == 0) {
        std::fprintf(stderr,
                     "FAIL: key-cache scenario exercised no "
                     "eviction/reload\n");
        std::abort();
    }
    std::printf("  key-cache 5 tenants, capacity 2 keys: hit rate %.2f, "
                "%llu reloads (%.3f s), peak resident %.1f MB\n",
                result.stats.HitRate(),
                static_cast<unsigned long long>(result.stats.reloads),
                result.stats.reload_seconds,
                static_cast<double>(result.stats.peak_resident_bytes) /
                    1048576.0);
    std::fflush(stdout);
    return result;
}

struct ShardedResult {
    uint64_t tenants = 0;
    uint64_t requests = 0;
    uint32_t shards = 0;
    uint64_t fleet_key_slots = 0;  ///< Keys the whole fleet can hold.
    backend::ShardedServingResult affinity;
    backend::ShardedServingResult least_loaded;
    backend::ShardedServingResult overload;
};

/**
 * Sharded front-end simulation: a Zipf(1.1) trace over 100k tenants
 * (fleet capacity 512 keys — 0.5% of the key population) through 8
 * shards. Three runs: key-affinity routing at 70% utilization,
 * least-loaded routing at the same load (the locality/balance
 * counterfactual), and key-affinity at 110% utilization with per-epoch
 * shard failures (p99 under overload + key movement). All modeled time:
 * deterministic, so the latency quantiles gate in bench_check.
 */
ShardedResult MeasureSharded(const pasm::Program& program) {
    ShardedResult result;
    result.tenants = 100000;
    result.requests = 200000;
    const double service_s = bench::SingleCoreSeconds(program);

    backend::ShardingConfig cfg;
    cfg.shards = 8;
    cfg.vnodes_per_shard = 64;
    cfg.key_bytes = 59ull << 20;  // Paper-scale bootstrapping key, ~59 MB.
    cfg.shard_cache_capacity_bytes = 64 * cfg.key_bytes;  // 64 keys/shard.
    cfg.reload_seconds =
        static_cast<double>(cfg.key_bytes) / 1e9;  // 1 GB/s fetch.
    cfg.seed = 7;
    result.shards = cfg.shards;
    result.fleet_key_slots = 64ull * cfg.shards;

    auto trace_at = [&](double utilization) {
        return backend::MakeZipfTrace(
            result.tenants, result.requests, /*zipf_s=*/1.1,
            service_s / (cfg.shards * utilization), service_s,
            /*seed=*/42);
    };

    cfg.routing = backend::ShardRouting::kKeyAffinity;
    result.affinity = backend::SimulateShardedServing(trace_at(0.7), cfg);

    cfg.routing = backend::ShardRouting::kLeastLoaded;
    result.least_loaded =
        backend::SimulateShardedServing(trace_at(0.7), cfg);

    cfg.routing = backend::ShardRouting::kKeyAffinity;
    cfg.epoch_seconds = 500.0 * service_s;
    cfg.faults.seed = 11;
    cfg.faults.task_failure_rate = 0.02;  // Per-epoch shard death.
    cfg.faults.detect_seconds = 5.0 * service_s;
    result.overload = backend::SimulateShardedServing(trace_at(1.1), cfg);

    // The whole point of affinity routing: strictly better key locality
    // than spraying requests across shards.
    if (result.affinity.HitRate() <= result.least_loaded.HitRate()) {
        std::fprintf(stderr,
                     "FAIL: affinity routing hit rate %.3f not above "
                     "least-loaded %.3f\n",
                     result.affinity.HitRate(),
                     result.least_loaded.HitRate());
        std::abort();
    }
    if (result.affinity.peak_resident_bytes >
        cfg.shard_cache_capacity_bytes) {
        std::fprintf(stderr, "FAIL: shard cache exceeded its capacity\n");
        std::abort();
    }
    std::printf("  sharded %llu tenants / %u shards: affinity hit %.3f "
                "p99 %.2f s | least-loaded hit %.3f | overload p99 %.1f "
                "s, %llu moved keys, %llu shard failures\n",
                static_cast<unsigned long long>(result.tenants),
                cfg.shards, result.affinity.HitRate(),
                result.affinity.p99_latency_seconds,
                result.least_loaded.HitRate(),
                result.overload.p99_latency_seconds,
                static_cast<unsigned long long>(
                    result.overload.moved_keys),
                static_cast<unsigned long long>(
                    result.overload.shard_failures));
    std::fflush(stdout);
    return result;
}

struct MemoryResult {
    uint64_t gates = 0;
    uint64_t values = 0;      ///< Inputs + gate results (unplanned slots).
    uint64_t plan_slots = 0;  ///< Physical slots after linear-scan reuse.
    uint64_t arena_bytes_planned = 0;    ///< Per-job ciphertext residency.
    uint64_t arena_bytes_unplanned = 0;  ///< One slot per value (pre-plan).
    double reduction_x = 0.0;
    double allocs_per_gate_planned = 0.0;
    double allocs_per_gate_legacy = 0.0;  ///< Object-per-value execution.
};

/**
 * Memory-planning suite: the per-job ciphertext residency story.
 *
 * Peak-RSS-per-job proxy: a 32x32 array multiplier (the deepest DAG in
 * the bench set) compiled with and without a memory plan; the arena byte
 * requirement is exact — slots x aligned sample size — and deterministic,
 * so it gates in bench_check, with the >= 4x reduction bar asserted here
 * at generation time like the serving 3x bar.
 *
 * Allocs-per-gate, by the same delta method as the arena allocation
 * tests: a 64-gate NAND chain and a 32-gate chain cost the same per-run
 * overhead (equal slot counts when planned), so any allocation-count
 * difference between real encrypted runs is per-gate cost. The arena
 * core must measure 0 (slab in, slab out, warm scratch); the "before" is
 * the object-per-value style — each gate materializing a fresh
 * ciphertext through the value-returning Apply, as the interpreter did
 * before the arena plane.
 */
MemoryResult MeasureMemory() {
    MemoryResult result;

    // --- Arena residency on the multiplier32 DAG. ---
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 32, "x");
    const hdl::Bits y = hdl::InputBits(b, 32, "y");
    hdl::OutputBits(b, hdl::UMul(b, x, y, 32), "prod");
    auto mul = core::Compile(b.netlist());
    if (!mul || mul->program.Plan() == nullptr) {
        std::fprintf(stderr, "multiplier32 compile produced no plan\n");
        std::abort();
    }
    const pasm::Program& prog = mul->program;
    result.gates = prog.NumGates();
    result.values = prog.FirstGateIndex() + prog.NumGates();
    result.plan_slots = prog.Plan()->num_slots;

    core::Client client(tfhe::ToyParams(), /*seed=*/55);
    const core::Ciphertexts mul_inputs = client.EncryptValues(
        hdl::DType::UInt(32), {3405691582.0, 2882400001.0});
    using Plane = backend::ValuePlane<backend::TfheEvaluator>;
    result.arena_bytes_planned =
        Plane::RequiredBytes(prog, mul_inputs, /*use_plan=*/true);
    result.arena_bytes_unplanned =
        Plane::RequiredBytes(prog, mul_inputs, /*use_plan=*/false);
    result.reduction_x =
        static_cast<double>(result.arena_bytes_unplanned) /
        static_cast<double>(result.arena_bytes_planned);
    if (result.reduction_x < 4.0) {
        std::fprintf(stderr,
                     "FAIL: planned arena %.2fx smaller than unplanned on "
                     "multiplier32, below the 4x acceptance bar\n",
                     result.reduction_x);
        std::abort();
    }

    // --- Allocs per gate on real encrypted NAND chains. ---
    auto chain = [](int32_t length) {
        circuit::Netlist n;
        const circuit::NodeId a = n.AddInput();
        circuit::NodeId cur = a;
        for (int32_t i = 0; i < length; ++i)
            cur = n.AddGate(circuit::GateType::kNand, cur, a);
        n.AddOutput(cur);
        auto p = pasm::Assemble(n);
        if (!p) std::abort();
        auto with_plan = p->WithPlan(pasm::ComputeMemoryPlan(*p));
        if (!with_plan) std::abort();
        return std::move(*with_plan);
    };
    tfhe::Rng rng(71);
    tfhe::SecretKeySet secret(tfhe::ToyParams(), rng);
    tfhe::GateEvaluator gates(secret, rng);
    backend::TfheEvaluator eval(gates);
    std::vector<tfhe::LweSample> inputs;
    inputs.push_back(secret.Encrypt(true, rng));

    auto delta_per_gate = [](const auto& run) {
        run(64);  // Warm FFT plans and scratch.
        const uint64_t b_half = g_alloc_count.load();
        run(32);
        const uint64_t half_allocs = g_alloc_count.load() - b_half;
        const uint64_t b_full = g_alloc_count.load();
        run(64);
        const uint64_t full_allocs = g_alloc_count.load() - b_full;
        return full_allocs > half_allocs
                   ? static_cast<double>(full_allocs - half_allocs) / 32.0
                   : 0.0;
    };
    const pasm::Program half_chain = chain(32);
    const pasm::Program full_chain = chain(64);
    result.allocs_per_gate_planned = delta_per_gate([&](int32_t length) {
        (void)backend::RunProgram(length == 64 ? full_chain : half_chain,
                                  eval, inputs);
    });
    tfhe::BootstrapScratch scratch;
    result.allocs_per_gate_legacy = delta_per_gate([&](int32_t length) {
        std::vector<tfhe::LweSample> vals;
        vals.reserve(static_cast<size_t>(length) + 1);
        vals.push_back(inputs[0]);
        for (int32_t i = 0; i < length; ++i)
            vals.push_back(eval.Apply(circuit::GateType::kNand,
                                      vals.back(), vals[0], scratch));
    });
    if (result.allocs_per_gate_planned != 0.0) {
        std::fprintf(stderr,
                     "FAIL: planned execution allocates %.2f times per "
                     "gate in steady state (want 0)\n",
                     result.allocs_per_gate_planned);
        std::abort();
    }

    std::printf("  memory    umul32 %llu gates: %llu slots for %llu "
                "values, %.1f MB -> %.1f MB per job (%.1fx); allocs/gate "
                "%.2f -> %.2f\n",
                static_cast<unsigned long long>(result.gates),
                static_cast<unsigned long long>(result.plan_slots),
                static_cast<unsigned long long>(result.values),
                static_cast<double>(result.arena_bytes_unplanned) /
                    1048576.0,
                static_cast<double>(result.arena_bytes_planned) / 1048576.0,
                result.reduction_x, result.allocs_per_gate_legacy,
                result.allocs_per_gate_planned);
    std::fflush(stdout);
    return result;
}

void WriteShardRun(FILE* out, const char* name,
                   const backend::ShardedServingResult& r,
                   bool trailing_comma) {
    std::fprintf(out,
                 "    \"%s\": {\"hit_rate\": %.4f, \"modeled_s_p50\": "
                 "%.4f, \"modeled_s_p99\": %.4f, "
                 "\"modeled_s_reload_total\": %.2f, \"load_imbalance\": "
                 "%.3f, \"evictions\": %llu, \"moved_keys\": %llu, "
                 "\"shard_failures\": %llu}%s\n",
                 name, r.HitRate(), r.p50_latency_seconds,
                 r.p99_latency_seconds, r.reload_total_seconds,
                 r.load_imbalance,
                 static_cast<unsigned long long>(r.evictions),
                 static_cast<unsigned long long>(r.moved_keys),
                 static_cast<unsigned long long>(r.shard_failures),
                 trailing_comma ? "," : "");
}

void WriteSuite(FILE* out, const char* name, const Suite& s,
                bool trailing_comma) {
    std::fprintf(out, "  \"%s\": {\n", name);
    std::fprintf(out, "    \"seq_1t\": {\"jobs_per_s\": %.2f},\n",
                 s.seq_1t_jobs_per_s);
    std::fprintf(out, "    \"seq_8t\": {\"jobs_per_s\": %.2f},\n",
                 s.seq_8t_jobs_per_s);
    for (size_t ci = 0; ci < 3; ++ci) {
        std::fprintf(out,
                     "    \"c%d\": {\"jobs_per_s\": %.2f, "
                     "\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n",
                     kConcurrency[ci], s.at_concurrency[ci].jobs_per_s,
                     s.at_concurrency[ci].lat.p50_ms,
                     s.at_concurrency[ci].lat.p99_ms);
    }
    std::fprintf(out, "    \"speedup_vs_sequential_1t\": %.2f\n",
                 s.speedup_vs_sequential_1t);
    std::fprintf(out, "  }%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main() {
    std::printf("# bench_serving: 8-bit ripple adder, %d workers\n",
                kWorkers);
    std::fflush(stdout);

    auto compiled = core::Compile(AdderNetlist());
    if (!compiled) {
        std::fprintf(stderr, "adder compile failed\n");
        return 1;
    }
    const pasm::Program& program = compiled->program;

    const MemoryResult memory = MeasureMemory();
    const Suite plain = MeasurePlain(program);
    const FaultedResult faulted = MeasureFaulted(program);
    const KeyCacheResult key_cache = MeasureKeyCache(program);
    const ShardedResult sharded = MeasureSharded(program);
    const Suite encrypted = MeasureEncrypted(program);

    FILE* out = std::fopen("BENCH_serving.json", "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open BENCH_serving.json\n");
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"serving\",\n");
    std::fprintf(out, "  \"params\": \"toy\",\n");
    std::fprintf(out, "  \"workers\": %d,\n", kWorkers);
    std::fprintf(out, "  \"gates_per_job\": %llu,\n",
                 static_cast<unsigned long long>(program.NumGates()));
    std::fprintf(out, "  \"modeled_s_single_job\": %.4f,\n",
                 bench::SingleCoreSeconds(program));
    std::fprintf(out,
                 "  \"memory\": {\"dag\": \"umul32\", \"gates\": %llu, "
                 "\"values\": %llu, \"plan_slots\": %llu, "
                 "\"arena_bytes_planned_per_job\": %llu, "
                 "\"arena_bytes_unplanned_per_job\": %llu, "
                 "\"arena_reduction_x\": %.2f, "
                 "\"allocs_per_gate_planned\": %.4f, "
                 "\"allocs_per_gate_legacy\": %.4f},\n",
                 static_cast<unsigned long long>(memory.gates),
                 static_cast<unsigned long long>(memory.values),
                 static_cast<unsigned long long>(memory.plan_slots),
                 static_cast<unsigned long long>(
                     memory.arena_bytes_planned),
                 static_cast<unsigned long long>(
                     memory.arena_bytes_unplanned),
                 memory.reduction_x, memory.allocs_per_gate_planned,
                 memory.allocs_per_gate_legacy);
    WriteSuite(out, "plain", plain, /*trailing_comma=*/true);
    std::fprintf(out,
                 "  \"faulted\": {\"fault_rate_jobs\": 0.25, "
                 "\"jobs_per_s\": %.2f, \"fault_free_jobs_per_s\": %.2f, "
                 "\"recovery_overhead\": %.4f, \"retries\": %llu, "
                 "\"faulted_jobs\": %llu, "
                 "\"reexec_fraction_no_ckpt\": %.4f, "
                 "\"reexec_fraction_ckpt\": %.4f, "
                 "\"checkpoints_taken\": %llu, "
                 "\"checkpoint_resumes\": %llu},\n",
                 faulted.jobs_per_s, faulted.fault_free_jobs_per_s,
                 faulted.recovery_overhead, faulted.retries,
                 faulted.faulted_jobs, faulted.reexec_fraction_no_ckpt,
                 faulted.reexec_fraction_ckpt, faulted.checkpoints_taken,
                 faulted.checkpoint_resumes);
    std::fprintf(out,
                 "  \"key_cache\": {\"tenants\": %llu, \"jobs\": %llu, "
                 "\"key_bytes\": %llu, \"capacity_bytes\": %llu, "
                 "\"hit_rate\": %.4f, \"reloads\": %llu, \"evictions\": "
                 "%llu, \"peak_resident_bytes\": %llu, "
                 "\"peak_total_bytes\": %llu, \"wall_s_reload_total\": "
                 "%.4f},\n",
                 static_cast<unsigned long long>(key_cache.tenants),
                 static_cast<unsigned long long>(key_cache.jobs),
                 static_cast<unsigned long long>(key_cache.key_bytes),
                 static_cast<unsigned long long>(key_cache.capacity_bytes),
                 key_cache.stats.HitRate(),
                 static_cast<unsigned long long>(key_cache.stats.reloads),
                 static_cast<unsigned long long>(
                     key_cache.stats.evictions),
                 static_cast<unsigned long long>(
                     key_cache.stats.peak_resident_bytes),
                 static_cast<unsigned long long>(
                     key_cache.stats.peak_total_bytes),
                 key_cache.stats.reload_seconds);
    std::fprintf(out,
                 "  \"sharded\": {\"tenants\": %llu, \"requests\": %llu, "
                 "\"shards\": %u, \"fleet_key_slots\": %llu, \"zipf_s\": "
                 "1.1,\n",
                 static_cast<unsigned long long>(sharded.tenants),
                 static_cast<unsigned long long>(sharded.requests),
                 sharded.shards,
                 static_cast<unsigned long long>(sharded.fleet_key_slots));
    WriteShardRun(out, "affinity", sharded.affinity,
                  /*trailing_comma=*/true);
    WriteShardRun(out, "least_loaded", sharded.least_loaded,
                  /*trailing_comma=*/true);
    WriteShardRun(out, "overload_faulted", sharded.overload,
                  /*trailing_comma=*/false);
    std::fprintf(out, "  },\n");
    WriteSuite(out, "encrypted", encrypted, /*trailing_comma=*/false);
    std::fprintf(out, "}\n");
    std::fclose(out);

    std::printf("# encrypted speedup at c=16 vs sequential 1t: %.2fx\n",
                encrypted.speedup_vs_sequential_1t);
    // The 3x bar presumes cores for the workers to land on; on a 1-2 core
    // machine gate-level interleaving can only amortize per-call setup, so
    // the assertion would test the container, not the scheduler.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores >= 4 && encrypted.speedup_vs_sequential_1t < 3.0) {
        std::fprintf(stderr,
                     "FAIL: serving throughput below the 3x acceptance "
                     "bar on %u cores\n",
                     cores);
        return 1;
    }
    if (cores < 4)
        std::printf("# note: only %u core(s) visible; 3x bar not "
                    "enforced\n",
                    cores);
    std::printf("# wrote BENCH_serving.json\n");
    return 0;
}
