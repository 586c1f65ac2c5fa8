#include "backend/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "backend/fault.h"

namespace pytfhe::backend {

namespace {

// Decision salts for the cluster fault model; distinct from the
// FaultInjector salts so gate-level and task-level schedules never alias.
constexpr uint64_t kSaltTaskFail = 0xC1F0ull;
constexpr uint64_t kSaltStraggle = 0x5788ull;
constexpr uint64_t kSaltProgress = 0x9101ull;

/**
 * Cost of one task attempt. `resume_offset` is the work-seconds already
 * durable from earlier attempts' checkpoints (in/out: a failed attempt
 * advances it to its own last snapshot); `checkpoints` and `lost_seconds`
 * accumulate snapshot writes and failure-discarded work. With
 * checkpoint_interval_seconds == 0 the resume offset stays 0 and the
 * attempt costs exactly what the uncheckpointed model charged.
 */
double TaskAttemptSeconds(const ClusterFaultModel& faults, uint64_t wave,
                          uint64_t task, int32_t attempt,
                          double task_seconds, bool* completed,
                          bool* straggled, double* resume_offset,
                          uint64_t* checkpoints, double* lost_seconds) {
    // One site per (wave, task, attempt): re-executions draw fresh luck,
    // matching a driver that reschedules onto a different worker.
    const uint64_t site = task * 64 + static_cast<uint64_t>(attempt);
    const double interval = faults.checkpoint_interval_seconds;
    const double start = *resume_offset;
    // Snapshots land at interval multiples of absolute task progress;
    // this attempt writes every multiple it newly crosses.
    auto intervals_before = [&](double progress) {
        return interval > 0.0
                   ? static_cast<uint64_t>(std::floor(progress / interval))
                   : 0;
    };
    *straggled = false;
    if (attempt < faults.max_reexecutions &&
        FaultHashUnit(FaultSiteHash(faults.seed, wave, site,
                                    kSaltTaskFail)) <
            faults.task_failure_rate) {
        // Lost mid-flight: work past the last snapshot is wasted, and
        // the driver notices only after the detection delay.
        *completed = false;
        const double progress = FaultHashUnit(
            FaultSiteHash(faults.seed, wave, site, kSaltProgress));
        const double work = (task_seconds - start) * progress;
        const double reached = start + work;
        const uint64_t writes =
            intervals_before(reached) - intervals_before(start);
        *checkpoints += writes;
        const double durable =
            interval > 0.0
                ? std::max(start, std::floor(reached / interval) * interval)
                : 0.0;
        *resume_offset = durable;
        *lost_seconds += reached - durable;
        return work + writes * faults.checkpoint_write_seconds +
               faults.detect_seconds;
    }
    *completed = true;
    double exec = task_seconds - start;
    if (FaultHashUnit(FaultSiteHash(faults.seed, wave, site,
                                    kSaltStraggle)) <
        faults.straggler_rate) {
        *straggled = true;
        exec *= faults.straggler_slowdown;
    }
    const uint64_t writes =
        intervals_before(task_seconds) - intervals_before(start);
    *checkpoints += writes;
    return exec + writes * faults.checkpoint_write_seconds;
}

}  // namespace

GateMix ComputeGateMix(const pasm::Program& program) {
    GateMix mix;
    const uint64_t first = program.FirstGateIndex();
    for (uint64_t idx = first; idx < first + program.NumGates(); ++idx) {
        if (circuit::NeedsBootstrap(program.GateAt(idx).type)) {
            ++mix.bootstrap_gates;
        } else {
            ++mix.linear_gates;
        }
    }
    return mix;
}

ClusterResult SimulateCluster(const pasm::Program& program,
                              const ClusterConfig& config) {
    return SimulateCluster(program, config, ClusterFaultModel{});
}

ClusterResult SimulateCluster(const pasm::Program& program,
                              const ClusterConfig& config,
                              const ClusterFaultModel& faults) {
    const Schedule schedule = ComputeSchedule(program);
    const GateMix mix = ComputeGateMix(program);
    const int32_t workers = config.TotalWorkers();

    ClusterResult result;
    result.waves = schedule.NumLevels();
    result.gates = program.NumGates();
    result.single_core_seconds = SingleCoreSeconds(mix, config.cpu);
    result.ideal_seconds = result.single_core_seconds / workers;

    const double comm_per_task =
        config.ciphertexts_per_task * kCiphertextBytes / config.net_bandwidth;
    const bool faulty = faults.Enabled();

    double t = 0.0;
    double t_fault_free = 0.0;
    std::vector<double> spans(static_cast<size_t>(workers));
    uint64_t wave_index = 0;
    for (const auto& wave : schedule.levels) {
        // Split the wave's gates round-robin over workers; the wave span is
        // the busiest worker. Linear gates (NOT and the elided
        // LXOR/LXNOR/LNOT) are executed inline by the driver at negligible
        // cost.
        uint64_t bootstraps = 0;
        double linear_cost = 0.0;
        for (uint64_t idx : wave) {
            if (circuit::NeedsBootstrap(program.GateAt(idx).type)) {
                ++bootstraps;
            } else {
                linear_cost += config.cpu.linear_gate_seconds;
            }
        }
        ++wave_index;
        if (bootstraps == 0) {
            t += linear_cost;
            t_fault_free += linear_cost;
            continue;
        }
        // With batch_size > 1 a task carries a batch of bootstraps through
        // one batched bootstrap: fewer, longer tasks whose per-gate cost
        // follows the calibrated batched speedup. batch_size == 1
        // reproduces the original one-gate-per-task model exactly.
        const uint64_t batch =
            config.batch_size > 1 ? static_cast<uint64_t>(config.batch_size)
                                  : 1;
        const uint64_t tasks = (bootstraps + batch - 1) / batch;
        const uint64_t per_worker =
            (tasks + workers - 1) / static_cast<uint64_t>(workers);
        const double task_seconds =
            static_cast<double>(batch) *
                config.cpu.BatchedGateSeconds(static_cast<int32_t>(batch)) +
            (config.nodes > 1 ? comm_per_task : 0.0);
        double compute_span = per_worker * task_seconds;
        const double fault_free_span = compute_span;
        if (faulty) {
            // Re-run the wave task by task: each attempt draws failure and
            // straggler luck deterministically, a lost attempt costs its
            // partial work plus the detection delay, and the wave waits
            // for the busiest worker.
            std::fill(spans.begin(), spans.end(), 0.0);
            for (uint64_t task = 0; task < tasks; ++task) {
                double cost = 0.0;
                double resume_offset = 0.0;
                for (int32_t attempt = 0;; ++attempt) {
                    bool completed = false;
                    bool straggled = false;
                    cost += TaskAttemptSeconds(
                        faults, wave_index - 1, task, attempt, task_seconds,
                        &completed, &straggled, &resume_offset,
                        &result.checkpoints_written, &result.lost_seconds);
                    if (completed) {
                        if (straggled) ++result.straggler_tasks;
                        break;
                    }
                    ++result.failed_tasks;
                }
                spans[task % static_cast<uint64_t>(workers)] += cost;
            }
            compute_span = *std::max_element(spans.begin(), spans.end());
        }
        // The driver submits tasks serially but overlapped with execution;
        // it binds only when submission is slower than compute.
        const double submit_span = tasks * config.submit_seconds;
        const double barrier =
            config.barrier_local_seconds +
            (config.nodes > 1 ? config.barrier_remote_seconds : 0.0);
        t += std::max(compute_span, submit_span) + barrier + linear_cost;
        t_fault_free +=
            std::max(fault_free_span, submit_span) + barrier + linear_cost;
    }
    result.seconds = t;
    result.fault_free_seconds = t_fault_free;
    return result;
}

double IdealThroughput(const ClusterConfig& config) {
    // Independent single-threaded programs: no barriers, no dependencies —
    // every worker streams gates back to back (batched bootstraps when
    // config.batch_size > 1).
    return config.TotalWorkers() /
           config.cpu.BatchedGateSeconds(config.batch_size);
}

namespace {

// Decision salts for the sharded-serving simulation; distinct from the
// wave-simulator and FaultInjector salts.
constexpr uint64_t kSaltRing = 0x21D6ull;       ///< Vnode placement.
constexpr uint64_t kSaltKeyHash = 0x8EA7ull;    ///< Key position lookup.
constexpr uint64_t kSaltShardFail = 0xF0E1ull;  ///< Per-epoch shard death.
constexpr uint64_t kSaltZipf = 0x21FFull;       ///< Trace tenant draws.

/** Per-shard state: FIFO service + byte-LRU over tenant keys. */
struct ShardState {
    double next_free = 0.0;  ///< Instant the shard finishes its backlog.
    double busy = 0.0;       ///< Accumulated reload + service time.
    std::list<uint64_t> lru;  ///< Front = most recently used tenant.
    std::map<uint64_t, std::list<uint64_t>::iterator> pos;
    uint64_t resident_bytes = 0;
};

}  // namespace

ShardRing::ShardRing(uint32_t shards, uint32_t vnodes, uint64_t seed)
    : shards_(shards), seed_(seed) {
    if (shards == 0 || vnodes == 0)
        throw std::invalid_argument("ShardRing: shards and vnodes >= 1");
    ring_.reserve(static_cast<size_t>(shards) * vnodes);
    for (uint32_t s = 0; s < shards; ++s)
        for (uint32_t v = 0; v < vnodes; ++v)
            ring_.push_back(Point{FaultSiteHash(seed, s, v, kSaltRing), s});
    std::sort(ring_.begin(), ring_.end(),
              [](const Point& a, const Point& b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.shard < b.shard;
              });
}

uint32_t ShardRing::Owner(uint64_t key) const {
    const uint64_t h = FaultSiteHash(seed_, key, 0, kSaltKeyHash);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Point& p, uint64_t value) { return p.hash < value; });
    if (it == ring_.end()) it = ring_.begin();
    return it->shard;
}

uint32_t ShardRing::Owner(uint64_t key,
                          const std::vector<bool>& live) const {
    const uint64_t h = FaultSiteHash(seed_, key, 0, kSaltKeyHash);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Point& p, uint64_t value) { return p.hash < value; });
    // Clockwise walk to the first live point; one full lap at most.
    for (size_t step = 0; step < ring_.size(); ++step) {
        if (it == ring_.end()) it = ring_.begin();
        if (it->shard < live.size() && live[it->shard]) return it->shard;
        ++it;
    }
    throw std::invalid_argument("ShardRing::Owner: no live shard");
}

ShardedServingResult SimulateShardedServing(std::vector<ShardRequest> trace,
                                            const ShardingConfig& config) {
    if (config.shards == 0)
        throw std::invalid_argument("SimulateShardedServing: shards >= 1");
    std::stable_sort(trace.begin(), trace.end(),
                     [](const ShardRequest& a, const ShardRequest& b) {
                         return a.arrival_seconds < b.arrival_seconds;
                     });

    const ShardRing ring(config.shards, config.vnodes_per_shard,
                         config.seed);
    std::vector<ShardState> shard(config.shards);
    std::vector<bool> live(config.shards, true);
    const bool faulty =
        config.epoch_seconds > 0.0 && config.faults.Enabled();

    ShardedServingResult result;
    result.requests = trace.size();
    result.shards = config.shards;
    std::vector<double> latencies;
    latencies.reserve(trace.size());
    std::set<uint64_t> moved;
    int64_t epoch = -1;

    for (const ShardRequest& req : trace) {
        // Advance the failure process to this request's epoch: each shard
        // dies independently with task_failure_rate per epoch, loses its
        // cache, and sits out detect_seconds. Never kill the last shard.
        if (faulty) {
            const int64_t e = static_cast<int64_t>(
                req.arrival_seconds / config.epoch_seconds);
            if (e != epoch) {
                epoch = e;
                std::fill(live.begin(), live.end(), true);
                uint32_t alive = config.shards;
                for (uint32_t s = 0; s < config.shards; ++s) {
                    if (alive <= 1) break;
                    if (FaultHashUnit(FaultSiteHash(
                            config.faults.seed,
                            static_cast<uint64_t>(epoch), s,
                            kSaltShardFail)) <
                        config.faults.task_failure_rate) {
                        live[s] = false;
                        --alive;
                        ++result.shard_failures;
                        ShardState& dead = shard[s];
                        dead.lru.clear();
                        dead.pos.clear();
                        dead.resident_bytes = 0;
                        dead.next_free =
                            std::max(dead.next_free,
                                     req.arrival_seconds +
                                         config.faults.detect_seconds);
                    }
                }
            }
        }

        uint32_t target;
        if (config.routing == ShardRouting::kKeyAffinity) {
            target = ring.Owner(req.tenant, live);
            if (target != ring.Owner(req.tenant)) moved.insert(req.tenant);
        } else {
            // Least loaded: the live shard that frees up first.
            target = 0;
            double best = 0.0;
            bool found = false;
            for (uint32_t s = 0; s < config.shards; ++s) {
                if (!live[s]) continue;
                if (!found || shard[s].next_free < best) {
                    best = shard[s].next_free;
                    target = s;
                    found = true;
                }
            }
        }

        ShardState& st = shard[target];
        const double start = std::max(req.arrival_seconds, st.next_free);
        double reload = 0.0;
        auto hit = st.pos.find(req.tenant);
        if (hit != st.pos.end()) {
            ++result.cache_hits;
            st.lru.erase(hit->second);
            st.lru.push_front(req.tenant);
            hit->second = st.lru.begin();
        } else {
            ++result.cache_misses;
            reload = config.reload_seconds;
            st.lru.push_front(req.tenant);
            st.pos[req.tenant] = st.lru.begin();
            st.resident_bytes += config.key_bytes;
            while (config.shard_cache_capacity_bytes > 0 &&
                   st.resident_bytes > config.shard_cache_capacity_bytes &&
                   st.lru.size() > 1) {
                const uint64_t victim = st.lru.back();
                st.lru.pop_back();
                st.pos.erase(victim);
                st.resident_bytes -= config.key_bytes;
                ++result.evictions;
            }
            result.peak_resident_bytes =
                std::max(result.peak_resident_bytes, st.resident_bytes);
        }
        const double finish = start + reload + req.service_seconds;
        st.next_free = finish;
        st.busy += reload + req.service_seconds;
        result.reload_total_seconds += reload;
        result.makespan_seconds = std::max(result.makespan_seconds, finish);
        latencies.push_back(finish - req.arrival_seconds);
    }

    result.moved_keys = moved.size();
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto quantile = [&](double q) {
            const size_t idx = static_cast<size_t>(
                std::min<double>(latencies.size() - 1,
                                 q * static_cast<double>(latencies.size())));
            return latencies[idx];
        };
        result.p50_latency_seconds = quantile(0.50);
        result.p99_latency_seconds = quantile(0.99);
        result.max_latency_seconds = latencies.back();
        double sum = 0.0;
        for (double v : latencies) sum += v;
        result.mean_latency_seconds =
            sum / static_cast<double>(latencies.size());
    }
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (const ShardState& st : shard) {
        busy_sum += st.busy;
        busy_max = std::max(busy_max, st.busy);
    }
    const double busy_mean = busy_sum / static_cast<double>(config.shards);
    result.load_imbalance = busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
    return result;
}

std::vector<ShardRequest> MakeZipfTrace(uint64_t tenants, uint64_t requests,
                                        double zipf_s,
                                        double arrival_interval_seconds,
                                        double service_seconds,
                                        uint64_t seed) {
    if (tenants == 0)
        throw std::invalid_argument("MakeZipfTrace: tenants >= 1");
    // Zipf CDF over ranks 1..tenants: weight(r) = r^-s. Binary-searched
    // inverse-transform sampling off the deterministic site hash.
    std::vector<double> cdf(tenants);
    double total = 0.0;
    for (uint64_t r = 0; r < tenants; ++r) {
        total += std::pow(static_cast<double>(r + 1), -zipf_s);
        cdf[r] = total;
    }
    std::vector<ShardRequest> trace(requests);
    for (uint64_t i = 0; i < requests; ++i) {
        const double u =
            FaultHashUnit(FaultSiteHash(seed, i, 0, kSaltZipf)) * total;
        const uint64_t rank = static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        trace[i].tenant = std::min(rank, tenants - 1) + 1;
        trace[i].arrival_seconds =
            static_cast<double>(i) * arrival_interval_seconds;
        trace[i].service_seconds = service_seconds;
    }
    return trace;
}

}  // namespace pytfhe::backend
