#include "backend/fault.h"

#include <chrono>
#include <thread>

namespace pytfhe::backend {

namespace {

/** splitmix64 finalizer: a high-quality 64-bit bit mixer. */
uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

constexpr uint64_t kSaltFault = 0xFA17ull;
constexpr uint64_t kSaltPermanent = 0x9E24ull;
constexpr uint64_t kSaltStall = 0x57A1ull;
constexpr uint64_t kSaltJitter = 0x317Eull;

}  // namespace

uint64_t FaultSiteHash(uint64_t seed, uint64_t key, uint64_t site,
                       uint64_t salt) {
    return Mix(Mix(seed ^ Mix(key)) ^ Mix(site) ^ salt);
}

double FaultHashUnit(uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace {

/** Local aliases: every decision below draws from the shared hash. */
uint64_t SiteHash(uint64_t seed, uint64_t job, uint64_t gate, uint64_t salt) {
    return FaultSiteHash(seed, job, gate, salt);
}

double Unit(uint64_t h) { return FaultHashUnit(h); }

}  // namespace

bool FaultInjector::WouldFault(uint64_t job, uint32_t attempt,
                               uint64_t gate_ordinal, bool* permanent) const {
    bool fires = false;
    if (plan_.fault_every_nth_job != 0 &&
        gate_ordinal == plan_.fault_gate_ordinal &&
        job % plan_.fault_every_nth_job == plan_.fault_every_nth_job - 1)
        fires = true;
    if (!fires && plan_.gate_fault_rate > 0.0 &&
        Unit(SiteHash(plan_.seed, job, gate_ordinal, kSaltFault)) <
            plan_.gate_fault_rate)
        fires = true;
    if (!fires) return false;
    // Permanence is a property of the site, not of the attempt: a
    // permanent site fails identically on every re-execution.
    *permanent = Unit(SiteHash(plan_.seed, job, gate_ordinal,
                               kSaltPermanent)) < plan_.permanent_fraction;
    if (!*permanent && attempt >= plan_.transient_clears_after)
        return false;  // Transient fault has cleared.
    return true;
}

void FaultInjector::OnGate(uint64_t job, uint32_t attempt,
                           uint64_t gate_ordinal,
                           const RunControl* control,
                           const std::atomic<bool>* interrupt) {
    if (plan_.stall_rate > 0.0 &&
        Unit(SiteHash(plan_.seed, job, gate_ordinal, kSaltStall)) <
            plan_.stall_rate) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        const auto total =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::duration<double, std::micro>(
                    plan_.stall_microseconds));
        const bool engaged =
            interrupt != nullptr ||
            (control != nullptr && control->Engaged());
        if (!engaged) {
            std::this_thread::sleep_for(total);
        } else {
            // Cooperative stall: sleep in short slices so a cancelled or
            // expired run sheds the injected straggler promptly instead
            // of serving out the full sentence.
            constexpr auto kSlice = std::chrono::milliseconds(1);
            auto remaining = total;
            while (remaining.count() > 0 &&
                   (interrupt == nullptr ||
                    !interrupt->load(std::memory_order_relaxed)) &&
                   (control == nullptr ||
                    control->Check() == RunControl::Abort::kNone)) {
                const auto step = remaining < kSlice
                                      ? remaining
                                      : std::chrono::microseconds(kSlice);
                std::this_thread::sleep_for(step);
                remaining -= step;
            }
        }
    }
    bool permanent = false;
    if (!WouldFault(job, attempt, gate_ordinal, &permanent)) return;
    if (permanent) {
        permanent_faults_.fetch_add(1, std::memory_order_relaxed);
        throw FaultInjectedError(
            "injected permanent fault (job " + std::to_string(job) +
                ", gate " + std::to_string(gate_ordinal) + ")",
            /*permanent=*/true);
    }
    transient_faults_.fetch_add(1, std::memory_order_relaxed);
    throw FaultInjectedError(
        "injected transient fault (job " + std::to_string(job) + ", gate " +
            std::to_string(gate_ordinal) + ", attempt " +
            std::to_string(attempt) + ")",
        /*permanent=*/false);
}

double RetryPolicy::BackoffSeconds(uint64_t job, uint32_t attempt) const {
    if (attempt == 0 || initial_backoff_seconds <= 0.0) return 0.0;
    double backoff = initial_backoff_seconds;
    for (uint32_t a = 1; a < attempt; ++a) backoff *= backoff_multiplier;
    if (jitter > 0.0) {
        const double u =
            Unit(SiteHash(0x6A77ull, job, attempt, kSaltJitter));
        backoff *= 1.0 + jitter * (2.0 * u - 1.0);
    }
    return backoff;
}

}  // namespace pytfhe::backend
