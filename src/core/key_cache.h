/**
 * @file
 * core::TenantKeyCache — bounded residency for per-tenant evaluation keys.
 *
 * A bootstrapping key is tens of megabytes; a registry that keeps every
 * tenant's key resident forever dies at ~100 tenants. This cache bounds
 * resident key bytes with an LRU over tenants:
 *
 *  - Residency: Put() makes a key resident; once resident bytes exceed
 *    `capacity_bytes`, least-recently-used entries are dropped from the
 *    cache. capacity_bytes == 0 means unlimited (the pre-cache behavior:
 *    every registered key stays resident).
 *  - Pinning: Get() returns a shared_ptr to the tenant entry. Eviction
 *    only drops the cache's reference — an in-flight job that pinned the
 *    entry keeps the evaluator (and the key behind it) alive until the
 *    job completes, so eviction can never free key material under a
 *    running job. Evicted-but-pinned bytes are accounted separately
 *    (stats().pinned_evicted_bytes): the memory guarantee is
 *    resident <= capacity, resident + pinned <= capacity + in-flight keys.
 *  - Lazy reload: a tenant registered with a KeySource (a callback that
 *    loads the key, e.g. from a CRC32C-framed evaluation-key artifact on
 *    disk) is reloaded transparently on a Get() miss. Reloads are
 *    single-flight per tenant — concurrent getters of the same evicted
 *    key wait for one load instead of issuing duplicates — and the cache
 *    lock is NOT held during the load, so resident tenants submit
 *    unimpeded while a cold key streams in. A throwing source (e.g.
 *    tfhe::CorruptPayloadError on a bit-flipped artifact) propagates to
 *    exactly the getters of that tenant.
 *
 * Thread-safe; one mutex guards the index, never held across a reload.
 */
#ifndef PYTFHE_CORE_KEY_CACHE_H
#define PYTFHE_CORE_KEY_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "backend/evaluator.h"
#include "tfhe/gates.h"

namespace pytfhe::core {

using tfhe::KeyId;

/**
 * Loads one tenant's evaluation key on demand (cache miss after eviction,
 * or first use of a lazily registered tenant). Must return a non-null
 * evaluator whose key_id() matches the tenant it was registered for;
 * throws (typically tfhe::CorruptPayloadError) when the backing artifact
 * is unreadable. Called without the cache lock held; may run concurrently
 * for different tenants but never twice concurrently for the same one.
 */
using KeySource = std::function<std::shared_ptr<tfhe::GateEvaluator>()>;

/** Accounted size of one evaluation key (FFT-domain bk + ksk slab). */
uint64_t EvaluationKeyBytes(const tfhe::GateEvaluator& gates);

/**
 * A KeySource that opens `path` and loads the CRC32C-framed evaluation-key
 * artifact (tfhe::SaveEvaluationKey) inside; throws
 * tfhe::CorruptPayloadError on a missing, truncated, or bit-flipped file.
 */
KeySource FileKeySource(std::string path);

/**
 * One resident tenant: the owning handle on the key material plus the
 * TfheEvaluator the scheduler calls into, and the fairness weight the
 * serving layer schedules it with. Jobs pin this via shared_ptr for
 * their whole lifetime.
 */
struct TenantEntry {
    std::shared_ptr<tfhe::GateEvaluator> gates;
    backend::TfheEvaluator evaluator;
    uint64_t bytes = 0;
    uint32_t weight = 1;

    TenantEntry(std::shared_ptr<tfhe::GateEvaluator> g, uint32_t w)
        : gates(std::move(g)),
          evaluator(*gates),
          bytes(EvaluationKeyBytes(*gates)),
          weight(w) {}
};

/** Counters; a consistent snapshot is taken under the cache lock. */
struct KeyCacheStats {
    uint64_t hits = 0;        ///< Get() served from resident entries.
    uint64_t misses = 0;      ///< Get() that found no resident entry.
    uint64_t reloads = 0;     ///< Misses served by a KeySource load.
    uint64_t reload_failures = 0;  ///< KeySource calls that threw.
    uint64_t evictions = 0;   ///< Entries dropped by the LRU.
    uint64_t inserts = 0;     ///< Put() + successful reloads.
    uint64_t resident_keys = 0;
    uint64_t resident_bytes = 0;       ///< Held by the cache right now.
    uint64_t peak_resident_bytes = 0;  ///< Max resident_bytes observed.
    /** Bytes of evicted entries still pinned by in-flight jobs. */
    uint64_t pinned_evicted_bytes = 0;
    /** Max of resident + pinned-evicted bytes observed. */
    uint64_t peak_total_bytes = 0;
    double reload_seconds = 0.0;  ///< Wall time spent in KeySource calls.

    double HitRate() const {
        const uint64_t total = hits + misses;
        return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
};

class TenantKeyCache {
  public:
    /** capacity_bytes == 0: unlimited (every key stays resident). */
    explicit TenantKeyCache(uint64_t capacity_bytes = 0)
        : capacity_bytes_(capacity_bytes) {}

    TenantKeyCache(const TenantKeyCache&) = delete;
    TenantKeyCache& operator=(const TenantKeyCache&) = delete;

    /**
     * Makes `gates` the resident key for its KeyId and returns the entry
     * (pinned for the caller). Re-registering an already-known tenant
     * REPLACES the resident key — the key-refresh path; jobs already
     * in flight keep their pinned old entry, new submissions see the new
     * one. May evict other tenants (or, when a single key exceeds the
     * capacity, the new entry itself — the returned pin keeps it usable).
     */
    std::shared_ptr<TenantEntry> Put(std::shared_ptr<tfhe::GateEvaluator> gates,
                                     uint32_t weight = 1);

    /**
     * Registers a tenant whose key loads on demand: no bytes are resident
     * until the first Get(). Replaces any previous source for `id`; the
     * weight applies once the key loads (and to an already-resident entry).
     */
    void PutSource(KeyId id, KeySource source, uint32_t weight = 1);

    /**
     * The entry for `id`, pinned: a resident hit touches the LRU; a miss
     * with a registered KeySource reloads (single-flight, lock dropped
     * during the load, exceptions propagate); a miss without a source
     * returns nullptr (unknown tenant, or registered key was evicted with
     * no way back — the caller should treat both as unregistered).
     */
    std::shared_ptr<TenantEntry> Get(KeyId id);

    /**
     * Drops `id`'s residency (pinned jobs are unaffected); the KeySource,
     * if any, is retained so the next Get() reloads. Returns true if an
     * entry was resident. A tenant evicted with no source becomes
     * unknown once its last pin drops.
     */
    bool Evict(KeyId id);

    /** True when `id` is resident or reloadable (has a KeySource). */
    bool Known(KeyId id) const;

    /** Tenants the cache can serve (resident or reloadable). */
    uint64_t KnownCount() const;

    KeyCacheStats stats() const;

    uint64_t capacity_bytes() const { return capacity_bytes_; }

  private:
    struct Slot {
        std::shared_ptr<TenantEntry> entry;  ///< Null when not resident.
        std::list<uint64_t>::iterator lru_it;  ///< Valid iff entry != null.
        KeySource source;  ///< Null when the key cannot be reloaded.
        uint32_t weight = 1;
        bool loading = false;  ///< A reload for this slot is in flight.
    };

    /** Inserts a resident entry for a slot and trims to capacity. */
    void InsertLocked(uint64_t id, Slot& slot,
                      std::shared_ptr<TenantEntry> entry);
    /** Evicts LRU entries until resident bytes fit the capacity. */
    void TrimLocked();
    /** Moves an evicted entry to the pinned ledger (drops dead pins). */
    void AccountEvictedLocked(const std::shared_ptr<TenantEntry>& entry);
    /** Recomputes pinned bytes and the peak-total watermark. */
    void RefreshWatermarksLocked();
    /** Drops slots that can never serve again (no entry, no source). */
    void EraseIfDeadLocked(uint64_t id);

    const uint64_t capacity_bytes_;

    mutable std::mutex mu_;
    std::condition_variable loaded_cv_;  ///< Single-flight reload waiters.
    std::map<uint64_t, Slot> slots_;
    std::list<uint64_t> lru_;  ///< Front = most recently used resident id.
    uint64_t resident_bytes_ = 0;
    /** Evicted entries that may still be pinned by in-flight jobs. */
    std::vector<std::weak_ptr<TenantEntry>> evicted_pins_;
    KeyCacheStats stats_;
};

}  // namespace pytfhe::core

#endif  // PYTFHE_CORE_KEY_CACHE_H
