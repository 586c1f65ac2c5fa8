#include "core/key_cache.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "tfhe/serialization.h"

namespace pytfhe::core {

uint64_t EvaluationKeyBytes(const tfhe::GateEvaluator& gates) {
    const tfhe::BootstrappingKey& key = gates.key();
    return key.BkByteSize() + key.ksk().ByteSize();
}

KeySource FileKeySource(std::string path) {
    return [path = std::move(path)]() {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            throw tfhe::CorruptPayloadError(
                "load EvaluationKey: cannot open " + path);
        tfhe::EvaluationKeyArtifact artifact =
            tfhe::LoadEvaluationKeyOrThrow(is);
        return std::make_shared<tfhe::GateEvaluator>(
            std::make_shared<tfhe::BootstrappingKey>(
                std::move(artifact.key)),
            artifact.key_id);
    };
}

std::shared_ptr<TenantEntry> TenantKeyCache::Put(
    std::shared_ptr<tfhe::GateEvaluator> gates, uint32_t weight) {
    auto entry =
        std::make_shared<TenantEntry>(std::move(gates), std::max(1u, weight));
    const uint64_t id = entry->gates->key_id().value;
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[id];
    slot.weight = entry->weight;
    InsertLocked(id, slot, entry);
    return entry;
}

void TenantKeyCache::PutSource(KeyId id, KeySource source, uint32_t weight) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[id.value];
    slot.source = std::move(source);
    slot.weight = std::max(1u, weight);
    if (slot.entry) slot.entry->weight = slot.weight;
}

std::shared_ptr<TenantEntry> TenantKeyCache::Get(KeyId id) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        auto it = slots_.find(id.value);
        if (it == slots_.end()) {
            ++stats_.misses;
            return nullptr;
        }
        Slot& slot = it->second;
        if (slot.entry) {
            ++stats_.hits;
            lru_.erase(slot.lru_it);
            lru_.push_front(id.value);
            slot.lru_it = lru_.begin();
            return slot.entry;
        }
        if (slot.loading) {
            // Another getter is already reloading this tenant; wait for it
            // rather than loading the same megabytes twice.
            loaded_cv_.wait(lock);
            continue;
        }
        if (!slot.source) {
            ++stats_.misses;
            return nullptr;
        }
        ++stats_.misses;
        slot.loading = true;
        KeySource source = slot.source;
        lock.unlock();
        // The load runs without the lock: resident tenants keep submitting
        // while this key streams in.
        std::shared_ptr<tfhe::GateEvaluator> gates;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            gates = source();
        } catch (...) {
            lock.lock();
            stats_.reload_seconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            ++stats_.reload_failures;
            auto again = slots_.find(id.value);
            if (again != slots_.end()) again->second.loading = false;
            loaded_cv_.notify_all();
            throw;
        }
        lock.lock();
        stats_.reload_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        auto again = slots_.find(id.value);
        if (again == slots_.end()) {
            // The tenant vanished while loading (evicted + erased); hand
            // the loaded key to this caller without caching it.
            loaded_cv_.notify_all();
            if (!gates || gates->key_id() != id)
                throw tfhe::CorruptPayloadError(
                    "load EvaluationKey: source returned wrong key for " +
                    id.ToString());
            ++stats_.reloads;
            return std::make_shared<TenantEntry>(std::move(gates), 1);
        }
        Slot& reslot = again->second;
        reslot.loading = false;
        loaded_cv_.notify_all();
        if (!gates || gates->key_id() != id)
            throw tfhe::CorruptPayloadError(
                "load EvaluationKey: source returned wrong key for " +
                id.ToString());
        if (reslot.entry) {
            // A concurrent Put landed a fresher key while we loaded;
            // prefer it and drop the loaded copy.
            ++stats_.hits;
            lru_.erase(reslot.lru_it);
            lru_.push_front(id.value);
            reslot.lru_it = lru_.begin();
            return reslot.entry;
        }
        ++stats_.reloads;
        auto entry = std::make_shared<TenantEntry>(std::move(gates),
                                                   reslot.weight);
        InsertLocked(id.value, reslot, entry);
        return entry;
    }
}

bool TenantKeyCache::Evict(KeyId id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id.value);
    if (it == slots_.end() || !it->second.entry) return false;
    Slot& slot = it->second;
    lru_.erase(slot.lru_it);
    resident_bytes_ -= slot.entry->bytes;
    ++stats_.evictions;
    AccountEvictedLocked(slot.entry);
    slot.entry.reset();
    EraseIfDeadLocked(id.value);
    RefreshWatermarksLocked();
    return true;
}

bool TenantKeyCache::Known(KeyId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id.value);
    return it != slots_.end() &&
           (it->second.entry != nullptr || it->second.source != nullptr ||
            it->second.loading);
}

uint64_t TenantKeyCache::KnownCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
}

KeyCacheStats TenantKeyCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    KeyCacheStats out = stats_;
    out.resident_keys = lru_.size();
    out.resident_bytes = resident_bytes_;
    uint64_t pinned = 0;
    for (const auto& weak : evicted_pins_)
        if (auto entry = weak.lock()) pinned += entry->bytes;
    out.pinned_evicted_bytes = pinned;
    out.peak_total_bytes =
        std::max(out.peak_total_bytes, resident_bytes_ + pinned);
    return out;
}

void TenantKeyCache::InsertLocked(uint64_t id, Slot& slot,
                                  std::shared_ptr<TenantEntry> entry) {
    if (slot.entry) {
        // Replacement (key refresh): the old entry leaves residency; jobs
        // pinning it are unaffected.
        lru_.erase(slot.lru_it);
        resident_bytes_ -= slot.entry->bytes;
        AccountEvictedLocked(slot.entry);
    }
    slot.entry = std::move(entry);
    lru_.push_front(id);
    slot.lru_it = lru_.begin();
    resident_bytes_ += slot.entry->bytes;
    ++stats_.inserts;
    TrimLocked();
    RefreshWatermarksLocked();
}

void TenantKeyCache::TrimLocked() {
    while (capacity_bytes_ > 0 && resident_bytes_ > capacity_bytes_ &&
           !lru_.empty()) {
        const uint64_t victim = lru_.back();
        lru_.pop_back();
        Slot& slot = slots_[victim];
        resident_bytes_ -= slot.entry->bytes;
        ++stats_.evictions;
        AccountEvictedLocked(slot.entry);
        slot.entry.reset();
        EraseIfDeadLocked(victim);
    }
}

void TenantKeyCache::AccountEvictedLocked(
    const std::shared_ptr<TenantEntry>& entry) {
    // Compact dead pins first so the ledger stays O(in-flight evictions).
    size_t kept = 0;
    for (auto& weak : evicted_pins_)
        if (!weak.expired()) evicted_pins_[kept++] = std::move(weak);
    evicted_pins_.resize(kept);
    evicted_pins_.emplace_back(entry);
}

void TenantKeyCache::RefreshWatermarksLocked() {
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, resident_bytes_);
    uint64_t pinned = 0;
    for (const auto& weak : evicted_pins_)
        if (auto entry = weak.lock()) pinned += entry->bytes;
    stats_.peak_total_bytes =
        std::max(stats_.peak_total_bytes, resident_bytes_ + pinned);
}

void TenantKeyCache::EraseIfDeadLocked(uint64_t id) {
    auto it = slots_.find(id);
    if (it != slots_.end() && !it->second.entry && !it->second.source &&
        !it->second.loading)
        slots_.erase(it);
}

}  // namespace pytfhe::core
