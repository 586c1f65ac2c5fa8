#include "core/service.h"

#include <chrono>
#include <utility>

#include "tfhe/serialization.h"

namespace pytfhe::core {

Service::Service(const ServiceOptions& options)
    : cache_(options.key_cache_capacity_bytes),
      serving_(executor_, options.serving) {}

Service::~Service() {
    serving_.Stop();
}

KeyId Service::RegisterTenant(std::shared_ptr<tfhe::GateEvaluator> gates,
                              uint32_t weight) {
    if (!gates)
        throw std::invalid_argument("Service::RegisterTenant: null evaluator");
    const KeyId id = gates->key_id();
    if (!id.IsSet())
        throw std::invalid_argument(
            "Service::RegisterTenant: evaluation key carries no KeyId; "
            "construct the GateEvaluator from a SecretKeySet or pass an "
            "explicit id");
    cache_.Put(std::move(gates), weight);
    return id;
}

void Service::RegisterTenantSource(KeyId id, KeySource source,
                                   uint32_t weight) {
    if (!id.IsSet())
        throw std::invalid_argument(
            "Service::RegisterTenantSource: unset KeyId");
    if (!source)
        throw std::invalid_argument(
            "Service::RegisterTenantSource: null source");
    cache_.PutSource(id, std::move(source), weight);
}

bool Service::EvictTenant(KeyId key) {
    return cache_.Evict(key);
}

JobHandle Service::Submit(KeyId key, const pasm::Program& program,
                          Ciphertexts inputs, const RunOptions& options) {
    return Submit(key, std::make_shared<const pasm::Program>(program),
                  std::move(inputs), options);
}

JobHandle Service::Submit(KeyId key,
                          std::shared_ptr<const pasm::Program> program,
                          Ciphertexts inputs, const RunOptions& options) {
    std::shared_ptr<TenantEntry> entry;
    try {
        entry = cache_.Get(key);
    } catch (const tfhe::CorruptPayloadError&) {
        // The tenant's backing artifact rotted: fail THIS submission with
        // the typed error, leave the pool (and every other tenant) alone.
        return JobHandle(std::current_exception(), key);
    }
    if (!entry)
        throw UnknownKeyError("Service::Submit: no tenant registered for " +
                              key.ToString() +
                              "; call RegisterTenant first");
    backend::ServingExecutor<backend::TfheEvaluator>::SubmitOptions so;
    if (options.deadline_seconds > 0.0)
        so.control.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.deadline_seconds));
    so.tenant = key.value;
    so.weight = entry->weight;
    // The job owns a reference to the whole tenant entry: a key-cache
    // eviction (or tenant replacement) drops only the cache's reference,
    // never the key material this job evaluates under.
    so.pin = entry;
    backend::TfheEvaluator& evaluator = entry->evaluator;
    return JobHandle(serving_.Submit(std::move(program), evaluator,
                                     std::move(inputs), so),
                     key);
}

Service::Stats Service::stats() const {
    Stats out;
    out.serving = serving_.stats();
    out.key_cache = cache_.stats();
    out.tenants = cache_.KnownCount();
    return out;
}

}  // namespace pytfhe::core
