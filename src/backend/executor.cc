#include "backend/executor.h"

namespace pytfhe::backend {

Executor::~Executor() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
}

int32_t Executor::NumWorkers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int32_t>(threads_.size());
}

void Executor::EnsureWorkersLocked(int32_t n) {
    while (static_cast<int32_t>(threads_.size()) < n)
        threads_.emplace_back([this] { WorkerLoop(); });
}

void Executor::RunOnWorkers(int32_t workers,
                              const std::function<void()>& fn) {
    if (workers <= 0) {
        fn();
        return;
    }
    // One region at a time: concurrent callers queue up here instead of
    // clobbering each other's region bookkeeping.
    std::lock_guard<std::mutex> region(region_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    EnsureWorkersLocked(workers);
    job_ = &fn;
    ++generation_;
    target_ = workers;
    started_ = 0;
    finished_ = 0;
    lock.unlock();
    work_cv_.notify_all();

    // The calling thread is a participant too.
    fn();

    lock.lock();
    done_cv_.wait(lock, [&] { return finished_ == target_; });
    job_ = nullptr;
}

void Executor::WorkerLoop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        work_cv_.wait(lock, [&] {
            return shutdown_ ||
                   (job_ != nullptr && generation_ != seen &&
                    started_ < target_);
        });
        if (shutdown_) return;
        // Claim a participation slot in this region; late wakers past the
        // target go back to sleep until the next generation.
        seen = generation_;
        ++started_;
        const std::function<void()>* fn = job_;
        lock.unlock();
        (*fn)();
        lock.lock();
        if (++finished_ == target_) done_cv_.notify_all();
    }
}

}  // namespace pytfhe::backend
