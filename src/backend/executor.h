/**
 * @file
 * Persistent worker pool that local concurrent execution runs on.
 *
 * An Executor keeps its threads alive across calls, so repeated runs pay
 * thread creation once. It is the substrate of the serving scheduler
 * (serving.h), which holds one parallel region for its whole lifetime;
 * backend::Execute (execute.h) stands one up per call on a caller-owned
 * Executor or a transient one.
 */
#ifndef PYTFHE_BACKEND_EXECUTOR_H
#define PYTFHE_BACKEND_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pytfhe::backend {

/**
 * A persistent pool of worker threads that execute "parallel regions":
 * RunOnWorkers(n, fn) runs `fn` on n pool workers plus the calling thread
 * and returns when all participants finish. Workers are created on demand,
 * kept across calls (no per-run thread churn), and joined on destruction.
 * One Executor per server (or per process) amortizes thread creation.
 */
class Executor {
  public:
    Executor() = default;
    ~Executor();
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /**
     * Runs `fn` concurrently on `workers` pool threads and on the calling
     * thread; blocks until every participant has returned. `workers == 0`
     * degenerates to a plain inline call. Concurrent callers are
     * serialized: one region runs at a time.
     */
    void RunOnWorkers(int32_t workers, const std::function<void()>& fn);

    /** Number of pool threads created so far. */
    int32_t NumWorkers() const;

  private:
    void EnsureWorkersLocked(int32_t n);
    void WorkerLoop();

    std::mutex region_mu_;  ///< Serializes RunOnWorkers callers.
    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< Workers wait here for a region.
    std::condition_variable done_cv_;  ///< Caller waits here for completion.
    std::vector<std::thread> threads_;
    const std::function<void()>* job_ = nullptr;
    uint64_t generation_ = 0;  ///< Bumped per region so workers join once.
    int32_t target_ = 0;       ///< Workers wanted for the current region.
    int32_t started_ = 0;
    int32_t finished_ = 0;
    bool shutdown_ = false;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_EXECUTOR_H
