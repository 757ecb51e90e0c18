// Work-queue thread pool plus a parallel_for helper.
//
// The pool backs the exec core's Executor (src/exec/scheduler.hpp);
// parallel_for runs the one-shot loops of ingest, the CSR build and the
// dist subgraph build. On a single-core host it degrades gracefully:
// parallel_for with one worker runs inline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bpart {

class ThreadPool {
 public:
  /// Spawns `workers` threads (>= 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Blocks until all currently queued tasks have run.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Split [begin, end) into roughly equal chunks and run `fn(lo, hi)` on each,
/// using the calling thread when workers == 1 (no pool allocation).
/// `fn` must be safe to call concurrently on disjoint ranges. If a chunk
/// throws, the other chunks still run to completion and the first exception
/// is rethrown to the caller.
void parallel_for(std::uint64_t begin, std::uint64_t end, unsigned workers,
                  const std::function<void(std::uint64_t, std::uint64_t)>& fn);

}  // namespace bpart
