#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace bpart {

ThreadPool::ThreadPool(unsigned workers) {
  BPART_CHECK(workers >= 1);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void parallel_for(std::uint64_t begin, std::uint64_t end, unsigned workers,
                  const std::function<void(std::uint64_t, std::uint64_t)>& fn) {
  if (begin >= end) return;
  const std::uint64_t n = end - begin;
  if (workers <= 1 || n == 1) {
    fn(begin, end);
    return;
  }
  const unsigned chunks = std::min<std::uint64_t>(workers, n);
  // A throw escaping a std::thread entry calls std::terminate, so each
  // chunk catches its own; the first one is rethrown after every chunk
  // has been joined.
  std::exception_ptr error;
  std::mutex error_mutex;
  auto run = [&](std::uint64_t lo, std::uint64_t hi) {
    try {
      fn(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(chunks);
  const std::uint64_t step = n / chunks;
  const std::uint64_t rem = n % chunks;
  std::uint64_t lo = begin;
  for (unsigned i = 0; i < chunks; ++i) {
    const std::uint64_t hi = lo + step + (i < rem ? 1 : 0);
    threads.emplace_back(run, lo, hi);
    lo = hi;
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace bpart
