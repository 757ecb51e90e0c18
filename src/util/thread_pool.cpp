#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"
#include "util/env.hpp"

namespace bpart {

void pin_this_thread(unsigned slot) {
#ifdef __linux__
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(slot % ncpu, &set);
  // Best effort: a failed affinity call (cgroup restrictions, exotic
  // topologies) silently leaves the thread free-floating.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)slot;
#endif
}

ThreadPool::ThreadPool(unsigned workers, unsigned pin_slot_base)
    : pin_slot_base_(pin_slot_base), pin_(pin_threads()) {
  BPART_CHECK(workers >= 1);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned index) {
  if (pin_) pin_this_thread(pin_slot_base_ + index);
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
