#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace deepseq::runtime {
namespace {

/// Process-wide pool metrics (all ThreadPool instances aggregate): queue
/// depth is a gauge sampled at every transition, executed tasks a counter.
/// Looked up once; recording is lock-free.
struct PoolMetrics {
  obs::Gauge& queue_depth = obs::Registry::global().gauge("pool.queue_depth");
  obs::Counter& tasks = obs::Registry::global().counter("pool.tasks");
  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    PoolMetrics::get().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    PoolMetrics::get().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    lock.unlock();
    task();
    PoolMetrics::get().tasks.inc();
    lock.lock();
  }
}

}  // namespace deepseq::runtime
