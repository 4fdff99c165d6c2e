#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace deepseq::runtime {

/// Fixed-size worker pool over a lock-based MPMC task queue — the helpers
/// the ingest frontend fans its per-module parses out to. Design points:
///
/// * submit() is safe from any thread, including from inside a task (the
///   queue lock is never held while running user work).
/// * Destruction runs every queued task before joining the workers.
/// * Tasks must not throw; submit_with_result() transports exceptions
///   through its std::future instead.
class ThreadPool {
 public:
  /// `threads` <= 0 falls back to hardware_concurrency (min 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueue fire-and-forget work.
  void submit(std::function<void()> task);

  /// Enqueue work whose result (or exception) is delivered via a future.
  template <typename F>
  auto submit_with_result(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    submit([task]() { (*task)(); });
    return future;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace deepseq::runtime
