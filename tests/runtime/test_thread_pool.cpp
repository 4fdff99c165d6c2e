#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

namespace deepseq::runtime {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 100; ++i)
    done.push_back(pool.submit_with_result([&count] { ++count; }));
  for (auto& f : done) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPreservesSubmissionOrder) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i)
      pool.submit([&order, i] { order.push_back(i); });
  }  // destruction runs every queued task
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, TasksSubmittedFromTasksRun) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> outer;
    for (int i = 0; i < 10; ++i) {
      outer.push_back(pool.submit_with_result([&pool, &count] {
        ++count;
        pool.submit([&count] { ++count; });
      }));
    }
    for (auto& f : outer) f.get();  // every inner task is queued by now
  }  // destruction runs every queued task
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmitWithResultDeliversValue) {
  ThreadPool pool(2);
  auto f = pool.submit_with_result([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitWithResultTransportsExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit_with_result(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPool, StressManyProducersManyTasks) {
  std::atomic<long long> sum{0};
  {
    ThreadPool pool(4);
    ThreadPool producers(4);  // destroyed first: every producer has run
    for (int p = 0; p < 4; ++p) {
      producers.submit([&pool, &sum, p] {
        for (int i = 0; i < 500; ++i) {
          const long long v = 1000LL * p + i;
          pool.submit([&sum, v] { sum += v; });
        }
      });
    }
  }
  long long expect = 0;
  for (int p = 0; p < 4; ++p)
    for (int i = 0; i < 500; ++i) expect += 1000LL * p + i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.submit([&count] { ++count; });
  }
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace deepseq::runtime
