// Unit tests for the thread-pool parallel execution layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"

namespace odin::common {
namespace {

TEST(ThreadPool, EmptyRangeInvokesNothing) {
  ThreadPool::instance().set_threads(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, 1, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for_chunks(7, 3, 2,
                      [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  const auto out = parallel_transform(0, 1, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool::instance().set_threads(8);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, 7, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, GrainLargerThanRangeRunsAsOneChunk) {
  ThreadPool::instance().set_threads(8);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> covered{0};
  parallel_for_chunks(3, 13, 100, [&](std::size_t b, std::size_t e) {
    chunks.fetch_add(1);
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool::instance().set_threads(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  parallel_for_chunks(10, 107, 9, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(m);
    spans.emplace_back(b, e);
  });
  std::sort(spans.begin(), spans.end());
  std::size_t cursor = 10;
  for (const auto& [b, e] : spans) {
    EXPECT_EQ(b, cursor);
    EXPECT_GT(e, b);
    EXPECT_LE(e - b, 9u);
    cursor = e;
  }
  EXPECT_EQ(cursor, 107u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool::instance().set_threads(4);
  try {
    parallel_for(0, 1000, 1, [](std::size_t i) {
      if (i == 373) throw std::runtime_error("chunk failure");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failure");
  }
  // The pool stays usable after a failed region.
  std::atomic<int> calls{0};
  parallel_for(0, 64, 1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesFromInlinePath) {
  ThreadPool::instance().set_threads(1);
  EXPECT_THROW(parallel_for(0, 8, 1,
                            [](std::size_t) {
                              throw std::logic_error("inline failure");
                            }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool::instance().set_threads(8);
  std::atomic<int> total{0};
  parallel_for(0, 16, 1, [&](std::size_t) {
    parallel_for(0, 64, 4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(ThreadPool, TransformPreservesIndexOrder) {
  ThreadPool::instance().set_threads(8);
  const auto out =
      parallel_transform(257, 3, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, OrderedReductionMatchesSequentialBitwise) {
  auto run = [](int threads) {
    ThreadPool::instance().set_threads(threads);
    const auto parts = parallel_transform(1000, 16, [](std::size_t i) {
      const double x = static_cast<double>(i);
      return std::sin(x) * 1e-3 + 1.0 / (x + 1.0);
    });
    double sum = 0.0;
    for (double p : parts) sum += p;
    return sum;
  };
  const double seq = run(1);
  const double par = run(8);
  EXPECT_EQ(seq, par);  // bitwise, not approximate
}

// Back-to-back regions of 2-24 one-index chunks. A lane whose claim lands
// just past the last chunk of one region must never run, or count as done,
// a chunk of the next region. Each index counts its own visits, so a chunk
// run twice reads 2; a completion counted twice or lost leaves the caller
// waiting forever, which the monitor turns into a failed test (the stuck
// join cannot be unwound, so it ends the process).
TEST(ThreadPool, BackToBackRegionsRunEachChunkOnce) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kBudget = std::chrono::seconds(3);
  constexpr auto kStallLimit = std::chrono::seconds(10);
  constexpr std::size_t kMaxChunks = 24;
  ThreadPool::instance().set_threads(4);
  std::atomic<long long> regions{0};
  std::atomic<bool> finished{false};
  std::thread monitor([&] {
    long long seen = -1;
    Clock::time_point progress = Clock::now();
    while (!finished.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const long long now = regions.load(std::memory_order_relaxed);
      if (now != seen) {
        seen = now;
        progress = Clock::now();
      } else if (Clock::now() - progress > kStallLimit) {
        std::fprintf(stderr,
                     "ThreadPool.BackToBackRegionsRunEachChunkOnce: region "
                     "%lld never joined\n",
                     now + 1);
        std::fflush(stderr);
        std::_Exit(EXIT_FAILURE);
      }
    }
  });
  std::array<std::atomic<int>, kMaxChunks> visits{};
  long long miscounted = 0;
  const Clock::time_point end = Clock::now() + kBudget;
  for (std::size_t n = 2; Clock::now() < end;
       n = n == kMaxChunks ? 2 : n + 1) {
    for (std::atomic<int>& v : visits) v.store(0, std::memory_order_relaxed);
    parallel_for(0, n, 1, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      if (visits[i].load(std::memory_order_relaxed) != 1) ++miscounted;
    regions.fetch_add(1, std::memory_order_relaxed);
  }
  finished.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(miscounted, 0) << "over " << regions.load() << " regions";
  EXPECT_GT(regions.load(), 1000);
}

TEST(ThreadPool, SetThreadsReconfigures) {
  ThreadPool::instance().set_threads(3);
  EXPECT_EQ(ThreadPool::instance().threads(), 3);
  ThreadPool::instance().set_threads(1);
  EXPECT_EQ(ThreadPool::instance().threads(), 1);
  std::atomic<int> calls{0};
  parallel_for(0, 10, 1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

}  // namespace
}  // namespace odin::common
