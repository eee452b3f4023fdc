#include "common/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/env.hpp"

namespace odin::common {

std::atomic<long long> ThreadPool::stalls_{0};

namespace {

/// Set while a thread is executing chunks, so nested regions run inline.
thread_local bool tls_in_parallel_region = false;

int threads_from_env() {
  long long v = 0;
  if (env_long("ODIN_THREADS", v) && v >= 1)
    return static_cast<int>(std::min<long long>(v, 256));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// Huge sentinel with headroom: stragglers from a finished job fetch_add
// past it harmlessly and can never wrap back into a valid chunk index.
constexpr std::size_t kJobClosed =
    std::numeric_limits<std::size_t>::max() / 2;

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(threads_from_env());
  return pool;
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1)) {
  job_next_.store(kJobClosed, std::memory_order_relaxed);
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers() {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(wake_mutex_);
  stop_ = false;
}

void ThreadPool::set_threads(int n) {
  std::lock_guard<std::mutex> job_lock(job_mutex_);
  stop_workers();
  threads_ = std::max(n, 1);
  start_workers();
}

void ThreadPool::record_exception() {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!job_failed_.exchange(true, std::memory_order_relaxed))
    job_error_ = std::current_exception();
}

void ThreadPool::drain_job() {
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  for (;;) {
    const std::size_t chunk =
        job_next_.fetch_add(1, std::memory_order_acquire);
    if (chunk >= job_chunks_.load(std::memory_order_relaxed)) break;
    const std::size_t b = job_begin_ + chunk * job_grain_;
    const std::size_t e = std::min(job_end_, b + job_grain_);
    // A failed job skips the remaining bodies; so does a cancelled one
    // (the watchdog fired, or the caller gave up on the region). The
    // chunk counters still drain so the join below completes normally.
    const bool skip =
        job_failed_.load(std::memory_order_relaxed) ||
        (job_token_ != nullptr && job_token_->cancelled());
    if (!skip) {
      try {
        job_fn_(job_ctx_, b, e);
      } catch (...) {
        record_exception();
      }
    }
    if (job_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      done_cv_.notify_all();
    }
  }
  tls_in_parallel_region = was_in_region;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(wake_mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    ++lanes_draining_;
    lock.unlock();
    drain_job();
    lock.lock();
    if (--lanes_draining_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t begin, std::size_t end,
                            std::size_t grain, ChunkFn fn, void* ctx,
                            std::size_t cost_hint_ns,
                            CancellationToken* token) {
  if (begin >= end) return;
  if (token != nullptr && token->cancelled()) return;  // already cut short
  const std::size_t n = end - begin;
  std::size_t g = grain;
  if (g == 0)
    g = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(threads_) * 4));
  // Minimum-work grain: when the caller's cost hint says the whole region
  // is below the fork-join break-even point, don't wake the pool at all.
  // (Overflow-safe: treat saturated products as "plenty of work".)
  const bool too_small =
      cost_hint_ns != 0 &&
      n <= min_parallel_work_ns() / cost_hint_ns &&
      n * cost_hint_ns < min_parallel_work_ns();
  // Sequential path: single-lane pool, a range that fits one chunk, a
  // region below the work cutoff, or a nested region (already on a worker
  // — running inline avoids deadlock).
  if (threads_ <= 1 || n <= g || too_small || tls_in_parallel_region) {
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    try {
      fn(ctx, begin, end);
    } catch (...) {
      tls_in_parallel_region = was_in_region;
      throw;
    }
    tls_in_parallel_region = was_in_region;
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mutex_);
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_token_ = token;
  job_begin_ = begin;
  job_end_ = end;
  job_grain_ = g;
  const std::size_t chunks = (n + g - 1) / g;
  job_chunks_.store(chunks, std::memory_order_relaxed);
  job_pending_.store(chunks, std::memory_order_relaxed);
  job_failed_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++epoch_;
    // Release-publish the descriptor: a worker (or late straggler from the
    // previous job) that claims a chunk sees every field above.
    job_next_.store(0, std::memory_order_release);
  }
  wake_cv_.notify_all();
  drain_job();  // the caller is lane 0
  {
    std::unique_lock<std::mutex> lock(wake_mutex_);
    done_cv_.wait(lock, [&] {
      return job_pending_.load(std::memory_order_acquire) == 0;
    });
    job_next_.store(kJobClosed, std::memory_order_relaxed);
    // Every chunk is done, but a worker may still hold a claim past the
    // last one that it has not yet compared with job_chunks_. Workers
    // enter drain_job only under this mutex, so once none is inside, any
    // later claim lands past kJobClosed.
    done_cv_.wait(lock, [&] { return lanes_draining_ == 0; });
  }
  if (job_failed_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    std::exception_ptr err = std::exchange(job_error_, nullptr);
    if (err) std::rethrow_exception(err);
  }
}

Watchdog::Watchdog() : monitor_([this] { monitor_loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    ++generation_;
  }
  cv_.notify_all();
  monitor_.join();
}

void Watchdog::arm(CancellationToken* token, std::chrono::nanoseconds bound) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(!armed_ && "Watchdog::arm while already armed");
    armed_token_ = token;
    expiry_ = std::chrono::steady_clock::now() + bound;
    armed_ = true;
    fired_ = false;
    ++generation_;
  }
  cv_.notify_all();
}

bool Watchdog::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool fired = fired_;
  armed_ = false;
  armed_token_ = nullptr;
  fired_ = false;
  ++generation_;
  cv_.notify_all();
  return fired;
}

void Watchdog::monitor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || armed_; });
    if (stop_) return;
    const std::uint64_t gen = generation_;
    // Wait for either the deadline or a disarm (generation bump). A
    // spurious wake re-enters with the same predicate.
    cv_.wait_until(lock, expiry_,
                   [&] { return stop_ || generation_ != gen; });
    if (stop_) return;
    if (generation_ != gen) continue;  // disarmed in time
    if (armed_ && armed_token_ != nullptr) {
      // The operation overran its wall-time bound: cancel cooperatively
      // and count the stall. The armed operation's disarm() reports it.
      armed_token_->cancel();
      fired_ = true;
      stalls_.fetch_add(1, std::memory_order_relaxed);
      ThreadPool::record_stall();
      // Stay quiet until the operation disarms (generation bump).
      cv_.wait(lock, [&] { return stop_ || generation_ != gen; });
      if (stop_) return;
    }
  }
}

}  // namespace odin::common
