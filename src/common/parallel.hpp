// Parallel execution layer: a lazily-initialized global thread pool and
// deterministic fork-join helpers built on it.
//
// Design contract (see DESIGN.md "Threading model"):
//   * Pool size comes from the ODIN_THREADS environment variable at first
//     use (default: hardware_concurrency). ODIN_THREADS=1 forces every
//     helper onto the plain sequential path — no worker threads exist.
//   * parallel_for / parallel_transform split [begin, end) into fixed
//     chunks of `grain` indices. Chunk *assignment* to workers is dynamic,
//     but every index writes only its own slot, so outputs never depend on
//     scheduling. Reductions are the caller's job and must combine results
//     in index order; under that rule parallel runs are bitwise identical
//     to ODIN_THREADS=1.
//   * The first exception thrown by any chunk is captured and rethrown on
//     the calling thread; remaining chunks are skipped (not cancelled
//     mid-flight).
//   * Steady state performs no heap allocation inside the pool: one job
//     descriptor is reused, workers claim chunks with an atomic counter.
//   * Nested calls (a parallel region spawned from inside a worker) run
//     inline on the worker — parallelism does not compound and can never
//     deadlock.
//   * Callers that know their per-item cost pass it as `cost_hint_ns`
//     (estimated nanoseconds per index). When items x cost_hint_ns is
//     below the fork-join break-even threshold the region runs on the
//     plain inline path — waking workers for a few microseconds of work
//     is a slowdown, not a speedup. cost_hint_ns = 0 (the default) means
//     "unknown / heavy": always eligible for the pool, the pre-hint
//     behaviour.
//   * A region may carry a CancellationToken. Chunks that have not
//     started when the token is cancelled are skipped (their indices are
//     simply not visited); a chunk already running must poll the token
//     itself. Cancellation is cooperative, never preemptive — see the
//     Watchdog below for who cancels and why.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"

namespace odin::common {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use. Thread count is read
  /// from ODIN_THREADS once; use set_threads() to override afterwards.
  static ThreadPool& instance();

  /// Total execution lanes including the calling thread (>= 1).
  int threads() const noexcept { return threads_; }

  /// Reconfigure the pool (tears down and respawns workers). Intended for
  /// tests and startup code; must not race with an active parallel region.
  void set_threads(int n);

  using ChunkFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Invoke fn(ctx, b, e) over chunks of [begin, end) no larger than
  /// `grain` (0 = pick automatically). Blocks until every chunk finished;
  /// rethrows the first chunk exception. Runs inline when the range fits
  /// one chunk, the pool is single-threaded, we are already inside a
  /// worker, or the estimated total work (items x cost_hint_ns, when the
  /// hint is nonzero) is below the fork-join break-even threshold.
  /// `token` (optional, caller-owned): chunks not yet claimed when the
  /// token is cancelled are skipped; the call still returns normally and
  /// the caller checks token->cancelled() to learn the region was cut
  /// short. Skipped chunks leave their output slots untouched.
  void run_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                  ChunkFn fn, void* ctx, std::size_t cost_hint_ns = 0,
                  CancellationToken* token = nullptr);

  /// Process-wide count of watchdog-detected stalls (hung chunks that had
  /// to be cancelled). Incremented by Watchdog when it fires.
  static long long stall_count() noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }
  static void record_stall() noexcept {
    stalls_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total-work cutoff (nanoseconds) below which hinted regions run
  /// inline: 100us, several times the measured fork-join wake+join
  /// overhead, so below it the pool cannot break even at perfect scaling.
  static constexpr std::size_t min_parallel_work_ns() noexcept {
    return 100'000;
  }

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(int threads);

  void start_workers();
  void stop_workers();
  void worker_loop();
  /// Claim and execute chunks of the current job until none remain.
  void drain_job();
  void record_exception();

  int threads_ = 1;
  std::vector<std::thread> workers_;

  static std::atomic<long long> stalls_;

  // Serializes top-level parallel regions (one job at a time).
  std::mutex job_mutex_;

  // Current job descriptor; reused across jobs, no per-job allocation.
  ChunkFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  CancellationToken* job_token_ = nullptr;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::size_t job_grain_ = 1;
  // Atomic: a lane that woke after the job closed compares its claim
  // (past kJobClosed) with the chunk count while the next descriptor is
  // being written. A claim taken before the close is compared before the
  // caller returns (see lanes_draining_).
  std::atomic<std::size_t> job_chunks_{0};
  std::atomic<std::size_t> job_next_{0};
  std::atomic<std::size_t> job_pending_{0};
  std::atomic<bool> job_failed_{false};
  std::exception_ptr job_error_;
  std::mutex error_mutex_;

  // Worker wakeup: epoch bumps when a job is posted.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  // Workers inside drain_job. The caller returns only once this is 0: a
  // worker whose claim lands past the last chunk must compare it with this
  // job's chunk count, not the next job's, or it would run (and count as
  // done) a chunk of the next job that another lane also claimed.
  int lanes_draining_ = 0;
};

namespace detail {

template <typename Fn>
void invoke_chunk(void* ctx, std::size_t begin, std::size_t end) {
  (*static_cast<std::decay_t<Fn>*>(ctx))(begin, end);
}

}  // namespace detail

/// fn(chunk_begin, chunk_end) per chunk. Use when the body wants per-chunk
/// scratch state (allocated once per chunk, not once per index).
/// `cost_hint_ns` estimates the per-item cost in nanoseconds; nonzero
/// hints let small regions skip the pool entirely (see ThreadPool).
/// `token` (optional): unclaimed chunks are skipped once it is cancelled.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, Fn&& fn,
                         std::size_t cost_hint_ns = 0,
                         CancellationToken* token = nullptr) {
  ThreadPool::instance().run_chunks(begin, end, grain,
                                    &detail::invoke_chunk<Fn>,
                                    const_cast<void*>(
                                        static_cast<const void*>(&fn)),
                                    cost_hint_ns, token);
}

/// fn(i) for every i in [begin, end).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn, std::size_t cost_hint_ns = 0,
                  CancellationToken* token = nullptr) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) fn(i);
                      },
                      cost_hint_ns, token);
}

/// out[i] = fn(i) for i in [0, n); results land in index order regardless
/// of scheduling, so reductions over `out` are deterministic. With a
/// cancelled token, slots of skipped chunks keep their default value.
template <typename Fn>
auto parallel_transform(std::size_t n, std::size_t grain, Fn&& fn,
                        std::size_t cost_hint_ns = 0,
                        CancellationToken* token = nullptr)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  std::vector<std::decay_t<decltype(fn(std::size_t{}))>> out(n);
  parallel_for_chunks(
      0, n, grain,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
      },
      cost_hint_ns, token);
  return out;
}

/// Hung-work watchdog: one monitor thread that cancels a CancellationToken
/// when an armed operation fails to disarm within its wall-time bound.
///
/// Usage per guarded operation:
///   watchdog.arm(&token, bound);
///   ... run the work, which polls token.cancelled() ...
///   bool stalled = watchdog.disarm();
///
/// The fired token makes pool regions skip their unclaimed chunks and
/// makes Deadline::expired() true, so a cooperatively written worker
/// unwinds with best-so-far results; the serving loop then marks the run
/// shed instead of deadlocking on it. Every fire bumps the per-instance
/// stall counter and the process-wide ThreadPool::stall_count().
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start the clock on one operation. `token` must outlive the matching
  /// disarm(). Re-arming while armed is a bug (asserted in debug builds).
  void arm(CancellationToken* token, std::chrono::nanoseconds bound);

  /// Stop the clock; returns true when the watchdog fired (the operation
  /// overran its bound and the token was cancelled).
  bool disarm();

  /// Stalls detected by THIS watchdog instance.
  long long stall_count() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  void monitor_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  CancellationToken* armed_token_ = nullptr;
  std::chrono::steady_clock::time_point expiry_{};
  std::uint64_t generation_ = 0;  ///< bumps on every arm/disarm
  bool armed_ = false;
  bool fired_ = false;
  bool stop_ = false;
  std::atomic<long long> stalls_{0};
  // Declared (and therefore constructed) last: the monitor thread starts
  // only once every member it reads is initialized.
  std::thread monitor_;
};

}  // namespace odin::common
