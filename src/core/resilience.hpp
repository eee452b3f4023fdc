// Serving-resilience primitives: admission control, per-tenant circuit
// breakers, and the percentile helper behind the SLO reporting.
//
// Production serving cannot let one slow run (a reprogram storm inside a
// drift burst), one chronically failing tenant, or one hung worker take the
// whole accelerator down with it. Three independent mechanisms bound the
// blast radius, all driven by the same per-request deadline budget
// (common/deadline.hpp):
//  * admission control — a bounded run queue with a shed policy decides
//    what happens when offered load outruns the device (ShedPolicy);
//  * circuit breakers — a per-tenant sliding window of deadline misses and
//    write-verify failures trips the tenant into degraded fallback service,
//    with half-open probing and exponential backoff before full restore
//    (CircuitBreaker);
//  * the hung-work watchdog — wall-clock detection of stuck chunks lives in
//    common/parallel.hpp; the serving loop marks watchdog-cancelled runs
//    shed rather than waiting on them.
// Everything here is deterministic (no real clock, no randomness): the same
// arrival schedule and config produce bitwise-identical outcomes, and all
// mutable state snapshots into the serving checkpoint.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/binary_io.hpp"

namespace odin::core {

/// What happens to a run arriving while the bounded queue is full.
enum class ShedPolicy : std::int32_t {
  /// Admit anyway: the queue is effectively unbounded and callers absorb
  /// the backpressure as waiting time (sojourn grows without bound under
  /// sustained overload — the baseline the shedding policies improve on).
  kBlock = 0,
  /// Evict the longest-waiting queued run; it is served by the degraded
  /// fallback path immediately. Freshest work gets the full service.
  kShedOldest = 1,
  /// Reject the arriving run; it is served by the degraded fallback path.
  /// Work already queued keeps its full-service claim.
  kShedNewest = 2,
};

/// Circuit-breaker tuning. The window is a bitmask of the last `window`
/// full-service outcomes; `failure_threshold` failures among them open the
/// breaker for `hold_runs` of the tenant's runs, doubling (by
/// `backoff_factor`, capped at `hold_max_runs`) each time the half-open
/// probe fails again.
struct BreakerConfig {
  int window = 8;
  int failure_threshold = 4;
  int hold_runs = 4;
  double backoff_factor = 2.0;
  int hold_max_runs = 64;
};

/// Deadline-aware batch formation over the admission queue. Disabled (the
/// default) leaves the serving walk identical to unbatched serving; when
/// enabled, drain time groups up to `resolved_max_batch()` queued
/// same-tenant runs into one pipelined pass (arch::batched_inference_cost)
/// — but only while every member's estimated pipeline-exit time keeps its
/// SLO slack non-negative, so batching never trades one member's deadline
/// for throughput.
struct BatchingConfig {
  bool enabled = false;
  /// Upper bound on batch size. Clamped to [1, 1024].
  int max_batch = 8;

  /// The effective cap after clamping.
  int resolved_max_batch() const { return std::clamp(max_batch, 1, 1024); }
};

/// Per-tenant serving SLOs plus the admission/breaker/watchdog knobs.
/// Disabled (the default) leaves the serving walk bit-identical to the
/// pre-resilience code path.
struct ResilienceConfig {
  bool enabled = false;
  /// Latency SLO applied to tenants without an explicit entry below.
  /// Non-finite or <= 0 means "no SLO": deadlines never expire and misses
  /// are never counted, but queueing/shedding still applies.
  double default_slo_s = std::numeric_limits<double>::infinity();
  /// Per-tenant SLO override, indexed like the tenant vector; entries
  /// <= 0 (or missing) fall back to default_slo_s.
  std::vector<double> tenant_slo_s;
  /// Bounded run-queue depth that triggers the shed policy.
  std::size_t queue_capacity = 8;
  ShedPolicy shed = ShedPolicy::kShedOldest;
  BreakerConfig breaker{};
  /// Simulated cost of one search evaluation (the paper's timing-overhead
  /// proxy made concrete): charged against the deadline and added to the
  /// run's service latency.
  double search_eval_cost_s = 0.0;
  /// Wall-clock bound per guarded run; the watchdog cancels the run's
  /// CancellationToken when real time exceeds it. 0 disables the watchdog
  /// (and with it the only nondeterministic input to the loop).
  double watchdog_bound_s = 0.0;
  /// Test hook (hung-worker simulation): the controller pass led by the run
  /// with this global schedule index — the run alone, or a batch it leads —
  /// spins instead of inferencing until the watchdog cancels it, and its
  /// members are served degraded. Needs the watchdog; negative disables.
  long long hang_run_index = -1;
  /// Deadline-aware batch formation over the admission queue.
  BatchingConfig batching{};

  double slo_s(std::size_t tenant) const noexcept {
    const double t = tenant < tenant_slo_s.size() ? tenant_slo_s[tenant] : 0.0;
    const double s = t > 0.0 ? t : default_slo_s;
    return s > 0.0 ? s : std::numeric_limits<double>::infinity();
  }
  bool has_slo(std::size_t tenant) const noexcept {
    return std::isfinite(slo_s(tenant));
  }
};

/// Per-tenant circuit breaker over full-service outcomes.
///
///   Closed --(threshold failures in window)--> Open
///   Open --(hold expires)--> HalfOpen (next run is the probe)
///   HalfOpen --(probe succeeds)--> Closed (window reset, backoff reset)
///   HalfOpen --(probe fails)--> Open (hold *= backoff_factor, capped)
///
/// allow() is called once per run of the tenant *before* serving: true
/// means serve fully, false means serve by the degraded fallback. record()
/// is called with the outcome of every full-service run. Deterministic;
/// snapshot()/restore() round-trip the complete state for checkpointing.
class CircuitBreaker {
 public:
  enum class State : std::int32_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  /// Complete mutable state, for the serving checkpoint.
  struct Snapshot {
    std::int32_t state = 0;
    std::uint64_t window_bits = 0;
    std::int32_t window_fill = 0;
    std::int32_t hold_left = 0;
    std::int32_t hold_runs = 0;
    std::int32_t opens = 0;
    std::int32_t reopens = 0;
    std::int32_t probes = 0;
    std::int32_t closes = 0;
  };

  explicit CircuitBreaker(BreakerConfig config = {});

  /// May this run get full service? Open-state calls advance the hold
  /// countdown; the call that exhausts it transitions to HalfOpen and
  /// returns true (that run is the probe).
  bool allow();

  /// Outcome of a full-service run (deadline met and write-verify clean).
  void record(bool success);

  /// Pre-open the breaker for `hold` of the tenant's runs — the degraded-
  /// admission regime a cross-mesh failover restores a tenant under
  /// (core/cluster.hpp): the restored tenant serves the fallback path until
  /// the hold drains and a half-open probe passes. Counts as an open; the
  /// backoff ladder restarts from the given hold.
  void force_open(int hold);

  State state() const noexcept { return state_; }
  int opens() const noexcept { return opens_; }      ///< Closed -> Open trips
  int reopens() const noexcept { return reopens_; }  ///< failed probes
  int probes() const noexcept { return probes_; }    ///< HalfOpen probe runs
  int closes() const noexcept { return closes_; }    ///< recoveries

  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  void open_after_failure();

  BreakerConfig config_;
  State state_ = State::kClosed;
  std::uint64_t window_bits_ = 0;  ///< 1 bit per outcome, 1 = failure
  int window_fill_ = 0;
  int hold_left_ = 0;  ///< tenant runs left before the next probe
  int hold_runs_ = 0;  ///< current hold length (escalates on reopen)
  int opens_ = 0;
  int reopens_ = 0;
  int probes_ = 0;
  int closes_ = 0;
};

/// Wire layout (common/binary_io.hpp), shared by the serving checkpoint's
/// per-tenant breakers and the cluster's degraded-admission breakers.
template <typename S, common::MaybeConst<CircuitBreaker::Snapshot> B>
void fields(S& s, B& b) {
  s.field(b.state);
  s.field(b.window_bits);
  s.field(b.window_fill);
  s.field(b.hold_left);
  s.field(b.hold_runs);
  s.field(b.opens);
  s.field(b.reopens);
  s.field(b.probes);
  s.field(b.closes);
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Copies and sorts — intended for end-of-horizon reporting, not hot paths.
double percentile(std::vector<double> values, double p);

}  // namespace odin::core
