#include "core/resilience.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace odin::core {

namespace {

/// Failure bits set among the window's filled slots.
int failures_in(std::uint64_t bits, int fill) {
  const std::uint64_t mask =
      fill >= 64 ? ~0ull : ((1ull << fill) - 1ull);
  return static_cast<int>(std::popcount(bits & mask));
}

}  // namespace

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  assert(config_.window >= 1 && config_.window <= 64);
  assert(config_.failure_threshold >= 1);
  assert(config_.hold_runs >= 1);
  assert(config_.backoff_factor >= 1.0);
  assert(config_.hold_max_runs >= config_.hold_runs);
  hold_runs_ = config_.hold_runs;
}

bool CircuitBreaker::allow() {
  if (state_ == State::kClosed) return true;
  if (state_ == State::kHalfOpen) return true;  // the probe is in flight
  if (--hold_left_ > 0) return false;
  // Hold expired: this run probes whether the tenant has recovered.
  state_ = State::kHalfOpen;
  ++probes_;
  return true;
}

void CircuitBreaker::record(bool success) {
  if (state_ == State::kHalfOpen) {
    if (success) {
      // Recovery: full restore with a clean slate and the base hold.
      state_ = State::kClosed;
      window_bits_ = 0;
      window_fill_ = 0;
      hold_runs_ = config_.hold_runs;
      ++closes_;
    } else {
      // Still failing: back off exponentially before the next probe.
      hold_runs_ = std::min(
          config_.hold_max_runs,
          static_cast<int>(
              static_cast<double>(hold_runs_) * config_.backoff_factor));
      hold_left_ = hold_runs_;
      state_ = State::kOpen;
      ++reopens_;
    }
    return;
  }
  if (state_ != State::kClosed) return;  // open runs are not full-service
  window_bits_ = (window_bits_ << 1) | (success ? 0ull : 1ull);
  window_fill_ = std::min(window_fill_ + 1, config_.window);
  if (failures_in(window_bits_, window_fill_) >= config_.failure_threshold)
    open_after_failure();
}

void CircuitBreaker::force_open(int hold) {
  state_ = State::kOpen;
  hold_runs_ = std::max(1, hold);
  hold_left_ = hold_runs_;
  window_bits_ = 0;
  window_fill_ = 0;
  ++opens_;
}

void CircuitBreaker::open_after_failure() {
  state_ = State::kOpen;
  hold_left_ = hold_runs_;
  window_bits_ = 0;
  window_fill_ = 0;
  ++opens_;
}

CircuitBreaker::Snapshot CircuitBreaker::snapshot() const {
  Snapshot s;
  s.state = static_cast<std::int32_t>(state_);
  s.window_bits = window_bits_;
  s.window_fill = window_fill_;
  s.hold_left = hold_left_;
  s.hold_runs = hold_runs_;
  s.opens = opens_;
  s.reopens = reopens_;
  s.probes = probes_;
  s.closes = closes_;
  return s;
}

void CircuitBreaker::restore(const Snapshot& s) {
  state_ = static_cast<State>(s.state);
  window_bits_ = s.window_bits;
  window_fill_ = s.window_fill;
  hold_left_ = s.hold_left;
  hold_runs_ = std::max(s.hold_runs, config_.hold_runs);
  opens_ = s.opens;
  reopens_ = s.reopens;
  probes_ = s.probes;
  closes_ = s.closes;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 100.0);
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::clamp(
      std::ceil(p / 100.0 * n) - 1.0, 0.0, n - 1.0));
  return values[rank];
}

}  // namespace odin::core
