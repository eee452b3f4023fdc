// Shared plumbing of the repo benchmark: options, the result report, the
// timed loop and the in-memory span tracer.
//
// Spans are recorded only here, around the benchmark's own calls into each
// module's public functions (outside-in). A layer's self time is the
// duration of its spans minus the part of that interval its child spans
// cover; the root span's self time is the residual the benchmark spent
// outside any traced call.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for checkpoint pairs and trace files.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `attempted` counts the simulated
/// requests (hw-crossbar: images) offered in the timed phase.
struct Report {
  long long attempted = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Simulated outcomes printed beside the gated metrics (all sim_* values
  /// of the workload, bitwise-reproducible for a given seed).
  std::vector<Metric> sim;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> settings;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void simulated(const std::string& name, double value,
                 const std::string& unit) {
    sim.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void setting(const std::string& key, const std::string& value) {
    settings.emplace_back(key, value);
  }
  bool correct() const {
    for (const auto& c : checks)
      if (!c.second) return false;
    return !checks.empty();
  }
};

struct Span {
  std::string layer;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  long long request = -1;
};

/// In-memory span recorder. Disabled, begin() returns -1 and records
/// nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const char* layer, const char* name, long long request = -1);
  void end(int id);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time summed per layer, in first-seen order.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  /// Durations of every span with this name, in seconds.
  std::vector<double> durations(const std::string& name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* layer, const char* name,
        long long request = -1)
      : tracer_(tracer), id_(tracer.begin(layer, name, request)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// `%.17g` rendering, so simulated values round-trip bitwise.
std::string exact(double v);

/// Wall time of one call, in seconds.
template <class F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Per-iteration host throughput of a timed phase.
struct Iteration {
  double requests = 0.0;
  double seconds = 0.0;
};

/// Call `iteration` (returns the requests it completed) until `seconds`
/// have elapsed and at least `min_iterations` ran.
template <class F>
std::vector<Iteration> timed_loop(double seconds, int min_iterations,
                                  F&& iteration) {
  std::vector<Iteration> out;
  const double t_end = now_s() + seconds;
  while (static_cast<int>(out.size()) < min_iterations || now_s() < t_end) {
    const double t0 = now_s();
    const double requests = iteration(static_cast<int>(out.size()));
    out.push_back({requests, now_s() - t0});
  }
  return out;
}

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Requests / seconds of every iteration.
std::vector<double> rates(const std::vector<Iteration>& iterations);
double total_requests(const std::vector<Iteration>& iterations);

/// The timed phase; `iteration(index, traced)` returns the requests it
/// completed. Returns the best iteration's requests per host second: on a
/// shared host, interference (frequency, cache and memory-bandwidth
/// contention from other tenants) only ever slows an iteration, so the
/// fastest one is the steadiest estimate of the program's own speed. The
/// median and the iteration count go into the settings.
///
/// Untraced runs spend all `seconds` untraced. Traced runs spend half
/// untraced (one span of layer "untraced", excluded from the residual) and
/// half traced, and report the ratio of the two best rates as the tracing
/// overhead. Sets report.attempted.
template <class F>
double timed_phase(const Options& opt, Tracer& tracer, Report& report,
                   int min_iterations, F&& iteration) {
  auto plain = [&](int i) { return iteration(i, false); };
  auto best = [](const std::vector<Iteration>& its) {
    const std::vector<double> r = rates(its);
    return percentile(r, 100.0);
  };
  if (!opt.trace) {
    const auto its = timed_loop(opt.seconds, min_iterations, plain);
    report.attempted = static_cast<long long>(total_requests(its));
    report.setting("timed_iterations", std::to_string(its.size()));
    report.setting("req_per_s_median", exact(median(rates(its))));
    return best(its);
  }
  std::vector<Iteration> a;
  {
    Scope span(tracer, "untraced", "bench.untraced_half");
    a = timed_loop(opt.seconds / 2, 2, plain);
  }
  const auto b =
      timed_loop(opt.seconds / 2, 2, [&](int i) { return iteration(i, true); });
  const double rate = best(b);
  report.layer("trace.overhead_ratio", best(a) / rate, "ratio");
  report.attempted =
      static_cast<long long>(total_requests(a) + total_requests(b));
  return rate;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();


// Workloads. Each fills `report` and records spans into `tracer`.
void run_serve_zoo(const Options& options, Tracer& tracer, Report& report);
void run_campaign_1m(const Options& options, Tracer& tracer, Report& report);
void run_cluster_failover(const Options& options, Tracer& tracer,
                          Report& report);
void run_hw_crossbar(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
