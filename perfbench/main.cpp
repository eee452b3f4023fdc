// odin_perfbench — one seeded workload per process.
//
//   odin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Workloads: serve-zoo, campaign-1m, cluster-failover, hw-crossbar (see
// README.md beside this file). The last stdout line is one JSON object
// holding the checks, the gated metrics (end-to-end untraced, per-layer
// traced), the simulated outcomes and the run's provenance. Exit code 0
// means every correctness check passed; 1 means a check failed; 2 means
// bad arguments. perfbench/run.py wraps this into the benchmark contract.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "reram/batch_gemm.hpp"

#ifndef ODIN_PERFBENCH_BUILD_TYPE
#define ODIN_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int Tracer::begin(const char* layer, const char* name, long long request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{layer, name, now_s(), 0.0,
                        open_.empty() ? -1 : open_.back(), request});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close in LIFO order: every call site is a Scope or a paired
  // begin/end around one call.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_layer()
    const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& p) {
      return p.first == spans_[i].layer;
    });
    if (it == out.end())
      out.emplace_back(spans_[i].layer, self[i]);
    else
      it->second += self[i];
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                 "\"request\": %lld}\n",
                 i, s.layer.c_str(), s.name.c_str(), s.start_s - t0,
                 s.end_s - t0, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto i = static_cast<std::size_t>(std::clamp(
      rank, 1.0, static_cast<double>(values.size())));
  return values[i - 1];
}

std::vector<double> rates(const std::vector<Iteration>& iterations) {
  std::vector<double> out;
  for (const Iteration& it : iterations)
    if (it.seconds > 0.0) out.push_back(it.requests / it.seconds);
  return out;
}

double total_requests(const std::vector<Iteration>& iterations) {
  double n = 0.0;
  for (const Iteration& it : iterations) n += it.requests;
  return n;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  return 0.0;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Layers whose self time the traced run reports (README.md lists them).
const char* const kLayers[] = {
    "common",      "reram",         "nn",           "dnn",
    "ou",          "arch",          "policy",       "core.odin",
    "core.serving", "core.fleet",   "core.scenario", "core.sketch",
    "core.cluster", "core.checkpoint", "core.hw"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void append_metrics(std::ostringstream& out, const std::vector<Metric>& m) {
  out << "{";
  for (std::size_t i = 0; i < m.size(); ++i)
    out << (i ? ", " : "") << json_string(m[i].name)
        << ": {\"value\": " << exact(m[i].value)
        << ", \"unit\": " << json_string(m[i].unit) << "}";
  out << "}";
}

/// Per-layer self times, residual and the reconciliation error.
void add_trace_metrics(const Tracer& tracer, Report& report) {
  const auto self = tracer.self_time_by_layer();
  double wall = 0.0, sum = 0.0, residual = 0.0, untraced = 0.0;
  for (const Span& s : tracer.spans())
    if (s.parent < 0) wall += s.end_s - s.start_s;
  for (const auto& [layer, t] : self) {
    sum += t;
    if (layer == "bench") residual = t;
    if (layer == "untraced") untraced = t;
  }
  for (const char* layer : kLayers) {
    double t = 0.0;
    for (const auto& [name, v] : self)
      if (name == layer) t = v;
    report.layer(std::string(layer) + ".self_s", t, "s");
  }
  report.layer("trace.residual_s", residual, "s");
  report.layer("trace.untraced_s", untraced, "s");
  report.layer("trace.wall_s", wall, "s");
  report.layer("trace.reconcile_err",
               wall > 0.0 ? std::fabs(sum - wall) / wall : 0.0, "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: odin_perfbench --workload serve-zoo|campaign-1m|"
               "cluster-failover|hw-crossbar --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload")
      opt.workload = value;
    else if (key == "--seed")
      opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds")
      opt.seconds = std::atof(value);
    else if (key == "--trace")
      opt.trace = std::strcmp(value, "1") == 0;
    else if (key == "--work-dir")
      opt.work_dir = value;
    else
      return usage();
  }
  if (opt.seconds <= 0.0) return usage();

  void (*run)(const Options&, Tracer&, Report&) = nullptr;
  if (opt.workload == "serve-zoo") run = run_serve_zoo;
  if (opt.workload == "campaign-1m") run = run_campaign_1m;
  if (opt.workload == "cluster-failover") run = run_cluster_failover;
  if (opt.workload == "hw-crossbar") run = run_hw_crossbar;
  if (run == nullptr) return usage();

  Tracer tracer(opt.trace);
  Report report;
  {
    Scope root(tracer, "bench", opt.workload.c_str());
    run(opt, tracer, report);
  }
  if (opt.trace) {
    add_trace_metrics(tracer, report);
    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".jsonl";
    report.check("trace_written", tracer.write_jsonl(path));
    report.setting("trace_file", path);
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  const char* threads_env = std::getenv("ODIN_THREADS");
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"provenance\": {\"build_type\": "
      << json_string(ODIN_PERFBENCH_BUILD_TYPE)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"odin_threads_env\": "
      << json_string(threads_env != nullptr ? threads_env : "")
      << ", \"pool_threads\": "
      << odin::common::ThreadPool::instance().threads()
      << ", \"odin_simd\": "
      << json_string(odin::reram::gemm::simd_mode_name(
             odin::reram::gemm::active_simd_mode()))
      << "}, \"checks\": {";
  for (std::size_t i = 0; i < report.checks.size(); ++i)
    out << (i ? ", " : "") << json_string(report.checks[i].first) << ": "
        << (report.checks[i].second ? "true" : "false");
  out << "}, \"settings\": {";
  for (std::size_t i = 0; i < report.settings.size(); ++i)
    out << (i ? ", " : "") << json_string(report.settings[i].first) << ": "
        << json_string(report.settings[i].second);
  out << "}, \"end_to_end\": ";
  append_metrics(out, report.end_to_end);
  out << ", \"per_layer\": ";
  append_metrics(out, report.per_layer);
  out << ", \"sim\": ";
  append_metrics(out, report.sim);
  out << "}";

  for (const auto& [name, ok] : report.checks)
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  std::printf("%s\n", out.str().c_str());
  return report.correct() ? 0 : 1;
}
