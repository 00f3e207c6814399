#include "bingobench/src/harness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "src/util/cpu_features.h"

namespace bingobench {

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------- tracing --

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name, uint64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  rec.request = request;
  rec.start = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = static_cast<int64_t>(records_.size());
  records_.push_back(rec);
  open_spans.push_back(rec.id);
  return rec.id;
}

void Tracer::End(int64_t id, double count) {
  const double end = Now();
  if (!open_spans.empty() && open_spans.back() == id) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end = end;
  records_[static_cast<std::size_t>(id)].count = count;
}

void Tracer::Add(const char* name, double start, double end, uint64_t request,
                 double count) {
  if (!enabled_) {
    return;
  }
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  rec.request = request;
  rec.start = start;
  rec.end = end;
  rec.count = count;
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = static_cast<int64_t>(records_.size());
  records_.push_back(rec);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& r : records_) {
    if (r.end >= 0.0 && name == r.name) {
      out.push_back(r.end - r.start);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path, std::FILE* summary_out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::vector<double> child_time(records_.size(), 0.0);
  for (const SpanRecord& r : records_) {
    if (r.end >= 0.0 && r.parent >= 0) {
      child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  struct Agg {
    uint64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& r : records_) {
    if (r.end < 0.0) {
      continue;
    }
    const double dur = r.end - r.start;
    std::fprintf(f,
                 "{\"id\":%" PRId64 ",\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%" PRId64 ",\"request\":%" PRIu64
                 ",\"count\":%.17g}\n",
                 r.id, r.name, r.start, r.end, r.parent, r.request, r.count);
    Agg& agg = by_name[r.name];
    agg.calls += 1;
    agg.total += dur;
    agg.self += std::max(0.0, dur - child_time[static_cast<std::size_t>(r.id)]);
  }
  const bool ok = std::fclose(f) == 0;
  if (summary_out != nullptr) {
    std::fprintf(summary_out, "trace: %zu spans -> %s\n", records_.size(),
                 path.c_str());
    std::fprintf(summary_out, "  %-36s %10s %12s %12s\n", "span", "calls",
                 "total_s", "self_s");
    for (const auto& [name, agg] : by_name) {
      std::fprintf(summary_out, "  %-36s %10" PRIu64 " %12.6f %12.6f\n",
                   name.c_str(), agg.calls, agg.total, agg.self);
    }
  }
  return ok;
}

Span::Span(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    id_ = tracer.Begin(name, request);
  }
}

Span::~Span() {
  if (id_ >= 0) {
    Tracer::Get().End(id_, count_);
  }
}

// ------------------------------------------------------------------ report --

void Report::Add(std::vector<Metric>& metrics, const std::string& name,
                 const std::string& unit, double value) {
  const bool fresh = std::none_of(metrics.begin(), metrics.end(),
                                  [&](const Metric& m) { return m.name == name; });
  if (Check(fresh, "metric " + name + " reported once")) {
    metrics.push_back({name, unit, value});
  }
}

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value) {
  Add(end_to_end_, name, unit, value);
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value) {
  Add(layers_, name, unit, value);
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    ++check_failures_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

int Report::Finish() {
  std::printf("accounting: attempted=%" PRIu64 " failed=%" PRIu64
              " check_failures=%" PRIu64 "\n",
              attempted_, failed_, check_failures_);
  if (options_.trace) {
    // The traced run's own end-to-end figures; steady.py compares them with
    // untraced runs to report the tracing overhead.
    std::printf("traced_end_to_end: %s\n", MetricsJson(end_to_end_).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct() ? "true" : "false", attempted_, failed_,
              MetricsJson(options_.trace ? layers_ : end_to_end_).c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void PrintSamples(const std::string& label, const std::vector<double>& values) {
  std::printf("%s: n=%zu [", label.c_str(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.4g", i == 0 ? "" : " ", values[i]);
  }
  std::printf("]\n");
}

void PrintMachineContext(const Options& options) {
  const char* revision = std::getenv("BINGOBENCH_SOURCE_REVISION");
  std::printf("context: nproc=%ld simd=%s build=%s revision=%s threads=%d "
              "workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              bingo::util::ToString(bingo::util::ActiveSimdLevel()),
              BINGOBENCH_BUILD_TYPE, revision != nullptr ? revision : "unknown",
              options.threads, options.workload.c_str(), options.seed,
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);
}

}  // namespace bingobench
