// Benchmark harness: command-line options, clocks and quantiles, the span
// tracer, and the result report every workload fills in.
//
// Timing never reaches into the library: every span wraps a call the
// benchmark itself makes into a layer, so the library's determinism and
// wall-clock lint rules are untouched.
#ifndef BINGOBENCH_SRC_HARNESS_H_
#define BINGOBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace bingobench {

struct Options {
  std::string workload;
  bool float_bias = false;  // add a U(0,1) fraction to every bias (paper Fig 14)
  uint64_t seed = 1;
  double seconds = 10.0;   // measured time the sections spread over their phases
  bool trace = false;      // traced run: print per-layer metrics
  std::string data_dir;    // scratch files (CSR containers, WAL, snapshots)
  int threads = 2;         // threads per section pool: half of nproc = 4
};

// Seconds on the steady clock since the first call in this process.
double Now();

double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// High-water resident set of this process (VmHWM), in MiB.
double PeakRssMiB();
uint64_t FileBytes(const std::string& path);

// ---------------------------------------------------------------- tracing --
//
// A span is (name, start, end, parent, request id, count). Spans are kept
// in memory and written out once, at exit. `count` is the work the span
// covered (draws, updates, walkers) so per-operation costs are measured at
// the boundary where the work happens. The parent is the innermost span
// still open on the same thread.
struct SpanRecord {
  const char* name = "";
  int64_t id = -1;
  int64_t parent = -1;
  uint64_t request = 0;
  double start = 0.0;
  double end = -1.0;
  double count = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id, double count);
  // Adds an already-measured interval (e.g. one timed on another thread).
  void Add(const char* name, double start, double end, uint64_t request,
           double count);

  // Durations (seconds) of every closed span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // Writes every span as one JSON object per line, then a per-name summary
  // (calls, total seconds, self seconds = span minus its child spans) to
  // `summary_out` (may be null). False on I/O failure.
  bool Write(const std::string& path, std::FILE* summary_out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  bool enabled_ = false;
};

// RAII span; a no-op unless tracing is enabled.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void SetCount(double count) { count_ = count; }

 private:
  int64_t id_ = -1;
  double count_ = 0.0;
};

// ------------------------------------------------------------------ report --
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  // Each metric is reported once per run; a second report of the same name
  // is a benchmark fault and fails the run.
  void EndToEnd(const std::string& name, const std::string& unit, double value);
  void Layer(const std::string& name, const std::string& unit, double value);

  // Operation accounting: every operation a workload issues is attempted;
  // the ones the program refused or lost are failed.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }

  // An output check. A failed check makes the run incorrect (and the
  // process exit non-zero) but does not stop the workload.
  bool Check(bool ok, const std::string& what);
  bool correct() const { return check_failures_ == 0; }

  // Prints the per-run accounting and the result line (the last line of
  // stdout); returns the process exit code.
  int Finish();

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  void Add(std::vector<Metric>& metrics, const std::string& name,
           const std::string& unit, double value);
  static std::string MetricsJson(const std::vector<Metric>& metrics);
  const Options& options_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
};

// Prints one phase's samples ("label: n=.. [a b c ...]").
void PrintSamples(const std::string& label, const std::vector<double>& values);

// Prints nproc, SIMD level, build type and source revision.
void PrintMachineContext(const Options& options);

// Runs `fn(rep)` (one whole unit of work; returns its rate) once as a
// warm-up whose rate is dropped — first-touch page faults and cold caches
// land there — then again until `budget_s` of wall time is used in all,
// at least `min_reps` more times. Returns the rates after the warm-up.
template <typename Fn>
std::vector<double> RepeatFor(double budget_s, int min_reps, Fn&& fn) {
  const double start = Now();
  fn(0);
  std::vector<double> rates;
  while (static_cast<int>(rates.size()) < min_reps ||
         Now() - start < budget_s) {
    rates.push_back(fn(static_cast<int>(rates.size()) + 1));
  }
  return rates;
}

}  // namespace bingobench

#endif  // BINGOBENCH_SRC_HARNESS_H_
