// Shared pieces of the benchmark harness: command-line options, the
// in-memory span tracer, latency statistics and the result record every
// workload fills in.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/program.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: the same code paths on inputs one to two orders of
  /// magnitude smaller.
  bool tiny = false;
  /// Self-test hook: flip every expected answer, so each oracle must
  /// report a mismatch.
  bool corrupt_expected = false;
  /// When non-empty, write the generated inputs there and exit.
  std::string dump_inputs;
  /// Directory for span dumps (traced runs).
  std::string out_dir;
  /// The nuchase_server binary serve-mixed spawns.
  std::string server_bin;
  unsigned nproc = 1;
};

/// splitmix64: the harness's only random source, so a seed fixes every
/// generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [lo, hi].
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t Fnv1a(const std::string& bytes);

/// One recorded span: a call from the benchmark into a layer's public
/// function. `parent` indexes the enclosing span on the same thread (-1
/// for a root); spans of one request or job share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Keeps spans in memory; written out when the run ends. Disabled
/// tracers record nothing, so untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// RAII span around one call. Single-threaded use only: the harness
  /// calls layers from its main thread (serve-mixed times the server
  /// from the client side instead).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Adds an already-timed span (client-side server spans).
  void Add(const std::string& name, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t request);

  /// Per span name: total duration minus the part of it its direct
  /// children cover, and the number of spans.
  struct SelfTime {
    double seconds = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  /// Mean self time per call of `name` in seconds (0 when never seen).
  double MeanSelf(const std::string& name) const;

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

  static std::int64_t NowNs();

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Set-up samples taken throughout the run rather than back to back at
/// its start, so one burst of load on the host cannot move their median.
/// Due() is true at most once per `interval` seconds.
class SetupSampler {
 public:
  explicit SetupSampler(double interval) : interval_(interval) {}
  bool Due() const {
    return samples_.empty() || SecondsSince(last_) >= interval_;
  }
  void Add(double seconds) {
    samples_.push_back(seconds);
    last_ = Clock::now();
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  double interval_;
  std::vector<double> samples_;
  Clock::time_point last_;
};

/// Latency summary: the median and the highest percentile of the ladder
/// {75, 90, 99, 99.9} that has at least ten samples beyond it.
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  std::size_t samples = 0;
};
LatencySummary Summarize(std::vector<double> values);
/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `details` are printed on the line
/// before the result so a reader can see seeds, percentiles and sample
/// counts; the last line carries only the result's four keys.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> details;
  std::vector<std::string> mismatches;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& key, const std::string& value) {
    details[key] = value;
  }
  void Detail(const std::string& key, double value);
};

/// Starts a new peak-RSS window (Linux clear_refs), so the peak covers
/// the measured phase and not input generation or the oracle.
void ResetPeakRss();
/// Peak resident set size of this process since the last ResetPeakRss,
/// in MiB.
double SelfPeakRssMb();

/// Per-layer metrics every traced run prints; a layer a workload does
/// not exercise reports 0 (documented in perfbench/README.md).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Fills every per-layer metric missing from `values` with 0 and moves
/// them into `result` in catalog order.
void EmitPerLayer(const std::map<std::string, double>& values,
                  RunResult* result);

/// api::Program::Parse inside an "api.parse" span. When tracing, the
/// layers Parse runs are also timed as separate calls on the same text:
/// tgd::ParseProgram, graph::RelianceGraph and analysis::LintProgram.
nuchase::util::StatusOr<nuchase::api::Program> ParseProgram(
    Tracer* tracer, const std::string& text, std::uint64_t request);

/// Adds the per-layer metrics derived from parse spans (api.parse,
/// tgd.parse, analysis.lint, graph.reliance) to `values`.
void ParseLayerMetrics(const Tracer& tracer, double parsed_bytes,
                       std::map<std::string, double>* values);

// Workload entry points (one per BENCHMARK.json workload).
RunResult RunChaseWide(const Options& options);
RunResult RunChaseDeep(const Options& options);
RunResult RunDecideGuarded(const Options& options);
RunResult RunServeMixed(const Options& options);

/// Writes `texts` (generated program texts, in order) to
/// options.dump_inputs; the self-test compares two same-seed dumps.
bool DumpInputs(const Options& options, const std::vector<std::string>& texts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
