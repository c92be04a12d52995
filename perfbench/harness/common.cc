#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/diagnostics.h"
#include "core/symbol_table.h"
#include "graph/reliance.h"
#include "tgd/parser.h"

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  span.request = request;
  span.start_ns = NowNs();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[index_];
  span.end_ns = NowNs();
  tracer_->open_ = span.parent;
}

void Tracer::Add(const std::string& name, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, -1, request});
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& self = out[spans_[i].name];
    self.seconds +=
        (spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-9;
    ++self.calls;
  }
  return out;
}

double Tracer::MeanSelf(const std::string& name) const {
  const auto self = SelfTimes();
  const auto it = self.find(name);
  if (it == self.end() || it->second.calls == 0) return 0;
  return it->second.seconds / it->second.calls;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::max<std::size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary out;
  out.samples = values.size();
  out.p50 = Median(values);
  out.tail = Percentile(values, 100);
  out.tail_percentile = 100;
  for (double p : {99.9, 99.0, 90.0, 75.0}) {
    // Samples strictly beyond the nearest-rank percentile.
    const double beyond =
        static_cast<double>(values.size()) -
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    if (beyond >= 10) {
      out.tail = Percentile(values, p);
      out.tail_percentile = p;
      break;
    }
  }
  return out;
}

void RunResult::Detail(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  details[key] = buf;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double SelfPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace.overhead_share", "ratio"},
      {"api.parse_s", "s"},
      {"api.parse_bytes_per_s", "B/s"},
      {"tgd.parse_s", "s"},
      {"analysis.lint_s", "s"},
      {"graph.reliance_s", "s"},
      {"chase.run_s", "s"},
      {"chase.run_t1_s", "s"},
      {"chase.speedup_vs_t1", "ratio"},
      {"chase.rounds", "count"},
      {"chase.triggers_fired", "count"},
      {"chase.join_probes", "count"},
      {"chase.delta_atoms_scanned", "count"},
      {"chase.fire_per_probe", "ratio"},
      {"chase.atoms_per_round", "count"},
      {"chase.parallel_rounds_share", "ratio"},
      {"chase.parallel_apply_share", "ratio"},
      {"chase.parallel_commit_share", "ratio"},
      {"chase.apply_batches", "count"},
      {"chase.cross_rule_rounds_share", "ratio"},
      {"chase.reliance_groups", "count"},
      {"core.arena_bytes_per_atom", "B"},
      {"core.render_s", "s"},
      {"rewrite.linearize_s", "s"},
      {"rewrite.simplify_s", "s"},
      {"rewrite.types", "count"},
      {"rewrite.lin_tgds", "count"},
      {"rewrite.gsimple_tgds", "count"},
      {"graph.wa_s", "s"},
      {"termination.decide_s", "s"},
      {"termination.unaccounted_s", "s"},
      {"server.ack_ms_p50", "ms"},
      {"server.ack_ms_p99", "ms"},
      {"server.queue_ms_p50", "ms"},
      {"server.queue_ms_p99", "ms"},
      {"server.run_ms_p50", "ms"},
      {"server.run_ms_p99", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.cache_lookups", "count"},
      {"server.cache_evictions", "count"},
      {"server.rejected_overload", "count"},
      {"server.max_overlap", "count"},
      {"server.frame_decode_ns", "ns"},
      {"server.frame_encode_ns", "ns"},
      {"server.bytes_per_result", "B"},
      {"server.gen_lag_ms", "ms"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    result->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void ParseLayerMetrics(const Tracer& tracer, double parsed_bytes,
                       std::map<std::string, double>* values) {
  const auto self = tracer.SelfTimes();
  auto mean = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.calls == 0
               ? 0.0
               : it->second.seconds / it->second.calls;
  };
  (*values)["api.parse_s"] = mean("api.parse");
  (*values)["tgd.parse_s"] = mean("tgd.parse");
  (*values)["analysis.lint_s"] = mean("analysis.lint");
  (*values)["graph.reliance_s"] = mean("graph.reliance");
  const auto it = self.find("api.parse");
  if (it != self.end() && it->second.seconds > 0) {
    (*values)["api.parse_bytes_per_s"] = parsed_bytes / it->second.seconds;
  }
}

nuchase::util::StatusOr<nuchase::api::Program> ParseProgram(
    Tracer* tracer, const std::string& text, std::uint64_t request) {
  using namespace nuchase;
  if (tracer != nullptr && tracer->enabled()) {
    core::SymbolTable symbols;
    util::StatusOr<tgd::Program> parsed = [&] {
      Tracer::Scope span(tracer, "tgd.parse", request);
      return tgd::ParseProgram(&symbols, text);
    }();
    if (parsed.ok()) {
      std::unique_ptr<graph::RelianceGraph> reliances;
      {
        Tracer::Scope span(tracer, "graph.reliance", request);
        reliances = std::make_unique<graph::RelianceGraph>(parsed->tgds);
      }
      Tracer::Scope span(tracer, "analysis.lint", request);
      (void)analysis::LintProgram(parsed->tgds, parsed->database, symbols,
                                  reliances.get());
    }
  }
  Tracer::Scope span(tracer, "api.parse", request);
  return api::Program::Parse(text);
}

bool DumpInputs(const Options& options,
                const std::vector<std::string>& texts) {
  std::ofstream out(options.dump_inputs, std::ios::binary);
  for (const std::string& text : texts) {
    out << "%% input " << text.size() << " bytes\n" << text << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
