// chase-wide and chase-deep: seeded job lists of terminating
// semi-oblivious chases through api::Session::Chase at nproc/2 threads.
// The two differ only in their jobs: chase-wide runs few, wide rounds
// (collect, apply and storage dominate), chase-deep many narrow rounds
// (per-round fixed cost and pool engagement dominate).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "common.h"
#include "core/symbol_table.h"
#include "tgd/printer.h"
#include "workload/depth_family.h"
#include "workload/turing.h"
#include "workload/university.h"

namespace perfbench {
namespace {

using namespace nuchase;

struct ChaseJob {
  std::string label;
  std::string text;
  /// Derived-atom count known in closed form; 0 when there is none.
  std::uint64_t expected_derived = 0;
};

std::string Render(const workload::Workload& w,
                   const core::SymbolTable& symbols) {
  return tgd::ProgramToString(w.tgds, w.database, symbols);
}

ChaseJob UniversityJob(std::uint32_t departments, std::uint32_t seed) {
  core::SymbolTable symbols;
  workload::UniversityOptions opt;
  opt.departments = departments;
  opt.seed = seed;
  return {"university", Render(MakeUniversityWorkload(&symbols, opt), symbols),
          0};
}

ChaseJob WideFamilyJob(const char* label, std::uint32_t layers,
                       std::uint32_t width, std::uint32_t payloads,
                       std::uint32_t noise) {
  core::SymbolTable symbols;
  workload::Workload w =
      workload::MakeWideDepthFamily(&symbols, layers, width, payloads, noise);
  // Every round advances width * payloads streams one edge of a chain
  // of `layers` nodes.
  return {label, Render(w, symbols),
          std::uint64_t{width} * payloads * (layers - 1)};
}

// Seeds reseed the generators, name constants and order the jobs; they
// never change the mix of job kinds or their sizes, so runs with
// different seeds are comparable.
std::vector<ChaseJob> WideJobs(const Options& options, Rng* rng) {
  const std::uint32_t scale = options.tiny ? 16 : 1;
  std::vector<ChaseJob> jobs;
  // Job kinds are sized to take about the same time, and the two middle
  // jobs of a pass are the same kind, so the median falls inside one
  // kind instead of on a gap between two.
  // The university OBDA program: 5 rounds, 4 reliance groups.
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(UniversityJob(
        285 / scale, static_cast<std::uint32_t>(rng->Range(1, 1u << 30))));
  }
  // Collect-heavy: every seed probes `noise` S-atoms.
  jobs.push_back(WideFamilyJob(
      "collect-heavy", 50 / (options.tiny ? 8 : 1),
      32 / scale, 24, 16));
  // Insert-heavy: minimal join work, the apply and commit stages dominate.
  jobs.push_back(WideFamilyJob(
      "insert-heavy", 18 / (options.tiny ? 6 : 1),
      48 / scale, 64, 1));
  return jobs;
}

std::vector<ChaseJob> DeepJobs(const Options& options, Rng* rng) {
  const std::uint32_t scale = options.tiny ? 16 : 1;
  std::vector<ChaseJob> jobs;
  // As in chase-wide, the kinds take about the same time.
  {
    // Proposition 4.5: one derived atom per round, n - 1 rounds.
    const std::uint32_t n = 1024 / scale;
    core::SymbolTable symbols;
    jobs.push_back({"depth-family",
                    Render(workload::MakeDepthFamily(&symbols, n), symbols),
                    n - 1});
  }
  {
    const std::uint32_t k = 100 / scale;
    core::SymbolTable symbols;
    workload::Workload w = workload::MakeTuringWorkload(
        &symbols, workload::MakeHaltingTm(k), "halting-tm");
    jobs.push_back({"halting-tm", Render(w, symbols), 0});
  }
  {
    // Transitive closure of a path of `len` edges: len*(len+1)/2 T-atoms
    // in `len` rounds. The seed names the constants.
    const std::uint64_t len = 315 / scale;
    const std::string v = "v" + std::to_string(rng->Range(0, 999999)) + "_";
    std::string text = "E(x, y) -> T(x, y).\nT(x, y), E(y, z) -> T(x, z).\n";
    for (std::uint64_t i = 0; i < len; ++i) {
      text += "E(" + v + std::to_string(i) + ", " + v + std::to_string(i + 1) +
              ").\n";
    }
    jobs.push_back({"tc-chain", text, len * (len + 1) / 2});
  }
  return jobs;
}

/// Counts apply batches (rules with fired triggers, per round): the base
/// of the parallel apply/commit engagement shares.
class BatchCounter : public chase::ChaseObserver {
 public:
  void OnFire(std::uint32_t tgd_index, std::size_t) override {
    fired_.insert(tgd_index);
  }
  void OnRound(const chase::RoundProgress&) override {
    batches_ += fired_.size();
    fired_.clear();
  }
  std::uint64_t batches() const { return batches_; }

 private:
  std::set<std::uint32_t> fired_;
  std::uint64_t batches_ = 0;
};

struct Reference {
  std::uint64_t atoms = 0;
  std::uint64_t hash = 0;
  double t1_seconds = 0;
};

RunResult RunChaseJobs(const Options& options, const std::vector<ChaseJob>& jobs,
                       Rng* rng) {
  RunResult result;
  Tracer tracer(options.trace);
  // Half the cores: the pool still runs rounds in parallel, and the run
  // leaves room for the rest of the box instead of measuring how often a
  // neighbour preempts one of nproc barrier-synchronised workers.
  const unsigned threads = std::max(1u, options.nproc / 2);

  // Set-up: the system parses every job program once; the jobs reuse the
  // frozen Programs. Sampled again between jobs through the run.
  SetupSampler setup(options.seconds / 20);
  auto parse_all = [&](std::vector<api::Program>* out) {
    const auto start = Clock::now();
    for (const ChaseJob& job : jobs) {
      auto program = api::Program::Parse(job.text);
      if (!program.ok()) {
        result.Fail(job.label + ": parse: " + program.status().ToString());
        return false;
      }
      out->push_back(std::move(*program));
    }
    setup.Add(SecondsSince(start));
    return true;
  };
  std::vector<api::Program> programs;
  if (!parse_all(&programs)) return result;
  double parsed_bytes = 0;
  if (tracer.enabled()) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      (void)ParseProgram(&tracer, jobs[i].text, i);
      parsed_bytes += static_cast<double>(jobs[i].text.size());
    }
  }

  // Oracle: the 1-thread run of every program (untimed in the end-to-end
  // metrics; it is chase.run_t1_s in the traced run).
  std::vector<Reference> refs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    api::Session session(programs[i],
                         api::SessionOptions().set_num_threads(1));
    const auto start = Clock::now();
    auto run = session.Chase();
    refs[i].t1_seconds = SecondsSince(start);
    if (!run.ok() || !run->Terminated()) {
      result.Fail(jobs[i].label + ": reference run did not terminate");
      return result;
    }
    refs[i].atoms = run->instance().size();
    refs[i].hash = Fnv1a(run->ToSortedString());
    if (options.corrupt_expected) refs[i].hash ^= 1;
  }

  ResetPeakRss();
  // Whole passes over the job list, so every run measures the same mix:
  // untraced passes until the run's time (half of it when traced) is
  // used, then as many traced passes. An untraced run makes at least 100
  // jobs, so job_tail_ms is the same percentile (p90) on every run.
  const double untraced_budget = options.trace ? options.seconds / 2.0
                                               : static_cast<double>(options.seconds);
  const int min_passes =
      options.trace || options.tiny
          ? 1
          : static_cast<int>((100 + jobs.size() - 1) / jobs.size());
  const auto measured_start = Clock::now();
  int untraced_passes = 0, traced_passes = 0;

  std::vector<double> job_ms;
  std::map<std::string, std::vector<double>> label_ms;
  double untraced_seconds = 0, traced_seconds = 0;
  std::map<std::string, double> sums;
  std::uint64_t request = 0;
  std::vector<double> pass_throughput;
  while (true) {
    bool traced = false;
    if (untraced_passes < min_passes ||
        SecondsSince(measured_start) < untraced_budget) {
      ++untraced_passes;
    } else if (options.trace && traced_passes < untraced_passes) {
      ++traced_passes;
      traced = true;
    } else {
      break;
    }
    double pass_seconds = 0, pass_atoms = 0;
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng->Shuffle(&order);
    for (std::size_t j : order) {
      if (setup.Due()) {
        std::vector<api::Program> again;
        if (!parse_all(&again)) return result;
      }
      ++request;
      ++result.attempted;
      BatchCounter batches;
      api::SessionOptions session_options;
      session_options.set_num_threads(threads);
      if (traced) session_options.set_observer(&batches);
      api::Session session(programs[j], session_options);
      util::StatusOr<api::ChaseRun> run = util::Status::Internal("not run");
      const auto start = Clock::now();
      {
        Tracer::Scope span(traced ? &tracer : nullptr, "chase.run", request);
        run = session.Chase();
      }
      const double seconds = SecondsSince(start);
      if (!run.ok() || !run->Terminated()) {
        result.Fail(jobs[j].label + ": chase did not terminate");
        continue;
      }
      std::string sorted;
      {
        Tracer::Scope span(traced ? &tracer : nullptr, "core.render", request);
        sorted = run->ToSortedString();
      }
      const chase::ChaseStats& stats = run->stats();
      const std::uint64_t derived = run->instance().size() - stats.database_atoms;
      std::uint64_t expected = jobs[j].expected_derived;
      if (options.corrupt_expected && expected != 0) ++expected;
      if (run->instance().size() != refs[j].atoms ||
          Fnv1a(sorted) != refs[j].hash ||
          (expected != 0 && derived != expected)) {
        result.Fail(jobs[j].label + ": result differs from the 1-thread "
                    "reference or the closed form");
        continue;
      }
      if (!traced) {
        job_ms.push_back(seconds * 1e3);
        label_ms[jobs[j].label].push_back(seconds * 1e3);
        untraced_seconds += seconds;
        pass_seconds += seconds;
        pass_atoms += static_cast<double>(derived);
        continue;
      }
      traced_seconds += seconds;
      sums["jobs"] += 1;
      sums["run_s"] += seconds;
      sums["t1_s"] += refs[j].t1_seconds;
      sums["rounds"] += stats.rounds;
      sums["triggers"] += stats.triggers_fired;
      sums["probes"] += stats.join_probes;
      sums["delta"] += stats.delta_atoms_scanned;
      sums["derived"] += derived;
      sums["atoms"] += run->instance().size();
      sums["arena"] += stats.arena_bytes;
      sums["parallel_rounds"] += stats.parallel_rounds;
      sums["parallel_apply"] += stats.parallel_apply_batches;
      sums["parallel_commit"] += stats.parallel_commit_batches;
      sums["batches"] += batches.batches();
      sums["cross_rule"] += stats.cross_rule_parallel_rounds;
      sums["groups"] += stats.reliance_groups;
    }
    if (pass_seconds > 0) pass_throughput.push_back(pass_atoms / pass_seconds);
  }

  const LatencySummary latency = Summarize(job_ms);
  result.Detail("passes", untraced_passes);
  result.Detail("jobs_per_pass", static_cast<double>(jobs.size()));
  result.Detail("job_samples", static_cast<double>(latency.samples));
  result.Detail("job_tail_percentile", latency.tail_percentile);
  result.Detail("threads", threads);
  result.Detail("setup_samples", static_cast<double>(setup.samples().size()));
  for (const auto& [label, ms] : label_ms) {
    result.Detail("p50_ms." + label, Median(ms));
  }

  if (!options.trace) {
    result.Add("setup_s", Median(setup.samples()), "s");
    // Every pass runs the same jobs: the median pass resists a transient
    // stall better than the run total does.
    result.Add("throughput_per_s", Median(pass_throughput), "1/s");
    result.Add("job_p50_ms", latency.p50, "ms");
    result.Add("job_tail_ms", latency.tail, "ms");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
    return result;
  }

  std::map<std::string, double> v;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double n = sums["jobs"];
  v["trace.overhead_share"] = ratio(traced_seconds, untraced_seconds) - 1;
  ParseLayerMetrics(tracer, parsed_bytes, &v);
  v["chase.run_s"] = ratio(sums["run_s"], n);
  v["chase.run_t1_s"] = ratio(sums["t1_s"], n);
  v["chase.speedup_vs_t1"] = ratio(sums["t1_s"], sums["run_s"]);
  v["chase.rounds"] = ratio(sums["rounds"], n);
  v["chase.triggers_fired"] = ratio(sums["triggers"], n);
  v["chase.join_probes"] = ratio(sums["probes"], n);
  v["chase.delta_atoms_scanned"] = ratio(sums["delta"], n);
  v["chase.fire_per_probe"] = ratio(sums["triggers"], sums["probes"]);
  v["chase.atoms_per_round"] = ratio(sums["derived"], sums["rounds"]);
  v["chase.parallel_rounds_share"] = ratio(sums["parallel_rounds"], sums["rounds"]);
  v["chase.parallel_apply_share"] = ratio(sums["parallel_apply"], sums["batches"]);
  v["chase.parallel_commit_share"] = ratio(sums["parallel_commit"], sums["batches"]);
  v["chase.apply_batches"] = ratio(sums["batches"], n);
  v["chase.cross_rule_rounds_share"] = ratio(sums["cross_rule"], sums["rounds"]);
  v["chase.reliance_groups"] = ratio(sums["groups"], n);
  v["core.arena_bytes_per_atom"] = ratio(sums["arena"], sums["atoms"]);
  v["core.render_s"] = tracer.MeanSelf("core.render");
  EmitPerLayer(v, &result);
  if (!options.out_dir.empty()) {
    tracer.WriteJsonLines(options.out_dir + "/spans-" + options.workload +
                          "-" + std::to_string(options.seed) + ".jsonl");
  }
  return result;
}

std::vector<std::string> Texts(const std::vector<ChaseJob>& jobs) {
  std::vector<std::string> texts;
  for (const ChaseJob& job : jobs) texts.push_back(job.text);
  return texts;
}

RunResult RunChase(const Options& options,
                   std::vector<ChaseJob> (*make_jobs)(const Options&, Rng*)) {
  Rng rng(options.seed);
  const std::vector<ChaseJob> jobs = make_jobs(options, &rng);
  if (!options.dump_inputs.empty()) {
    RunResult result;
    result.attempted = 1;
    if (!DumpInputs(options, Texts(jobs))) result.Fail("cannot write inputs");
    return result;
  }
  return RunChaseJobs(options, jobs, &rng);
}

}  // namespace

RunResult RunChaseWide(const Options& options) {
  return RunChase(options, WideJobs);
}

RunResult RunChaseDeep(const Options& options) {
  return RunChase(options, DeepJobs);
}

}  // namespace perfbench
