// decide-guarded: seeded guarded programs, each timed as
// api::Program::Parse plus api::Session::Decide — what `nuchase decide`
// does. Every verdict is known by construction or cross-checked against
// the bounded chase, so a wrong answer fails the run.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "common.h"
#include "core/symbol_table.h"
#include "graph/weak_acyclicity.h"
#include "rewrite/linearize.h"
#include "rewrite/simplify.h"
#include "termination/naive_decider.h"
#include "tgd/printer.h"
#include "workload/lower_bounds.h"
#include "workload/random_tgds.h"
#include "workload/university.h"

namespace perfbench {
namespace {

using namespace nuchase;
using termination::Decision;

struct DecideJob {
  std::string label;
  std::string text;
  /// kUnknown: no verdict known (the bounded chase gave none).
  Decision expected = Decision::kUnknown;
};

std::string Render(const workload::Workload& w,
                   const core::SymbolTable& symbols) {
  return tgd::ProgramToString(w.tgds, w.database, symbols);
}

DecideJob LowerBoundJob(std::uint64_t ell) {
  core::SymbolTable symbols;
  // Theorem 8.4's family is in CT_D by construction.
  return {"thm8.4", Render(workload::MakeGuardedLowerBound(&symbols, ell, 1, 1),
                           symbols),
          Decision::kTerminates};
}

DecideJob UniversityJob(std::uint32_t departments, bool fed,
                        std::uint32_t seed) {
  core::SymbolTable symbols;
  workload::UniversityOptions opt;
  opt.departments = departments;
  opt.seed = seed;
  opt.include_review_rule = fed;
  opt.under_review = fed ? 2 : 0;
  // A fed UnderReview rule extends advisor chains forever.
  return {std::string(fed ? "university-fed-" : "university-") +
              std::to_string(departments),
          Render(MakeUniversityWorkload(&symbols, opt), symbols),
          fed ? Decision::kDoesNotTerminate : Decision::kTerminates};
}

DecideJob EmpDeptJob(std::uint32_t size, bool poisoned, std::uint64_t salt) {
  // A fixed guarded ontology whose Track cycle is supported only when a
  // Track fact is present.
  std::string text =
      "Emp(e, d), Dept(d) -> Mgr(d, m).\n"
      "Mgr(d, m) -> Emp(m, d).\n"
      "Emp(e, d) -> Dept(d).\n"
      "Track(x, y) -> Track(y, z).\n";
  for (std::uint32_t i = 0; i < size; ++i) {
    text += "Emp(e" + std::to_string(i) + ", d" +
            std::to_string((i + salt) % 7) + ").\n";
  }
  if (poisoned) text += "Track(e0, e1).\n";
  return {poisoned ? "emp-dept-poisoned" : "emp-dept", text,
          poisoned ? Decision::kDoesNotTerminate : Decision::kTerminates};
}

/// The small class: random guarded programs from generator seeds
/// 1..count, the same for every --seed. Their decide times spread over
/// more than an order of magnitude, so a per-seed sample would move the
/// median by itself; --seed only orders them.
std::vector<DecideJob> RandomJobs(std::uint32_t count) {
  std::vector<DecideJob> jobs;
  for (std::uint32_t seed = 1; seed <= count; ++seed) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions opt;
    opt.seed = seed;
    opt.target = tgd::TgdClass::kGuarded;
    opt.num_predicates = 5;
    opt.num_tgds = 6;
    opt.num_facts = 8;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, opt);
    DecideJob job{"random-guarded", Render(w, symbols), Decision::kUnknown};
    // The bounded chase is ground truth wherever it is definite.
    job.expected =
        termination::DecideByChase(&symbols, w.tgds, w.database, 20'000)
            .decision;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The jobs every pass runs (each pass adds one Theorem 8.4 member).
/// Kinds, counts and sizes are fixed; the seed reseeds the university
/// generator, picks the first Emp/Dept salt and orders the jobs. Per
/// pass: 3 data-heavy university jobs and the Theorem 8.4 job (the top
/// ~2%), 30 Emp/Dept jobs of about equal cost (ranks 5-34 from the top of
/// 190, so the p90 tail falls in their middle) and the 52 small random
/// programs three times over (where the median lands). Many equal-cost
/// jobs around each percentile keep it off the edge of a kind.
std::vector<DecideJob> BaseJobs(const Options& options, Rng* rng) {
  const std::uint32_t scale = options.tiny ? 20 : 1;
  std::vector<DecideJob> jobs;
  auto seed = [&] { return static_cast<std::uint32_t>(rng->Range(1, 1u << 30)); };
  // |D| grows by ~52 facts per department. Decide time grows faster than
  // |D|, so these sizes are fixed; the seed only reseeds the generator.
  jobs.push_back(UniversityJob(std::max(1u, 10 / scale), false, seed()));
  jobs.push_back(UniversityJob(std::max(1u, 20 / scale), true, seed()));
  jobs.push_back(UniversityJob(std::max(1u, 30 / scale), false, seed()));
  // Plain and poisoned Emp/Dept pairs, their salts running through the
  // seven department offsets.
  const std::uint64_t first_salt = rng->Range(0, 6);
  for (int i = 0; i < (options.tiny ? 2 : 15); ++i) {
    const std::uint64_t salt = (first_salt + static_cast<std::uint64_t>(i)) % 7;
    jobs.push_back(EmpDeptJob(1000 / scale, false, salt));
    jobs.push_back(EmpDeptJob(1000 / scale, true, salt));
  }
  const std::vector<DecideJob> random = RandomJobs(options.tiny ? 4 : 52);
  for (int copy = 0; copy < (options.tiny ? 1 : 3); ++copy) {
    jobs.insert(jobs.end(), random.begin(), random.end());
  }
  return jobs;
}

}  // namespace

RunResult RunDecideGuarded(const Options& options) {
  RunResult result;
  Rng rng(options.seed);
  Tracer tracer(options.trace);
  const double nominal_pass_seconds = options.tiny ? 1.0 : 5.0;
  const int passes = std::max(
      1, static_cast<int>(options.seconds / nominal_pass_seconds + 0.5));
  const int untraced_passes = options.trace ? std::max(1, passes / 2) : passes;
  const int traced_passes = options.trace ? untraced_passes : 0;

  const std::vector<DecideJob> base = BaseJobs(options, &rng);
  std::vector<std::vector<DecideJob>> pass_jobs;
  for (int p = 0; p < untraced_passes + traced_passes; ++p) {
    pass_jobs.push_back(base);
    // A traced run's two halves run the same Theorem 8.4 members, so
    // their times compare.
    if (!options.tiny) {
      pass_jobs.back().push_back(LowerBoundJob(1 + (p % untraced_passes) % 4));
    }
    rng.Shuffle(&pass_jobs.back());
  }
  if (!options.dump_inputs.empty()) {
    std::vector<std::string> texts;
    for (const auto& jobs : pass_jobs) {
      for (const DecideJob& job : jobs) texts.push_back(job.text);
    }
    result.attempted = 1;
    if (!DumpInputs(options, texts)) result.Fail("cannot write inputs");
    return result;
  }

  // Set-up: parsing one pass's programs (the timed jobs parse again, as
  // `nuchase decide` does), sampled between jobs through the run.
  SetupSampler setup(options.seconds / 20);
  auto parse_pass = [&] {
    const auto start = Clock::now();
    for (const DecideJob& job : pass_jobs[0]) {
      if (!api::Program::Parse(job.text).ok()) {
        result.Fail(job.label + ": parse failed");
        return false;
      }
    }
    setup.Add(SecondsSince(start));
    return true;
  };
  if (!parse_pass()) return result;

  ResetPeakRss();
  std::vector<double> job_ms;
  std::map<std::string, std::vector<double>> label_ms;
  double decide_seconds = 0, untraced_seconds = 0, traced_seconds = 0;
  double parsed_bytes = 0;
  std::uint64_t decisions = 0, cross_checked = 0;
  std::map<std::string, double> sums;
  std::uint64_t request = 0;
  for (int p = 0; p < untraced_passes + traced_passes; ++p) {
    const bool traced = p >= untraced_passes;
    Tracer* t = traced ? &tracer : nullptr;
    for (const DecideJob& job : pass_jobs[p]) {
      if (setup.Due() && !parse_pass()) return result;
      ++request;
      ++result.attempted;
      util::StatusOr<api::DecideResult> decided =
          util::Status::Internal("not run");
      bool guarded = false;
      double decide_only = 0;
      const auto start = Clock::now();
      {
        auto program = ParseProgram(t, job.text, request);
        if (program.ok()) {
          guarded = program->tgd_class() == tgd::TgdClass::kGuarded;
          api::Session session(*program);
          Tracer::Scope span(t, "termination.decide", request);
          const auto decide_start = Clock::now();
          decided = session.Decide();
          decide_only = SecondsSince(decide_start);
        } else {
          decided = program.status();
        }
      }
      const double seconds = SecondsSince(start);
      Decision expected = job.expected;
      if (options.corrupt_expected) {
        expected = expected == Decision::kTerminates
                       ? Decision::kDoesNotTerminate
                       : Decision::kTerminates;
      }
      if (!decided.ok()) {
        result.Fail(job.label + ": " + decided.status().ToString());
        continue;
      }
      if (expected != Decision::kUnknown) {
        ++cross_checked;
        if (decided->decision != expected) {
          result.Fail(job.label + ": verdict " +
                      termination::DecisionName(decided->decision) +
                      ", expected " + termination::DecisionName(expected));
          continue;
        }
      }
      if (!traced) {
        job_ms.push_back(seconds * 1e3);
        label_ms[job.label].push_back(seconds * 1e3);
        decide_seconds += seconds;
        untraced_seconds += seconds;
        ++decisions;
        continue;
      }
      traced_seconds += seconds;
      parsed_bytes += static_cast<double>(job.text.size());
      if (!guarded) continue;
      // The guarded pipeline's stages, as GSimplify composes them, timed
      // as separate calls on the same input: Linearize (with type
      // saturation), the Simplifier over lin(D, Σ), then the
      // weak-acyclicity check on gsimple(D, Σ).
      auto program = api::Program::Parse(job.text);
      core::SymbolTable symbols = program->symbols();
      std::int64_t t0 = Tracer::NowNs();
      auto lin = rewrite::Linearize(program->database(), program->tgds(),
                                    &symbols, {});
      if (!lin.ok()) continue;
      std::int64_t t1 = Tracer::NowNs();
      rewrite::Simplifier simplifier(&symbols);
      auto gsimple_tgds = simplifier.SimplifyTgds(lin->tgds);
      if (!gsimple_tgds.ok()) continue;
      const core::Database gsimple_db =
          simplifier.SimplifyDatabase(lin->database);
      std::int64_t t2 = Tracer::NowNs();
      graph::CheckWeakAcyclicity(*gsimple_tgds, gsimple_db, symbols);
      std::int64_t t3 = Tracer::NowNs();
      tracer.Add("rewrite.linearize", t0, t1, request);
      tracer.Add("rewrite.simplify", t1, t2, request);
      tracer.Add("graph.wa", t2, t3, request);
      const double linearize_s = (t1 - t0) * 1e-9;
      const double simplify_s = (t2 - t1) * 1e-9;
      const double wa_s = (t3 - t2) * 1e-9;
      sums["guarded"] += 1;
      sums["decide"] += decide_only;
      sums["linearize"] += linearize_s;
      sums["simplify"] += simplify_s;
      sums["wa"] += wa_s;
      sums["types"] += lin->num_types;
      sums["lin_tgds"] += lin->tgds.size();
      sums["gsimple_tgds"] += gsimple_tgds->size();
    }
  }

  const LatencySummary latency = Summarize(job_ms);
  result.Detail("passes", untraced_passes);
  result.Detail("job_samples", static_cast<double>(latency.samples));
  result.Detail("job_tail_percentile", latency.tail_percentile);
  result.Detail("cross_checked", static_cast<double>(cross_checked));
  result.Detail("setup_samples", static_cast<double>(setup.samples().size()));
  for (const auto& [label, ms] : label_ms) {
    result.Detail("p50_ms." + label, Median(ms));
    result.Detail("p10_ms." + label, Percentile(ms, 10));
    result.Detail("p90_ms." + label, Percentile(ms, 90));
  }

  if (!options.trace) {
    result.Add("setup_s", Median(setup.samples()), "s");
    result.Add("throughput_per_s",
               decide_seconds > 0 ? decisions / decide_seconds : 0, "1/s");
    result.Add("job_p50_ms", latency.p50, "ms");
    result.Add("job_tail_ms", latency.tail, "ms");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
    return result;
  }

  std::map<std::string, double> v;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  v["trace.overhead_share"] = ratio(traced_seconds, untraced_seconds) - 1;
  ParseLayerMetrics(tracer, parsed_bytes, &v);
  const double g = sums["guarded"];
  v["rewrite.linearize_s"] = ratio(sums["linearize"], g);
  v["rewrite.simplify_s"] = ratio(sums["simplify"], g);
  v["graph.wa_s"] = ratio(sums["wa"], g);
  v["rewrite.types"] = ratio(sums["types"], g);
  v["rewrite.lin_tgds"] = ratio(sums["lin_tgds"], g);
  v["rewrite.gsimple_tgds"] = ratio(sums["gsimple_tgds"], g);
  // Stage times and the decide time they are subtracted from cover the
  // same (guarded) jobs.
  const double decide_s = ratio(sums["decide"], g);
  v["termination.decide_s"] = decide_s;
  v["termination.unaccounted_s"] =
      decide_s - v["rewrite.linearize_s"] - v["rewrite.simplify_s"] -
      v["graph.wa_s"];
  EmitPerLayer(v, &result);
  if (!options.out_dir.empty()) {
    tracer.WriteJsonLines(options.out_dir + "/spans-" + options.workload +
                          "-" + std::to_string(options.seed) + ".jsonl");
  }
  return result;
}

}  // namespace perfbench
