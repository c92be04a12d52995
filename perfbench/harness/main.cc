// perfbench_harness: runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--corrupt-expected] [--dump-inputs FILE]
//                    [--out-dir DIR] [--server-bin PATH]
//
// The last stdout line is the result object ({"correct", "attempted",
// "failed", "metrics"}); the line before it, prefixed "detail ", carries
// the run's seed, sample counts and percentiles. perfbench/run.py builds
// this binary and is the documented entry point.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Print(const Options& options, const RunResult& result) {
  std::string detail = "{\"workload\":\"" + JsonEscape(options.workload) +
                       "\",\"seed\":" + std::to_string(options.seed) +
                       ",\"trace\":" + (options.trace ? "1" : "0") +
                       ",\"nproc\":" + std::to_string(options.nproc) +
                       ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  for (const auto& [key, value] : result.details) {
    detail += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  detail += ",\"mismatches\":[";
  for (std::size_t i = 0; i < result.mismatches.size(); ++i) {
    detail += (i ? ",\"" : "\"") + JsonEscape(result.mismatches[i]) + "\"";
  }
  detail += "]}";
  std::printf("detail %s\n", detail.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::strtod(v.c_str(), nullptr);
      if (!(options->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      options->trace = v == "1";
    } else if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--corrupt-expected") {
      options->corrupt_expected = true;
    } else if (arg == "--dump-inputs") {
      if (!value(&options->dump_inputs)) return false;
    } else if (arg == "--out-dir") {
      if (!value(&options->out_dir)) return false;
    } else if (arg == "--server-bin") {
      if (!value(&options->server_bin)) return false;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to measure a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--corrupt-expected] [--dump-inputs FILE] "
                 "[--out-dir DIR] [--server-bin PATH]\n",
                 argv[0]);
    return 2;
  }
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  RunResult result;
  if (options.workload == "chase-wide") {
    result = perfbench::RunChaseWide(options);
  } else if (options.workload == "chase-deep") {
    result = perfbench::RunChaseDeep(options);
  } else if (options.workload == "decide-guarded") {
    result = perfbench::RunDecideGuarded(options);
  } else if (options.workload == "serve-mixed") {
    result = perfbench::RunServeMixed(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!options.dump_inputs.empty()) return result.correct ? 0 : 1;
  Print(options, result);
  // Any oracle mismatch or failed operation fails the run.
  return result.correct && result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
