// tfb_ledger: the repository benchmark. One binary, three workloads
// (univariate, multivariate, serve) against the public API of libtfb.
//
//   tfb_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--workdir <dir>]
//
// Prints a metric table, writes one ledger record (JSON, one schema for
// every workload) under <workdir>/ledger/, and prints as its last stdout
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// on bad arguments; an output check that fails sets "correct": false.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "tfb/linalg/gemm.h"
#include "tfb/serve/json.h"

#ifndef TFBBENCH_BUILD_TYPE
#define TFBBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TFBBENCH_CXX_FLAGS
#define TFBBENCH_CXX_FLAGS "unknown"
#endif
#ifndef TFBBENCH_COMPILER
#define TFBBENCH_COMPILER "unknown"
#endif
#ifndef TFBBENCH_COMMIT
#define TFBBENCH_COMMIT "unknown"
#endif

namespace tfbbench {
namespace {

/// A second seed, never used while tuning, on which later changes re-check
/// their claims.
constexpr std::uint64_t kHeldOutSeed = 7919;

int Usage(const char* why) {
  std::fprintf(stderr,
               "tfb_ledger: %s\nusage: tfb_ledger --workload "
               "univariate|multivariate|serve --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               why);
  return 1;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--workdir") {
      options->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !options->workload.empty();
}

std::string JsonDouble(double value) {
  std::string out;
  tfb::serve::AppendJsonDouble(&out, std::isfinite(value) ? value : 0.0);
  return out;
}

std::string JsonString(const std::string& value) {
  std::string out;
  tfb::serve::AppendJsonString(&out, value);
  return out;
}

/// The ledger record: host, build, seeds, checks, and every metric with its
/// unit, median, quartiles and sample count.
std::string LedgerRecord(const RunOptions& options, const RunResult& result,
                         bool correct) {
  std::string out = "{\"schema\":\"tfb-ledger/1\",\"workload\":" +
                    JsonString(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"heldout_seed\":" + std::to_string(kHeldOutSeed) +
                    ",\"trace\":" + (options.trace ? "true" : "false") +
                    ",\"seconds\":" + JsonDouble(options.seconds);
  out += ",\"host\":{\"nproc\":" + std::to_string(options.nproc) +
         ",\"kernel_path\":" +
         JsonString(tfb::linalg::kernel::KernelPathName(
             tfb::linalg::kernel::ActiveKernelPath())) +
         ",\"build_type\":" + JsonString(TFBBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + JsonString(TFBBENCH_CXX_FLAGS) +
         ",\"compiler\":" + JsonString(TFBBENCH_COMPILER) +
         ",\"commit\":" + JsonString(TFBBENCH_COMMIT) + "}";
  out += ",\"correct\":" + std::string(correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(result.attempted) +
         ",\"failed\":" + std::to_string(result.failed) +
         ",\"check_failures\":[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(result.check_failures[i]);
  }
  out += "],\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : result.notes) {
    if (!first) out += ',';
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  out += "},\"metrics\":{";
  first = true;
  for (const std::string& name : result.order) {
    const Metric& m = result.metrics.at(name);
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":{\"unit\":" + JsonString(m.unit) +
           ",\"value\":" + JsonDouble(m.value) +
           ",\"samples\":" + std::to_string(m.spread.n) +
           ",\"median\":" + JsonDouble(m.spread.median) +
           ",\"q1\":" + JsonDouble(m.spread.q1) +
           ",\"q3\":" + JsonDouble(m.spread.q3) + "}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (options.workdir.empty()) options.workdir = ".bench_build/work";
  ::mkdir(options.workdir.c_str(), 0755);
  const std::string ledger_dir = options.workdir + "/ledger";
  ::mkdir(ledger_dir.c_str(), 0755);

  RunResult result;
  if (options.workload == "univariate") {
    RunUnivariate(options, &result);
  } else if (options.workload == "multivariate") {
    RunMultivariate(options, &result);
  } else if (options.workload == "serve") {
    RunServe(options, &result);
  } else {
    return Usage("unknown workload");
  }

  // The printed set is fixed by BENCHMARK.json: end-to-end metrics must
  // all be measured; per-layer metrics a workload bypasses read 0.
  const std::vector<MetricSpec>& printed =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : printed) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      result.Check(options.trace, std::string("metric not measured: ") +
                                      spec.name);
      result.Set(spec.name, 0.0);
    } else {
      result.Check(std::isfinite(it->second.value),
                   std::string("metric not finite: ") + spec.name);
    }
  }
  const bool correct = result.check_failures.empty();

  std::printf("\n%-26s %-7s %14s %14s %14s %8s\n", "metric", "unit", "value",
              "q1", "q3", "samples");
  for (const std::string& name : result.order) {
    const Metric& m = result.metrics.at(name);
    std::printf("%-26s %-7s %14.6g %14.6g %14.6g %8zu\n", name.c_str(),
                m.unit.c_str(), m.value, m.spread.q1, m.spread.q3,
                m.spread.n);
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const std::string ledger_path = ledger_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  (options.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(ledger_path.c_str(), "w")) {
    const std::string record = LedgerRecord(options, result, correct);
    std::fputs(record.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("ledger: %s\n", ledger_path.c_str());
  }

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    const Metric& m = result.metrics.at(printed[i].name);
    if (i > 0) line += ", ";
    line += JsonString(printed[i].name) + ": {\"value\": " +
            JsonDouble(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace tfbbench

int main(int argc, char** argv) {
  try {
    return tfbbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfb_ledger: %s\n", e.what());
    return 1;
  }
}
