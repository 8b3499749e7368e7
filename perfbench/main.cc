// The benchmark binary. Not meant to be run by hand: perfbench/run.py
// builds it, generates the serving catalogs and turns its report into the
// benchmark's result line.
//
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--catalog <file>] [--trace-out <file>]
//   perfbench gen --workload <serve-batch|serve-online> --seed <n> --out <file>
//
// `run` prints one JSON object: correct, attempted, failed, notes, the
// serve-online phases, the dispatched SIMD tier and build type, and every
// metric with its unit and sample count.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "src/tensor/quantized.h"
#include "src/util/logging.h"
#include "workloads.h"

namespace {

using firzen::perfbench::RunOptions;
using firzen::perfbench::RunResult;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(const std::map<std::string, firzen::perfbench::Metric>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%lld}",
                first ? "" : ",", JsonString(name).c_str(), metric.value,
                JsonString(metric.unit).c_str(),
                static_cast<long long>(metric.samples));
    first = false;
  }
  std::printf("}");
}

void PrintResult(const RunOptions& options, const RunResult& r) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%s,",
              JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "true" : "false");
  std::printf("\"simd_tier\":%s,\"build_type\":%s,",
              JsonString(firzen::SimdTierName(firzen::DispatchedSimdTier()))
                  .c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"notes\":[",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s%s", i ? "," : "", JsonString(r.notes[i]).c_str());
  }
  std::printf("],\"phases\":[");
  for (size_t i = 0; i < r.phases.size(); ++i) {
    const auto& p = r.phases[i];
    std::printf(
        "%s{\"kind\":%s,\"rate_rps\":%.17g,\"attempted\":%lld,\"served\":%lld,"
        "\"p50_ms\":%.17g,\"p99_ms\":%.17g,\"pooled_p99_ms\":%.17g,"
        "\"windows\":%lld,\"gen_lag_p99_ms\":%.17g,\"achieved_rps\":%.17g,"
        "\"backlog_grew\":%s,\"valid\":%s,\"meets_limit\":%s}",
        i ? "," : "", JsonString(p.kind).c_str(), p.rate_rps, static_cast<long long>(p.attempted),
        static_cast<long long>(p.served), p.p50_ms, p.p99_ms, p.pooled_p99_ms,
        static_cast<long long>(p.windows), p.gen_lag_p99_ms, p.achieved_rps,
        p.backlog_grew ? "true" : "false",
        p.valid ? "true" : "false", p.meets_limit ? "true" : "false");
  }
  std::printf("],\"metrics\":");
  PrintMetrics(r.metrics);
  std::printf(",\"details\":");
  PrintMetrics(r.details);
  std::printf("}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir D [--catalog F] [--trace-out F]\n"
               "       perfbench gen --workload W --seed N --out F\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&](const std::string& name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  firzen::SetLogLevel(firzen::LogLevel::kError);
  try {
    RunOptions options;
    options.workload = flag("workload");
    options.seed = std::stoull(flag("seed"));
    if (command == "gen") {
      double save_ms = 0.0;
      if (!firzen::perfbench::GenerateCatalog(options.workload, options.seed,
                                              flag("out"), &save_ms)) {
        return 1;
      }
      std::printf("{\"models.save_ms\":%.17g}\n", save_ms);
      return 0;
    }
    if (command != "run") return Usage();
    options.seconds = std::stod(flag("seconds"));
    options.trace = flag("trace") == "1";
    options.catalog_path = flag("catalog");
    options.work_dir = flag("work-dir");
    options.trace_out = flag("trace-out");
    RunResult result;
    if (options.workload == "train-cold") {
      result = firzen::perfbench::RunTrainCold(options);
    } else if (options.workload == "serve-batch") {
      result = firzen::perfbench::RunServeBatch(options);
    } else if (options.workload == "serve-online") {
      result = firzen::perfbench::RunServeOnline(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    PrintResult(options, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
