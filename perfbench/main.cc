// Benchmark driver binary. perfbench/run.py builds and runs it; it can also
// be run by hand:
//
//   perfbench --workload=massive-social|symmetric-corpus|serve-gadget
//             --seed=N --seconds=S --trace=0|1 [--tiny=1] [--threads=N]
//             [--connect=HOST:PORT] [--spans=FILE]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// notes (input checksums, settings) and every metric with its unit and
// sample count. Exit status 1 on any wrong output, 2 on bad usage or a
// set-up failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (Flag(argv[i], "--workload", &value)) {
      options.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (Flag(argv[i], "--trace", &value)) {
      options.trace = value == "1";
    } else if (Flag(argv[i], "--tiny", &value)) {
      options.tiny = value == "1";
    } else if (Flag(argv[i], "--threads", &value)) {
      options.threads = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (Flag(argv[i], "--connect", &value)) {
      options.connect = value;
    } else if (Flag(argv[i], "--spans", &value)) {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (options.seconds <= 0.0 || options.threads == 0) {
    std::fprintf(stderr, "perfbench: --seconds and --threads must be > 0\n");
    return 2;
  }

  perfbench::Report report;
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("build_flags", PERFBENCH_BUILD_FLAGS);
  report.Note("compiler", PERFBENCH_COMPILER);
  perfbench::Spans spans(options.trace);
  int rc = 2;
  if (options.workload == "massive-social") {
    rc = perfbench::RunMassiveSocial(options, &report, &spans);
  } else if (options.workload == "symmetric-corpus") {
    rc = perfbench::RunSymmetricCorpus(options, &report, &spans);
  } else if (options.workload == "serve-gadget") {
    rc = perfbench::RunServeGadget(options, &report, &spans);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n",
                 options.workload.c_str());
  }
  if (rc != 0) return rc;
  if (options.trace && !options.spans_path.empty() &&
      !spans.Write(options.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans_path.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
