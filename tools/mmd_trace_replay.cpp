// Replay a recorded comm trace through the topology-aware platform model and
// project MD weak/strong scaling to the paper's TaihuLight core counts
// (Figs. 11/10), including the 40,960-node full machine. See
// docs/OBSERVABILITY.md "Record -> calibrate -> replay".
//
// Usage:
//   mmd_trace_replay TRACE.mmdtrace [options]
//     --json=FILE           write the projection JSON (schema mmd.trace_replay)
//     --no-contention       price every link as private (flat-model bound)
//     --steps=N             override the trace's step count
//     --compute-from-trace  use the trace's own compute time, no calibration
//
// Exit codes: 0 ok, 1 runtime error (unreadable/corrupt trace, unwritable
// output), 2 usage.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "perf/trace_replay.h"
#include "telemetry/comm_trace.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mmd_trace_replay TRACE.mmdtrace [--json=FILE] [--no-contention]\n"
      "                        [--steps=N] [--compute-from-trace]\n");
  return 2;
}

bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  mmd::perf::ProjectionOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--no-contention") == 0) {
      opt.contention = false;
    } else if (std::strcmp(arg, "--compute-from-trace") == 0) {
      opt.compute_from_trace = true;
    } else if (parse_flag(arg, "--json", &value)) {
      json_path = value;
    } else if (parse_flag(arg, "--steps", &value)) {
      opt.steps = std::strtoull(value.c_str(), nullptr, 10);
      if (opt.steps == 0) return usage();
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "mmd_trace_replay: unknown option %s\n", arg);
      return usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage();
    }
  }
  if (trace_path.empty()) return usage();

  try {
    const mmd::telemetry::CommTraceData trace =
        mmd::telemetry::read_comm_trace_file(trace_path);
    const mmd::perf::ProjectionResult result =
        mmd::perf::project_scaling(trace, opt);
    mmd::perf::print_projection(std::cout, result);
    if (!json_path.empty()) {
      if (!mmd::perf::write_projection_json_file(json_path, result)) {
        std::fprintf(stderr, "mmd_trace_replay: cannot write %s\n",
                     json_path.c_str());
        return 1;
      }
      std::printf("\nProjection JSON: %s\n", json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmd_trace_replay: %s\n", e.what());
    return 1;
  }
  return 0;
}
