// sgmbench: the SGM deployment benchmark.
//
//   sgmbench --workload fleet|faulty|loopback --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no benchmark tracing;
// --trace 1 is the separate traced run that reports per-layer metrics. Each
// metric is printed as "name value unit", then the last stdout line is the
// JSON result {"correct", "attempted", "failed", "metrics"}. Gate failures
// go to stderr and make "correct" false. See README.md.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "loopback_bench.h"
#include "sim_bench.h"
#include "workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "sgmbench: %s\nusage: sgmbench --workload fleet|faulty|loopback"
               " --seed N --seconds S --trace 0|1\n",
               message);
  return 2;
}

/// Binds the process, and so every thread it starts, to the last CPU it
/// may use. On a shared VM, waking an idle vCPU can take milliseconds when
/// the host is busy; loopback's lockstep cycle wakes threads about twenty
/// times, and with every thread on one CPU each wake-up is an in-CPU
/// context switch instead. The sim workloads are single-threaded and keep
/// their caches on one CPU.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  sgmbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const sgmbench::WorkloadSpec* spec = sgmbench::FindWorkload(args.workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  PinToOneCpu();

  const sgmbench::RunOutcome outcome =
      spec->loopback ? sgmbench::RunLoopbackWorkload(*spec, args)
                     : sgmbench::RunSimWorkload(*spec, args);
  for (const std::string& failure : outcome.gate_failures) {
    std::fprintf(stderr, "GATE FAILED [%s seed %llu]: %s\n",
                 spec->name.c_str(),
                 static_cast<unsigned long long>(args.seed), failure.c_str());
  }
  for (const auto& [name, entry] : outcome.metrics.items()) {
    std::printf("%-52s %16.6g %s\n", name.c_str(), entry.first,
                entry.second.c_str());
  }
  std::printf("%s\n", sgmbench::ResultLine(outcome.correct, outcome.attempted,
                                           outcome.failed, outcome.metrics)
                          .c_str());
  return 0;
}
