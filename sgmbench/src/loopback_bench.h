// The real-socket workload (loopback): a CoordinatorServer on 127.0.0.1
// driven in lockstep with SiteClient threads owned by the benchmark.
#ifndef SGMBENCH_LOOPBACK_BENCH_H_
#define SGMBENCH_LOOPBACK_BENCH_H_

#include "workload.h"

namespace sgmbench {

/// Runs the loopback workload for args.seconds: end-to-end metrics, or
/// with args.trace the per-layer numbers measured from outside the server.
RunOutcome RunLoopbackWorkload(const WorkloadSpec& spec, const RunArgs& args);

}  // namespace sgmbench

#endif  // SGMBENCH_LOOPBACK_BENCH_H_
