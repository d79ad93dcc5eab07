// The four workloads; each returns the run's accumulated statistics.
#pragma once

#include "harness.hpp"

namespace e2e {

// svss-stream, svss-n7-byz and ideal-stream.
RunStats run_sim_workload(const Options& o);
// socket-svss.
RunStats run_socket_workload(const Options& o);

}  // namespace e2e
