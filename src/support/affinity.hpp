// CPU-count query for sizing worker pools and recording the host a
// measurement ran on.
#pragma once

namespace dtop {

// Number of CPUs this process may run on (the affinity mask cardinality
// where available, hardware_concurrency otherwise). Always >= 1.
int available_cpus();

}  // namespace dtop
