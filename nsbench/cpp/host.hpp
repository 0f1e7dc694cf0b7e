// The host block printed with every result: what machine, build and
// resolved execution policies produced the numbers.
#pragma once

#include <string>

namespace nsbench {

/// Logical CPUs this process may run on (its affinity mask).
int usableCpus();

/// One JSON object describing the host, the build and the policies the
/// library resolved: nproc and CPU model, the ISA flags the slot kernels
/// dispatch on and the kernel they resolved to, compiler and build type,
/// pool threads, batch width and shard count.
std::string hostJson(int shards);

}  // namespace nsbench
