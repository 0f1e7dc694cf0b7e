#include "host.hpp"

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "net/sinr_kernel.hpp"
#include "net/slot_kernel.hpp"
#include "sim/experiment_batch.hpp"
#include "support/thread_pool.hpp"

#ifndef NSBENCH_BUILD_TYPE
#define NSBENCH_BUILD_TYPE "unknown"
#endif

namespace nsbench {

namespace {

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// The flags the native slot/SINR kernel TUs check before dispatch
/// (net/slot_kernel_impl.inl), as this CPU reports them.
std::string isaFlags() {
  __builtin_cpu_init();
  std::string flags;
  const auto add = [&flags](const char* name, bool on) {
    if (!on) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  add("avx2", __builtin_cpu_supports("avx2"));
  add("bmi2", __builtin_cpu_supports("bmi2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  return flags;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int usableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string hostJson(int shards) {
  namespace net = nsmodel::net;
  const unsigned hw = std::thread::hardware_concurrency();
  std::string json = "{";
  json += "\"nproc\": " + std::to_string(hw == 0 ? 1 : hw);
  json += ", \"usable_cpus\": " + std::to_string(usableCpus());
  json += ", \"cpu_model\": " + quoted(cpuModel());
  json += ", \"isa_flags\": " + quoted(isaFlags());
  json += ", \"slot_kernel\": " + quoted(net::slotKernelOps().name);
  json += ", \"sinr_kernel\": " + quoted(net::sinrKernelOps().name);
  json += ", \"compiler\": " + quoted(std::string("g++ ") + __VERSION__);
  json += ", \"build_type\": " + quoted(NSBENCH_BUILD_TYPE);
  json += ", \"pool_threads\": " +
          std::to_string(nsmodel::support::globalPool().size());
  json += ", \"batch_width\": " + std::to_string(nsmodel::sim::batchWidth());
  json += ", \"shards\": " + std::to_string(shards);
  return json + "}";
}

}  // namespace nsbench
