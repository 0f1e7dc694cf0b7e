// The benchmark's four workloads.  Each drives the library through its
// public functions the way a user job does, starting cold on every pass:
// fresh scenario caches, a cleared MuTable, a new engine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace nsbench {

/// Named numbers: layer counts collected during traced passes, and the
/// metrics derived from them.
using Metrics = std::map<std::string, double>;

/// What one pass produced: its two timed phases and one digest per
/// checkable cell of its output.
struct PassResult {
  double setupSeconds = 0.0;
  double runSeconds = 0.0;
  std::vector<std::uint64_t> cells;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Cells of one pass's output, and the simulated runs or
  /// optimisations behind each cell.
  virtual std::size_t cellCount() const = 0;
  virtual std::uint64_t unitsPerCell() const = 0;

  /// Shard count the workload's engine uses (0 when it runs none).
  virtual int shards() const { return 0; }

  /// One cold pass: set-up (scenarios, topology, engine, or the analytic
  /// reset), then the run.  Adds layer counts to `counts` when the tracer
  /// is enabled.
  virtual PassResult pass(Tracer& tracer, Metrics& counts) = 0;

  /// Recomputes every cell of `reference` (a pass's cells) through an
  /// independent execution path and returns the indices that differ.
  virtual std::vector<std::size_t> verify(
      const std::vector<std::uint64_t>& reference, Tracer& tracer) = 0;

  /// Traced runs only: times the topology layers (deployment, grid,
  /// adjacency, gain CSR) one by one on this workload's own scenarios.
  virtual void layerPass(Tracer& /*tracer*/, Metrics& /*counts*/) {}
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Builds a workload whose inputs derive from `seed` alone; null for an
/// unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

/// Traced runs only: one small call into every layer (a rings=5,
/// rho=140 scenario, a short sweep, a sharded run, one optimisation), so
/// a traced run reports every per-layer metric even for layers its
/// workload does not exercise.
void probeLayers(std::uint64_t seed, Tracer& tracer, Metrics& counts);

}  // namespace nsbench
