#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <type_traits>

#include "analytic/mu_table.hpp"
#include "core/network_model.hpp"
#include "geom/spatial_grid.hpp"
#include "host.hpp"
#include "net/gain_field.hpp"
#include "net/slot_kernel.hpp"
#include "protocols/probabilistic.hpp"
#include "sim/experiment_batch.hpp"
#include "sim/run_workspace.hpp"
#include "sim/scenario_cache.hpp"
#include "sim/sharded_engine.hpp"
#include "support/thread_pool.hpp"

namespace nsbench {

namespace analytic = nsmodel::analytic;
namespace core = nsmodel::core;
namespace geom = nsmodel::geom;
namespace net = nsmodel::net;
namespace protocols = nsmodel::protocols;
namespace sim = nsmodel::sim;
namespace support = nsmodel::support;

namespace {

// ---------------------------------------------------------------- digests

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// FNV-1a over raw bytes, the hash nsmodel_cli's --result file uses.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(values.data(), values.size() * sizeof(T));
}

/// Folds the bits of `value` into `hash`.
template <typename T>
std::uint64_t fold(std::uint64_t hash, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(&value, sizeof value, hash);
}

/// Every field of an aggregate, bit for bit.
std::uint64_t digestAggregate(const sim::MetricAggregate& agg) {
  std::uint64_t h = kFnvOffset;
  h = fold(h, static_cast<std::uint64_t>(agg.stats.count));
  h = fold(h, agg.stats.mean);
  h = fold(h, agg.stats.stddev);
  h = fold(h, agg.stats.ciHalfWidth95);
  h = fold(h, agg.stats.min);
  h = fold(h, agg.stats.max);
  h = fold(h, agg.definedFraction);
  return fold(h, agg.replications);
}

/// The fields `nsmodel_cli broadcast --result` writes, folded into one
/// value.  None of them depends on the shard count.
std::uint64_t digestRun(const sim::RunResult& run) {
  std::uint64_t h = kFnvOffset;
  h = fold(h, static_cast<std::uint64_t>(run.nodeCount()));
  h = fold(h, fnv1a(run.receptionSlots()));
  h = fold(h, fnv1a(run.transmissionSlots()));
  h = fold(h, fnv1a(run.receptionSlotByNode()));
  h = fold(h, fnv1a(run.phases()));
  h = fold(h, run.attemptedPairs());
  return fold(h, run.deliveredPairs());
}

/// The bits of (p*, objective), or a fixed tag when nothing was feasible.
std::uint64_t digestOptimum(const std::optional<core::Optimum>& best) {
  if (!best) return fold(kFnvOffset, std::uint64_t{0x1f});
  return fold(fold(kFnvOffset, best->probability), best->value);
}

// ------------------------------------------------------------ seed helpers

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

/// Pins the reference execution path while it lives: the oracle slot
/// kernel (which the SINR kernel follows) and batch width 1, so a
/// recomputation shares neither the vectorised kernels nor the batched
/// driver with the timed passes.
class ReferencePath {
 public:
  ReferencePath() : previous_(net::slotKernelOps().isa) {
    net::setSlotKernel(net::SlotKernelIsa::Oracle);
    sim::setBatchWidthOverride(1);
  }
  ReferencePath(const ReferencePath&) = delete;
  ReferencePath& operator=(const ReferencePath&) = delete;
  ~ReferencePath() {
    sim::setBatchWidthOverride(-1);
    net::setSlotKernel(previous_);
  }

 private:
  net::SlotKernelIsa previous_;
};

/// Indices of the cells whose flag is set.
std::vector<std::size_t> flagged(const std::vector<char>& differs) {
  std::vector<std::size_t> bad;
  for (std::size_t c = 0; c < differs.size(); ++c) {
    if (differs[c] != 0) bad.push_back(c);
  }
  return bad;
}

// ------------------------------------------------------------ paper inputs

const std::vector<double> kPaperRhos{20, 40, 60, 80, 100, 120, 140};

core::NetworkModel paperModel(double rho, core::CommModel comm,
                              int rings = 5) {
  core::DeploymentSpec spec;
  spec.rings = rings;
  spec.ringWidth = 1.0;
  spec.neighborDensity = rho;
  return core::NetworkModel(spec, comm, /*slotsPerPhase=*/3);
}

protocols::ProtocolFactory pb(double p) {
  return [p] { return std::make_unique<protocols::ProbabilisticBroadcast>(p); };
}

/// Per-RunResult counts, summed from the sweep's worker threads.
struct RunCounts {
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> transmissions{0};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> delivered{0};

  void add(const sim::RunResult& run) {
    runs.fetch_add(1, std::memory_order_relaxed);
    transmissions.fetch_add(run.totalBroadcasts(), std::memory_order_relaxed);
    attempted.fetch_add(run.attemptedPairs(), std::memory_order_relaxed);
    delivered.fetch_add(run.deliveredPairs(), std::memory_order_relaxed);
  }

  void addTo(Metrics& counts) const {
    counts["sim.runs"] += static_cast<double>(runs.load());
    counts["sim.transmissions"] += static_cast<double>(transmissions.load());
    counts["sim.attempted_pairs"] += static_cast<double>(attempted.load());
    counts["sim.delivered_pairs"] += static_cast<double>(delivered.load());
  }
};

/// The metric extractor every sweep uses: the Fig. 8 objective
/// (reachability within 5 phases), plus the run counts when `counts` is
/// set.
sim::MetricExtractor sweepExtractor(const core::MetricSpec& spec,
                                    RunCounts* counts) {
  return [spec, counts](const sim::RunResult& run) {
    if (counts != nullptr) counts->add(run);
    const auto value = core::evaluateMetric(spec, run);
    return std::vector<double>{
        value ? *value : std::numeric_limits<double>::quiet_NaN()};
  };
}

/// Computed bytes of a CSR over `nodes` rows: size_t offsets and 32-bit
/// ids, plus an f64 per edge for a gain CSR.
double csrBytes(double nodes, double edges, bool gains) {
  return (nodes + 1) * sizeof(std::size_t) +
         edges * (sizeof(net::NodeId) + (gains ? sizeof(double) : 0));
}

/// Builds one scenario layer by layer, each call in its own span:
/// deployment, spatial grid, adjacency (the Topology ctor, which builds
/// its own grid again), and the gain CSR when `key` asks for SINR.
void timeTopologyLayers(const sim::ScenarioKey& key, Tracer& tracer,
                        Metrics& counts) {
  std::optional<net::Deployment> deployment;
  {
    const auto span = tracer.span("geom.deploy");
    support::Rng rng = support::Rng::forStream(key.seed, key.stream);
    deployment.emplace(net::Deployment::paperDisk(
        rng, key.rings, key.ringWidth, key.neighborDensity));
  }
  std::optional<geom::SpatialGrid> grid;
  {
    const auto span = tracer.span("geom.grid");
    grid.emplace(geom::SpatialGrid::build(deployment->positions(),
                                          key.ringWidth));
  }
  std::optional<net::Topology> topology;
  {
    const auto span = tracer.span("net.adjacency");
    topology.emplace(*deployment, key.ringWidth, key.csFactor);
  }
  const double nodes = static_cast<double>(topology->nodeCount());
  double edges = 0.0;
  for (std::size_t u = 0; u < topology->nodeCount(); ++u) {
    edges += static_cast<double>(
        topology->neighbors(static_cast<net::NodeId>(u)).size());
  }
  counts["net.adjacency_edges"] += edges;
  double bytes = csrBytes(nodes, edges, false);
  if (key.sinrAlpha > 0.0) {
    std::optional<net::GainField> gains;
    {
      const auto span = tracer.span("net.gain_csr");
      gains.emplace(deployment->positions(), *grid, key.ringWidth,
                    net::GainFieldSpec{key.sinrAlpha, key.sinrCutoff});
    }
    const double gainEdges = static_cast<double>(gains->edgeCount());
    counts["net.gain_edges"] += gainEdges;
    bytes += csrBytes(nodes, gainEdges, true);
  }
  counts["net.csr_mb"] += bytes / (1024.0 * 1024.0);
}

// ------------------------------------------------------------------ sweeps

/// The Fig. 8 sweep shape: every (rho, p) cell of the simulation grid,
/// 30 replications, reach-latency:5, through sim::monteCarloSweep with a
/// scenario cache prebuilt over the pool.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::vector<double> rhos, core::CommModel comm,
                std::uint64_t seed)
      : rhos_(std::move(rhos)),
        comm_(comm),
        seed_(seed),
        probabilities_(core::ProbabilityGrid::simulation().values()) {
    for (const double p : probabilities_) factories_.push_back(pb(p));
  }

  std::size_t cellCount() const override {
    return rhos_.size() * probabilities_.size();
  }
  std::uint64_t unitsPerCell() const override { return kReplications; }

  PassResult pass(Tracer& tracer, Metrics& counts) override {
    sim::ScenarioCache cache;
    sim::RunWorkspacePool workspaces;
    RunCounts runCounts;
    const auto extract =
        sweepExtractor(spec_, tracer.enabled() ? &runCounts : nullptr);
    PassResult out;
    const auto t0 = Clock::now();
    {
      const auto span = tracer.span("sim.scenario");
      const std::vector<sim::ScenarioKey> keys = scenarioKeys();
      support::parallelFor(
          0, keys.size(), [&](std::size_t i) { cache.getOrBuild(keys[i]); },
          /*chunk=*/1);
    }
    const auto t1 = Clock::now();
    std::vector<std::vector<std::vector<sim::MetricAggregate>>> rows;
    {
      const auto span = tracer.span("sim.sweep");
      for (const double rho : rhos_) {
        sim::MonteCarloConfig mc = monteCarloConfig(rho);
        mc.cache = &cache;
        mc.workspaces = &workspaces;
        rows.push_back(sim::monteCarloSweep(mc, factories_, extract));
      }
    }
    const auto t2 = Clock::now();
    out.setupSeconds = secondsBetween(t0, t1);
    out.runSeconds = secondsBetween(t1, t2);
    {
      const auto span = tracer.span("bench.digest");
      for (const auto& row : rows) {
        for (const auto& point : row) {
          out.cells.push_back(digestAggregate(point.at(0)));
        }
      }
    }
    if (tracer.enabled()) {
      runCounts.addTo(counts);
      counts["sim.scenario_builds"] += static_cast<double>(cache.misses());
      counts["sim.scenario_hits"] += static_cast<double>(cache.hits());
    }
    return out;
  }

  /// Every cell again on the reference path, point-major: one serial
  /// sim::monteCarlo per cell on the oracle kernels, unbatched, with the
  /// cells spread over the pool and the scenarios in a cache of its own.
  std::vector<std::size_t> verify(const std::vector<std::uint64_t>& reference,
                                  Tracer& tracer) override {
    const auto span = tracer.span("sim.reference");
    const ReferencePath path;
    sim::ScenarioCache cache;
    std::vector<char> differs(cellCount(), 0);
    support::parallelFor(
        0, cellCount(),
        [&](std::size_t cell) {
          sim::MonteCarloConfig mc =
              monteCarloConfig(rhos_[cell / probabilities_.size()]);
          mc.parallel = false;
          mc.cache = &cache;
          const auto aggs =
              sim::monteCarlo(mc, factories_[cell % probabilities_.size()],
                              sweepExtractor(spec_, nullptr));
          differs[cell] = digestAggregate(aggs.at(0)) != reference.at(cell);
        },
        /*chunk=*/1);
    return flagged(differs);
  }

  void layerPass(Tracer& tracer, Metrics& counts) override {
    const auto span = tracer.span("bench.layers");
    for (const sim::ScenarioKey& key : scenarioKeys()) {
      timeTopologyLayers(key, tracer, counts);
    }
  }

 private:
  static constexpr int kReplications = 30;

  sim::MonteCarloConfig monteCarloConfig(double rho) const {
    sim::MonteCarloConfig mc;
    mc.experiment = paperModel(rho, comm_).experimentConfig();
    mc.seed = seed_;
    mc.replications = kReplications;
    return mc;
  }

  /// The scenarios the sweep runs on: one per (rho, replication).
  std::vector<sim::ScenarioKey> scenarioKeys() const {
    std::vector<sim::ScenarioKey> keys;
    for (const double rho : rhos_) {
      const sim::ExperimentConfig config =
          paperModel(rho, comm_).experimentConfig();
      for (int rep = 0; rep < kReplications; ++rep) {
        keys.push_back(sim::ScenarioKey::forExperiment(
            config, seed_, static_cast<std::uint64_t>(rep)));
      }
    }
    return keys;
  }

  std::vector<double> rhos_;
  core::CommModel comm_;
  std::uint64_t seed_;
  std::vector<double> probabilities_;
  std::vector<protocols::ProtocolFactory> factories_;
  core::MetricSpec spec_ = core::MetricSpec::reachabilityUnderLatency(5.0);
};

// ------------------------------------------------------------ million_node

/// PB broadcasts (p = 0.6) over rings = 85, rho = 140 (1,011,500 nodes)
/// through ShardedEngine, as `nsmodel_cli broadcast --rings=85 --rho=140
/// --p=0.6 --shards=<nproc>` runs them.  Each pass builds the scenario and
/// the engine once and runs kBroadcasts broadcasts on them, each on its
/// own protocol stream: one broadcast is too short a run phase to time
/// steadily.
class MillionNodeWorkload final : public Workload {
 public:
  explicit MillionNodeWorkload(std::uint64_t seed)
      : config_(paperModel(140.0, core::CommModel::collisionAware(), 85)
                    .experimentConfig()),
        key_(sim::ScenarioKey::forExperiment(config_, seed, 0)),
        shards_(usableCpus()) {}

  std::size_t cellCount() const override { return kBroadcasts; }
  std::uint64_t unitsPerCell() const override { return 1; }
  int shards() const override { return shards_; }

  PassResult pass(Tracer& tracer, Metrics& counts) override {
    last_.reset();  // one million-node scenario alive at a time
    PassResult out;
    const auto t0 = Clock::now();
    std::unique_ptr<sim::Scenario> scenario;
    {
      const auto span = tracer.span("sim.scenario");
      scenario = std::make_unique<sim::Scenario>(sim::buildScenario(key_));
    }
    std::unique_ptr<sim::ShardedEngine> engine;
    {
      const auto span = tracer.span("sim.shard_setup");
      engine = std::make_unique<sim::ShardedEngine>(
          scenario->deployment, scenario->topology, shards_);
    }
    const auto t1 = Clock::now();
    std::vector<sim::RunResult> results;
    for (std::size_t k = 0; k < kBroadcasts; ++k) {
      results.push_back(
          broadcast(*engine, *scenario, k, tracer, "sim.shard_run"));
    }
    const auto t2 = Clock::now();
    engine.reset();
    out.setupSeconds = secondsBetween(t0, t1);
    out.runSeconds = secondsBetween(t1, t2);
    {
      const auto span = tracer.span("bench.digest");
      for (const sim::RunResult& result : results) {
        out.cells.push_back(digestRun(result));
      }
    }
    if (tracer.enabled()) {
      RunCounts runCounts;
      for (const sim::RunResult& result : results) runCounts.add(result);
      runCounts.addTo(counts);
      // No cache: one build, and a recorded zero so the probe's hits do
      // not stand in for this workload's.
      counts["sim.scenario_builds"] += 1;
      counts["sim.scenario_hits"] += 0;
      counts["sim.shard_workers"] = shards_;
    }
    last_ = std::move(scenario);
    return out;
  }

  /// The same broadcasts on a 1-shard engine (gate-free, reads the global
  /// rows) on the reference path, on the last pass's scenario.  Traced
  /// runs also time the 1-shard baseline on the timed passes' kernels,
  /// which must give the same digests.
  std::vector<std::size_t> verify(const std::vector<std::uint64_t>& reference,
                                  Tracer& tracer) override {
    if (!last_) {
      last_ = std::make_unique<sim::Scenario>(sim::buildScenario(key_));
    }
    std::vector<char> differs(kBroadcasts, 0);
    {
      const ReferencePath path;
      const auto span = tracer.span("sim.reference");
      sim::ShardedEngine engine(last_->deployment, last_->topology, 1);
      for (std::size_t k = 0; k < kBroadcasts; ++k) {
        const sim::RunResult result =
            broadcast(engine, *last_, k, tracer, "sim.reference_run");
        differs[k] |= digestRun(result) != reference.at(k);
      }
    }
    if (tracer.enabled()) {
      std::optional<sim::ShardedEngine> engine;
      {
        const auto span = tracer.span("sim.shard_setup_1");
        engine.emplace(last_->deployment, last_->topology, 1);
      }
      for (std::size_t k = 0; k < kBroadcasts; ++k) {
        const sim::RunResult result =
            broadcast(*engine, *last_, k, tracer, "sim.shard_run_1");
        differs[k] |= digestRun(result) != reference.at(k);
      }
    }
    last_.reset();
    return flagged(differs);
  }

  void layerPass(Tracer& tracer, Metrics& counts) override {
    last_.reset();
    const auto span = tracer.span("bench.layers");
    timeTopologyLayers(key_, tracer, counts);
  }

 private:
  static constexpr double kProbability = 0.6;
  static constexpr std::size_t kBroadcasts = 4;
  /// Protocol streams of the broadcasts after the first start here, far
  /// from the deployment streams a sweep's replications use.
  static constexpr std::uint64_t kStreamBase = 1ULL << 32;

  /// Broadcast `k` on `engine`, in a span named `spanName`.  The first
  /// continues the scenario's own RNG, as the CLI's broadcast does; the
  /// others each draw from a stream of their own.
  sim::RunResult broadcast(sim::ShardedEngine& engine,
                           const sim::Scenario& scenario, std::size_t k,
                           Tracer& tracer, const char* spanName) const {
    const auto span = tracer.span(spanName);
    protocols::ProbabilisticBroadcast protocol(kProbability);
    support::Rng rng = k == 0 ? scenario.protocolRng
                              : support::Rng::forStream(key_.seed,
                                                        kStreamBase + k);
    return engine.run(config_, protocol, rng);
  }

  sim::ExperimentConfig config_;
  sim::ScenarioKey key_;
  int shards_;
  std::unique_ptr<sim::Scenario> last_;
};

// ------------------------------------------------------- analytic_optimize

/// NetworkModel::optimize for the four Section 4.1 metrics at the seven
/// paper densities on the 0.01 grid, under CAM and CAM-CS.  The seed
/// draws the four constraints.
class AnalyticWorkload final : public Workload {
 public:
  explicit AnalyticWorkload(std::uint64_t seed) {
    std::uint64_t state = seed ^ 0xa7a1d71cULL;
    specs_ = {
        core::MetricSpec::reachabilityUnderLatency(4.0 + 2.0 * uniform(state)),
        core::MetricSpec::latencyUnderReachability(0.55 +
                                                   0.1 * uniform(state)),
        core::MetricSpec::energyUnderReachability(0.55 + 0.1 * uniform(state)),
        core::MetricSpec::reachabilityUnderEnergy(30.0 +
                                                  10.0 * uniform(state)),
    };
  }

  std::size_t cellCount() const override {
    return kChannels * kPaperRhos.size() * specs_.size();
  }
  std::uint64_t unitsPerCell() const override { return 1; }

  PassResult pass(Tracer& tracer, Metrics& counts) override {
    analytic::MuTable& table = analytic::MuTable::global();
    PassResult out;
    std::vector<core::NetworkModel> models;
    std::vector<double> resets;
    {
      // The cold reset takes microseconds, too little for one reading to
      // be steady: it is timed kResets times, the first on the previous
      // pass's table, and the pass reports the median.
      const auto span = tracer.span("analytic.reset");
      for (int i = 0; i < kResets; ++i) {
        const auto r0 = Clock::now();
        table.clear();
        table.resetCounters();
        models = buildModels();
        resets.push_back(secondsBetween(r0, Clock::now()));
      }
    }
    const auto t1 = Clock::now();
    std::vector<std::optional<core::Optimum>> optima;
    for (const core::NetworkModel& model : models) {
      for (const core::MetricSpec& spec : specs_) {
        const auto span = tracer.span("analytic.optimize");
        optima.push_back(model.optimize(spec, grid_,
                                        analytic::RealKPolicy::Interpolate,
                                        /*parallel=*/true));
      }
    }
    const auto t2 = Clock::now();
    out.setupSeconds = median(resets);
    out.runSeconds = secondsBetween(t1, t2);
    {
      const auto span = tracer.span("bench.digest");
      for (const auto& best : optima) out.cells.push_back(digestOptimum(best));
    }
    if (tracer.enabled()) {
      counts["analytic.points"] += static_cast<double>(
          optima.size() * grid_.values().size());
      counts["analytic.mu_lookups"] += static_cast<double>(table.lookups());
      counts["analytic.mu_computes"] += static_cast<double>(table.computes());
    }
    return out;
  }

  /// Every cell again as a serial optimisation with the MuTable
  /// bypassed, so every mu / mu' comes straight from its closed form; the
  /// cells are spread over the pool.
  std::vector<std::size_t> verify(const std::vector<std::uint64_t>& reference,
                                  Tracer& tracer) override {
    const auto span = tracer.span("analytic.reference");
    analytic::MuTable& table = analytic::MuTable::global();
    table.setEnabled(false);
    const std::vector<core::NetworkModel> models = buildModels();
    std::vector<char> differs(cellCount(), 0);
    support::parallelFor(
        0, cellCount(),
        [&](std::size_t cell) {
          const auto best = models[cell / specs_.size()].optimize(
              specs_[cell % specs_.size()], grid_);
          differs[cell] = digestOptimum(best) != reference.at(cell);
        },
        /*chunk=*/1);
    table.setEnabled(true);
    return flagged(differs);
  }

 private:
  static constexpr std::size_t kChannels = 2;
  static constexpr int kResets = 64;

  std::vector<core::NetworkModel> buildModels() const {
    std::vector<core::NetworkModel> models;
    for (const core::CommModel& comm :
         {core::CommModel::collisionAware(),
          core::CommModel::carrierSenseAware(2.0)}) {
      for (const double rho : kPaperRhos) {
        models.push_back(paperModel(rho, comm));
      }
    }
    return models;
  }

  std::vector<core::MetricSpec> specs_;
  core::ProbabilityGrid grid_ = core::ProbabilityGrid::analytic();
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{
      "paper_sweep", "million_node", "sinr_capture", "analytic_optimize"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "paper_sweep") {
    return std::make_unique<SweepWorkload>(
        kPaperRhos, core::CommModel::collisionAware(), seed);
  }
  if (name == "sinr_capture") {
    return std::make_unique<SweepWorkload>(
        std::vector<double>{140.0}, core::CommModel::sinr(), seed);
  }
  if (name == "million_node") {
    return std::make_unique<MillionNodeWorkload>(seed);
  }
  if (name == "analytic_optimize") {
    return std::make_unique<AnalyticWorkload>(seed);
  }
  return nullptr;
}

void probeLayers(std::uint64_t seed, Tracer& tracer, Metrics& counts) {
  const auto span = tracer.span("bench.probe");
  const core::NetworkModel model =
      paperModel(140.0, core::CommModel::sinr());
  sim::ExperimentConfig config = model.experimentConfig();
  timeTopologyLayers(sim::ScenarioKey::forExperiment(config, seed, 0), tracer,
                     counts);

  // A short CAM sweep on the same geometry: 8 cached scenarios, 2 points.
  config.channel = net::ChannelModel::CollisionAware;
  sim::ScenarioCache cache;
  RunCounts runCounts;
  sim::MonteCarloConfig mc;
  mc.experiment = config;
  mc.seed = seed;
  mc.replications = 8;
  mc.cache = &cache;
  {
    const auto prebuild = tracer.span("sim.scenario");
    for (int rep = 0; rep < mc.replications; ++rep) {
      cache.getOrBuild(sim::ScenarioKey::forExperiment(
          config, seed, static_cast<std::uint64_t>(rep)));
    }
  }
  {
    const auto sweep = tracer.span("sim.sweep");
    sim::monteCarloSweep(
        mc, {pb(0.2), pb(0.6)},
        sweepExtractor(core::MetricSpec::reachabilityUnderLatency(5.0),
                       &runCounts));
  }
  runCounts.addTo(counts);
  counts["sim.scenario_builds"] += static_cast<double>(cache.misses());
  counts["sim.scenario_hits"] += static_cast<double>(cache.hits());

  // The sharded engine at nproc shards, then on one shard.
  const auto scenario =
      cache.getOrBuild(sim::ScenarioKey::forExperiment(config, seed, 0));
  const int engineShards = usableCpus();
  std::optional<sim::ShardedEngine> engine;
  {
    const auto setup = tracer.span("sim.shard_setup");
    engine.emplace(scenario->deployment, scenario->topology, engineShards);
  }
  protocols::ProbabilisticBroadcast protocol(0.6);
  {
    const auto run = tracer.span("sim.shard_run");
    support::Rng rng = scenario->protocolRng;
    engine->run(config, protocol, rng);
  }
  engine.emplace(scenario->deployment, scenario->topology, 1);
  {
    const auto run = tracer.span("sim.shard_run_1");
    support::Rng rng = scenario->protocolRng;
    engine->run(config, protocol, rng);
  }
  counts["sim.shard_workers"] = engineShards;

  // One optimisation, counted against the MuTable's counters.
  analytic::MuTable& table = analytic::MuTable::global();
  const std::uint64_t lookups = table.lookups();
  const std::uint64_t computes = table.computes();
  {
    const auto optimize = tracer.span("analytic.optimize");
    paperModel(60.0, core::CommModel::collisionAware())
        .optimize(core::MetricSpec::reachabilityUnderLatency(5.0),
                  core::ProbabilityGrid::analytic(),
                  analytic::RealKPolicy::Interpolate, /*parallel=*/true);
  }
  counts["analytic.points"] += static_cast<double>(
      core::ProbabilityGrid::analytic().values().size());
  counts["analytic.mu_lookups"] +=
      static_cast<double>(table.lookups() - lookups);
  counts["analytic.mu_computes"] +=
      static_cast<double>(table.computes() - computes);
}

}  // namespace nsbench
