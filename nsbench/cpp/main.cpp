// nsbench: the end-to-end, layer-aware benchmark of nsmodel.
//
//   nsbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// Runs cold passes of one workload until S seconds have passed (and at
// least a minimum number of passes ran), checks every pass's output
// digests against the first pass and the first pass against an
// independent recomputation, and prints one JSON result as the last line
// of stdout.  --trace 0 reports the end-to-end metrics, measured with
// tracing off.  --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics from the traced ones, plus the tracing
// overhead, and writes the spans at exit to DIR/<workload>-<seed>.jsonl
// when --spans-dir is given.
// Malformed arguments exit 2 without a result.  See README.md.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "support/resource.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace nsbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0.
const std::vector<MetricDef> kEndToEnd{
    {"wall_s", "s"},      {"setup_s", "s"},         {"run_s", "s"},
    {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
};

/// Reported with --trace 1.
const std::vector<MetricDef> kPerLayer{
    {"geom.deploy_s", "s"},
    {"geom.grid_s", "s"},
    {"net.adjacency_s", "s"},
    {"net.adjacency_edges", "count"},
    {"net.adjacency_ns_per_edge", "ns"},
    {"net.gain_csr_s", "s"},
    {"net.gain_edges", "count"},
    {"net.gain_ns_per_edge", "ns"},
    {"net.csr_mb", "MB"},
    {"sim.scenario_s", "s"},
    {"sim.scenario_builds", "count"},
    {"sim.scenario_hits", "count"},
    {"sim.sweep_s", "s"},
    {"sim.runs", "count"},
    {"sim.transmissions", "count"},
    {"sim.attempted_pairs", "count"},
    {"sim.delivered_pairs", "count"},
    {"sim.delivery_ratio", "ratio"},
    {"sim.ns_per_attempted_pair", "ns"},
    {"sim.shard_setup_s", "s"},
    {"sim.shard_run_s", "s"},
    {"sim.shard_run_1_s", "s"},
    {"sim.shard_speedup", "ratio"},
    {"sim.shard_workers", "count"},
    {"analytic.optimize_s", "s"},
    {"analytic.points", "count"},
    {"analytic.mu_lookups", "count"},
    {"analytic.mu_computes", "count"},
    {"self.bench_s", "s"},
    {"self.geom_s", "s"},
    {"self.net_s", "s"},
    {"self.sim_s", "s"},
    {"self.analytic_s", "s"},
    {"trace.overhead_s", "s"},
};

// Pass ids of the spans recorded outside the timed passes.
constexpr int kVerifyOp = -1;
constexpr int kLayerOp = -2;
constexpr int kProbeOp = -3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spansDir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "nsbench: %s\n"
               "usage: nsbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-dir DIR]\n"
               "workloads:",
               problem.c_str());
  for (const std::string& name : workloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& text,
                            std::uint64_t max) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || value > max) usage(flag + " is out of range");
  return value;
}

Options parseOptions(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans-dir") {
      usage("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    if (!given.emplace(flag, argv[i + 1]).second) usage(flag + " given twice");
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (given.count(required) == 0) {
      usage(std::string(required) + " is required");
    }
  }
  options.workload = given["--workload"];
  if (std::find(workloadNames().begin(), workloadNames().end(),
                options.workload) == workloadNames().end()) {
    usage("unknown workload '" + options.workload + "'");
  }
  options.seed = parseUnsigned("--seed", given["--seed"], UINT64_MAX);
  options.seconds =
      static_cast<int>(parseUnsigned("--seconds", given["--seconds"], 3600));
  if (options.seconds < 1) usage("--seconds must be at least 1");
  const std::string trace = given["--trace"];
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  if (given.count("--spans-dir") != 0) {
    options.spansDir = given["--spans-dir"];
    if (options.spansDir.empty()) usage("--spans-dir needs a directory");
  }
  return options;
}

/// Span totals, self times and counts of pass `op`, with the ratios
/// derived from them.
Metrics layerMetrics(const Tracer& tracer, int op, const Metrics& counts) {
  Metrics m = counts;
  for (const Span& span : tracer.spans()) {
    if (span.op == op) m[span.name + "_s"] += span.end - span.start;
  }
  for (const auto& [layer, seconds] : tracer.selfSeconds(op)) {
    m["self." + layer + "_s"] = seconds;
  }
  // Derived ratios; lookups must not insert, or a zero placeholder here
  // would shadow the real value from a later source in fillMissing.
  const auto get = [&m](const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto ratio = [&m, &get](const char* out, const char* num,
                                const char* den, double scale) {
    if (m.count(num) != 0 && get(den) > 0) m[out] = get(num) * scale / get(den);
  };
  ratio("net.adjacency_ns_per_edge", "net.adjacency_s", "net.adjacency_edges",
        1e9);
  ratio("net.gain_ns_per_edge", "net.gain_csr_s", "net.gain_edges", 1e9);
  ratio("sim.ns_per_attempted_pair",
        m.count("sim.sweep_s") != 0 ? "sim.sweep_s" : "sim.shard_run_s",
        "sim.attempted_pairs", 1e9);
  ratio("sim.delivery_ratio", "sim.delivered_pairs", "sim.attempted_pairs",
        1.0);
  return m;
}

/// Adds the entries of `from` that `into` lacks.
void fillMissing(Metrics& into, const Metrics& from) {
  for (const auto& [name, value] : from) into.emplace(name, value);
}

struct Pass {
  int op = 0;
  bool traced = false;
  double setup = 0.0;
  double run = 0.0;
  std::vector<std::uint64_t> cells;
  Metrics counts;
};

void printMetric(bool& first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

int run(const Options& options) {
  const auto workload = makeWorkload(options.workload, options.seed);
  Tracer tracer(false);
  std::vector<Pass> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t unitsPerPass =
      workload->cellCount() * workload->unitsPerCell();

  // Untraced runs take at least 3 passes (a median needs them).  Traced
  // runs alternate untraced and traced passes, starting untraced, with at
  // least 2 traced ones and 2 untraced ones after the first, whose cold
  // process makes it slower (see README.md).
  const int minPasses = options.trace ? 5 : 3;
  double peakRssMb = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::seconds(options.seconds);
  for (int op = 0; op < minPasses || Clock::now() < deadline; ++op) {
    const bool traced = options.trace && op % 2 == 1;
    tracer.setEnabled(traced);
    tracer.setOp(op);
    Pass pass;
    pass.op = op;
    pass.traced = traced;
    attempted += unitsPerPass;
    try {
      const auto root = tracer.span("bench.pass");
      PassResult result = workload->pass(tracer, pass.counts);
      pass.setup = result.setupSeconds;
      pass.run = result.runSeconds;
      pass.cells = std::move(result.cells);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "nsbench: pass %d failed: %s\n", op, error.what());
      failed += unitsPerPass;
      tracer.setEnabled(false);
      continue;
    }
    tracer.setEnabled(false);
    passes.push_back(std::move(pass));
    // The peak a single cold invocation reaches; later passes would only
    // add allocator fragmentation that no one-shot user sees.
    if (passes.size() == 1) peakRssMb = nsmodel::support::peakRssMb();
  }
  if (passes.empty()) {
    std::fprintf(stderr, "nsbench: no pass completed\n");
    return 1;
  }

  // Every pass must reproduce the first, cell by cell, and the first
  // must match an independent recomputation of some of its cells.
  const std::vector<std::uint64_t>& reference = passes.front().cells;
  tracer.setEnabled(options.trace);
  tracer.setOp(kVerifyOp);
  const std::vector<std::size_t> wrong = workload->verify(reference, tracer);
  for (const Pass& pass : passes) {
    for (std::size_t c = 0; c < reference.size(); ++c) {
      const bool flagged =
          std::find(wrong.begin(), wrong.end(), c) != wrong.end();
      if (flagged || pass.cells.at(c) != reference[c]) {
        failed += workload->unitsPerCell();
      }
    }
  }

  // End-to-end numbers come from the untraced passes only.
  std::vector<double> walls[2];
  std::vector<double> setups;
  std::vector<double> runs;
  for (const Pass& pass : passes) {
    walls[pass.traced].push_back(pass.setup + pass.run);
    if (!pass.traced) {
      setups.push_back(pass.setup);
      runs.push_back(pass.run);
    }
  }
  const double wall = median(walls[0]);
  const std::vector<MetricDef>* defs = &kEndToEnd;
  Metrics values{
      {"wall_s", wall},
      {"setup_s", median(setups)},
      {"run_s", median(runs)},
      {"peak_rss_mb", peakRssMb},
      {"ops_per_s", static_cast<double>(unitsPerPass) / wall},
  };
  if (options.trace) {
    // Per-layer numbers: medians over the traced passes, then what the
    // reference check and the layer pass measured, then the probe for
    // layers this workload never calls.
    defs = &kPerLayer;
    std::map<std::string, std::vector<double>> series;
    for (const Pass& pass : passes) {
      if (!pass.traced) continue;
      for (const auto& [name, value] :
           layerMetrics(tracer, pass.op, pass.counts)) {
        series[name].push_back(value);
      }
    }
    values.clear();
    for (const auto& [name, samples] : series) values[name] = median(samples);
    tracer.setEnabled(true);
    tracer.setOp(kLayerOp);
    Metrics layerCounts;
    workload->layerPass(tracer, layerCounts);
    tracer.setOp(kProbeOp);
    Metrics probeCounts;
    probeLayers(options.seed, tracer, probeCounts);
    tracer.setEnabled(false);
    fillMissing(values, layerMetrics(tracer, kVerifyOp, {}));
    fillMissing(values, layerMetrics(tracer, kLayerOp, layerCounts));
    fillMissing(values, layerMetrics(tracer, kProbeOp, probeCounts));
    values["sim.shard_speedup"] =
        values.at("sim.shard_run_1_s") / values.at("sim.shard_run_s");
    const auto warm = walls[0].begin() + (walls[0].size() > 1 ? 1 : 0);
    values["trace.overhead_s"] =
        median(walls[1]) - median(std::vector<double>(warm, walls[0].end()));
    if (!options.spansDir.empty()) {
      tracer.write(options.spansDir + "/" + options.workload + "-" +
                   std::to_string(options.seed) + ".jsonl");
    }
  }

  std::uint64_t digest = 1469598103934665603ULL;
  for (const std::uint64_t cell : reference) {
    digest = (digest ^ cell) * 1099511628211ULL;
  }
  std::printf("nsbench host %s\n", hostJson(workload->shards()).c_str());
  std::printf("nsbench digest %s seed=%llu %016llx\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(digest));
  std::printf("nsbench passes, set-up+run seconds (traced marked *):");
  for (const Pass& pass : passes) {
    std::printf(" %.4f+%.4f%s", pass.setup, pass.run, pass.traced ? "*" : "");
  }
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const MetricDef& def : *defs) {
    printMetric(first, def.name, values.at(def.name), def.unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace nsbench

int main(int argc, char** argv) {
  const nsbench::Options options = nsbench::parseOptions(argc, argv);
  try {
    return nsbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nsbench: %s\n", error.what());
    return 1;
  }
}
