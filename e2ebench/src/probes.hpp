// Layer probes for the traced run: each probe calls one layer's public
// entry point directly on the workload's own inputs, inside a span named
// after that call, so the per-layer metrics come from the same graphs,
// netlists and requests the end-to-end phases ran.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/result.hpp"
#include "common.hpp"
#include "library/resource.hpp"
#include "trace.hpp"

namespace e2e {

/// A synthesis target: a graph and its (latency, area) bounds.
struct GraphCase {
  const rchls::dfg::Graph* graph = nullptr;
  int latency_bound = 0;
  double area_bound = 0.0;
};

/// A gate-level target: a circuit component, or a graph elaborated under
/// a version policy, with the campaign trial count the workload uses.
struct NetlistCase {
  std::string component;                     ///< empty for graph targets
  const rchls::dfg::Graph* graph = nullptr;  ///< null for components
  std::string versions = "fastest";
  int width = 16;
  std::size_t trials = 1024;
};

struct ProbeInputs {
  const rchls::library::ResourceLibrary* library = nullptr;
  std::vector<GraphCase> graphs;
  std::size_t find_design_limit = 0;  ///< direct find_design calls
  std::size_t sweep_limit = 0;        ///< direct latency sweeps (2 points)
  std::vector<NetlistCase> netlists;
  /// The workload's requests and their cold results (index-aligned).
  const std::vector<rchls::api::Request>* requests = nullptr;
  const std::vector<rchls::api::Result>* results = nullptr;
  std::filesystem::path dir;  ///< probe scratch (the disk cache probe)
  std::uint64_t seed = 1;
};

/// Runs every probe (spans only; metrics are derived from the trace).
/// Adds the counters a span cannot carry (sweep points, gate x trials)
/// to `report.per_layer`.
void run_layer_probes(const ProbeInputs& in, Report& report);

/// Parses one find_design scenario per graph case (graph inline) and
/// times a small generate_corpus. For the workloads whose set-up does not
/// already parse and generate a corpus under those spans.
void run_scenario_probes(const ProbeInputs& in);

/// Starts a daemon over `cache_dir` (already holding every request's
/// result), warms each request once, then times Client::call per request
/// and call_stats. Adds serve.errors / serve.overflows of that daemon.
void run_serve_probe(const std::vector<rchls::api::Request>& requests,
                     const std::vector<std::string>& replies,
                     const std::filesystem::path& cache_dir,
                     const std::filesystem::path& socket_path,
                     std::size_t engine_jobs, Report& report, Gate& gate);

/// Turns the traced spans into the per-layer metrics: the mean duration
/// per call of each probed entry point.
void set_span_metrics(Report& report,
                      const std::vector<trace::NameStats>& rows);

}  // namespace e2e
