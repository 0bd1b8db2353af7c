// synth_scale: cold find_design and latency/area sweep requests on
// seeded layered graphs of 128-512 nodes, through an in-process
// api::Session, then warm (memory) and disk-warm replays of the same
// requests. sched::density_schedule dominates find_design at this size,
// so the scheduler, dfg, bind and hls layers do most of the work; the
// warm replays price the cache key on large graphs.
#include <algorithm>

#include "dfg/generate.hpp"
#include "inproc.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace e2e {

namespace api = rchls::api;

namespace {

// Graph sizes spread evenly over [kMinNodes, kMaxNodes] by a golden-ratio
// sequence: every seed gets the same sizes, in an order that mixes small
// and large, and the latency distribution has no gaps for its median to
// jump across.
constexpr std::size_t kMinNodes = 128;
constexpr std::size_t kMaxNodes = 512;

std::size_t size_of(std::size_t i) {
  double frac = static_cast<double>(i) * 0.6180339887498949;
  frac -= static_cast<double>(static_cast<std::size_t>(frac));
  return kMinNodes +
         static_cast<std::size_t>(frac * static_cast<double>(kMaxNodes -
                                                             kMinNodes));
}

// Work per --seconds, sized on a 4-core x86 box so the cold runs and the
// warm / disk-warm passes each take about 40% of the run: cold
// executions per second, warm calls per second (as many disk-warm calls
// again), and the cold rounds the requests run in. A request's best cold
// run is the least of its kColdRounds executions.
constexpr double kColdPerSecond = 6.0;
constexpr double kWarmPerSecond = 320.0;
constexpr std::size_t kColdRounds = 3;

struct Inputs {
  std::vector<rchls::dfg::Graph> graphs;
  InProcessPlan plan;
  std::vector<GraphCase> cases;
};

Inputs make_inputs(const RunOptions& opts) {
  Inputs in;
  const auto lib = rchls::library::paper_library();
  std::size_t n = std::max<std::size_t>(
      8, static_cast<std::size_t>(kColdPerSecond * opts.seconds /
                                      kColdRounds +
                                  0.5));
  in.graphs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rchls::dfg::GeneratorConfig gc;
    gc.num_nodes = size_of(i);
    gc.seed = derive(opts.seed, i);
    gc.layer_width = 8.0;  // wide layers: resource contention dominates
    gc.mul_fraction = 0.25;
    in.graphs.push_back(rchls::dfg::generate_random(gc));
    const rchls::dfg::Graph& g = in.graphs.back();

    std::size_t depth = depth_of(g);
    std::size_t lat = depth + depth / 4 + 2;
    double area = comfortable_area(g, lat);
    in.cases.push_back({&in.graphs.back(), static_cast<int>(lat), area});
    switch (i % 4) {
      case 0:
      case 2: {
        api::FindDesignRequest req;
        req.graph = g;
        req.library = lib;
        req.latency_bound = static_cast<int>(lat);
        req.area_bound = area;
        in.plan.requests.emplace_back(std::move(req));
        break;
      }
      case 1: {  // comfortable and loose latency at a fixed area
        api::SweepRequest req;
        req.graph = g;
        req.library = lib;
        req.axis = api::SweepAxis::kLatency;
        req.latency_bounds = {static_cast<int>(lat),
                              static_cast<int>(lat + depth / 4)};
        req.area_bounds = {area};
        in.plan.requests.emplace_back(std::move(req));
        break;
      }
      default: {  // comfortable and loose area at a fixed latency
        api::SweepRequest req;
        req.graph = g;
        req.library = lib;
        req.axis = api::SweepAxis::kArea;
        req.latency_bounds = {static_cast<int>(lat)};
        req.area_bounds = {area, area * 1.25};
        in.plan.requests.emplace_back(std::move(req));
        break;
      }
    }
  }
  // The cases point into `graphs`, which no longer grows.
  for (std::size_t i = 0; i < n; ++i) in.cases[i].graph = &in.graphs[i];
  in.plan.rounds = kColdRounds;
  in.plan.warm_passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(kWarmPerSecond * opts.seconds /
                                  static_cast<double>(kColdRounds * n)));
  return in;
}

}  // namespace

Report run_synth_scale(const RunOptions& opts, Gate& gate) {
  Report report;
  report.budget.nproc = rchls::parallel::hardware_jobs();
  report.budget.callers = 1;
  report.budget.engine_jobs =
      std::max<std::size_t>(1, report.budget.nproc - report.budget.callers);

  // Set-up (graph generation and request building) runs several times;
  // setup_s is the median, the last copy is the one measured.
  Latencies setup;
  Inputs in;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    trace::Span span("setup.synth_scale");
    Clock::time_point t0 = Clock::now();
    in = make_inputs(opts);
    setup.add(ms_since(t0));
  }
  report.end_to_end["setup_s"] = {setup.p50() / 1e3, "s"};

  InProcessRun run = run_in_process(in.plan, opts.work_dir / "cache",
                                    report.budget.engine_jobs, gate);
  set_phase_metrics(report, run.phases);
  report.end_to_end["reliability_geomean"] = {run.quality.geomean(), "ratio"};
  report.end_to_end["solved_ratio"] = {run.quality.solved_ratio(), "ratio"};
  set_in_process_counters(report, run);
  report.detail.set(
      "inputs",
      rchls::json::Value::object()
          .set("requests", static_cast<std::uint64_t>(in.plan.requests.size()))
          .set("rounds", static_cast<std::uint64_t>(in.plan.rounds))
          .set("warm_passes_per_round",
               static_cast<std::uint64_t>(in.plan.warm_passes))
          .set("solved_points", run.quality.solved)
          .set("points", run.quality.points));

  if (opts.trace) {
    const auto lib = rchls::library::paper_library();
    ProbeInputs probe;
    probe.library = &lib;
    probe.graphs = in.cases;
    probe.find_design_limit = 8;
    probe.sweep_limit = 3;
    // The components the paper library's versions are built from, and the
    // smallest graph elaborated gate by gate.
    for (const char* c : {"ripple_carry_adder", "brent_kung_adder",
                          "kogge_stone_adder", "carry_save_multiplier",
                          "leapfrog_multiplier"}) {
      probe.netlists.push_back({c, nullptr, "fastest", 16, 1024});
    }
    probe.netlists.push_back({"", &in.graphs.front(), "fastest", 4, 1024});
    probe.requests = &in.plan.requests;
    probe.results = &run.results;
    probe.dir = opts.work_dir / "probe";
    probe.seed = opts.seed;
    run_layer_probes(probe, report);
    run_scenario_probes(probe);
    run_serve_probe(in.plan.requests, run.replies, opts.work_dir / "cache",
                    opts.work_dir / "p.sock", report.budget.engine_jobs,
                    report, gate);
  }
  return report;
}

}  // namespace e2e
