// ser_campaign: cold inject, rank_gates and sta requests on arithmetic
// components (16-64 bits) and on elaborated 32-64-node graphs, through an
// in-process api::Session, then warm and disk-warm replays. Trial counts
// come both within one partition chunk (<= 1024, where a campaign runs
// on one thread) and across several, so the circuits, netlist, ser, sta
// and parallel layers do the work; sched barely runs (three small
// find_design requests per turn of the slots give the quality-of-result
// metrics).
#include <algorithm>
#include <string_view>

#include "dfg/generate.hpp"
#include "inproc.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace e2e {

namespace api = rchls::api;

namespace {

// One request shape per slot, taken in turn. `component` empty = the
// slot's generated graph is the target. The slots are ordered by cost:
// 9 cheap ones (< 4 ms), 5 identical single-chunk rankings (~5 ms, one
// thread, so their time does not hang on pool wake-ups) and 7 costlier
// ones (> 9 ms). The central latency (48th to 52nd percentile) then
// falls inside the identical slots' costs, and the tail (the slowest
// tenth) inside those of the costliest three, which are the same
// leapfrog ranking. The three find_design slots feed the quality-of-
// result metrics.
struct Slot {
  const char* kind;
  const char* component;
  int width;
  std::size_t trials;
};
constexpr Slot kSlots[] = {
    {"inject", "kogge_stone_adder", 32, 1024},
    {"find_design", "", 0, 0},
    {"inject", "ripple_carry_adder", 64, 64 * 1024},
    {"rank_gates", "brent_kung_adder", 16, 1024},
    {"find_design", "", 0, 0},
    {"sta", "kogge_stone_adder", 16, 1024},
    {"inject", "carry_save_multiplier", 16, 16 * 1024},
    {"find_design", "", 0, 0},
    {"rank_gates", "ripple_carry_adder", 32, 4096},
    {"rank_gates", "kogge_stone_adder", 64, 1024},
    {"rank_gates", "kogge_stone_adder", 64, 1024},
    {"rank_gates", "kogge_stone_adder", 64, 1024},
    {"rank_gates", "kogge_stone_adder", 64, 1024},
    {"rank_gates", "kogge_stone_adder", 64, 1024},
    {"inject", "carry_save_multiplier", 32, 64 * 1024},
    {"rank_gates", "", 2, 1024},
    {"sta", "", 2, 4096},
    {"rank_gates", "kogge_stone_adder", 64, 8192},
    {"rank_gates", "leapfrog_multiplier", 16, 1024},
    {"rank_gates", "leapfrog_multiplier", 16, 1024},
    {"rank_gates", "leapfrog_multiplier", 16, 1024},
};
constexpr std::size_t kSlotCount = std::size(kSlots);
constexpr std::size_t kNetlistSlots =
    kSlotCount - static_cast<std::size_t>(std::count_if(
                     std::begin(kSlots), std::end(kSlots), [](const Slot& s) {
                       return std::string_view(s.kind) == "find_design";
                     }));
constexpr std::size_t kGraphSizes[] = {32, 40, 48, 56, 64};

// Work per --seconds, sized on a 4-core x86 box (see synth_scale).
constexpr double kColdPerSecond = 34.2;
constexpr double kWarmPerSecond = 1152.0;
constexpr std::size_t kColdRounds = 12;

struct Inputs {
  std::vector<rchls::dfg::Graph> graphs;  ///< one per request (unused
                                          ///< by component slots)
  InProcessPlan plan;
  std::vector<GraphCase> cases;
  std::vector<NetlistCase> netlists;
};

Inputs make_inputs(const RunOptions& opts) {
  Inputs in;
  const auto lib = rchls::library::paper_library();
  // Whole turns of the slots.
  std::size_t n =
      kSlotCount *
      std::max<std::size_t>(
          1, static_cast<std::size_t>(kColdPerSecond * opts.seconds /
                                          (kColdRounds * kSlotCount) +
                                      0.5));
  in.graphs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& slot = kSlots[i % kSlotCount];
    rchls::dfg::GeneratorConfig gc;
    gc.num_nodes = kGraphSizes[i % std::size(kGraphSizes)];
    gc.seed = derive(opts.seed, 2 * i);
    gc.layer_width = 4.0;
    gc.mul_fraction = 0.25;
    in.graphs.push_back(rchls::dfg::generate_random(gc));
    const rchls::dfg::Graph& g = in.graphs.back();
    std::uint64_t campaign_seed = derive(opts.seed, 2 * i + 1);
    std::string kind = slot.kind;
    bool on_graph = slot.component[0] == '\0';

    if (kind == "find_design") {
      std::size_t depth = depth_of(g);
      std::size_t lat = depth + depth / 4 + 2;
      api::FindDesignRequest req;
      req.graph = g;
      req.library = lib;
      req.latency_bound = static_cast<int>(lat);
      // Loose enough that every seed's graphs solve: this slot only feeds
      // the quality-of-result metrics.
      req.area_bound = 1.5 * comfortable_area(g, lat);
      in.cases.push_back({&g, req.latency_bound, req.area_bound});
      in.plan.requests.emplace_back(std::move(req));
      continue;
    }
    if (on_graph) {
      in.netlists.push_back({"", &g, "fastest", slot.width, slot.trials});
    } else {
      in.netlists.push_back(
          {slot.component, nullptr, "fastest", slot.width, slot.trials});
    }
    if (kind == "inject") {
      api::InjectRequest req;
      req.component = slot.component;
      req.width = slot.width;
      req.trials = slot.trials;
      req.seed = campaign_seed;
      in.plan.requests.emplace_back(std::move(req));
    } else if (kind == "rank_gates") {
      api::RankGatesRequest req;
      req.component = slot.component;
      if (on_graph) {
        req.graph = g;
        req.library = lib;
      }
      req.width = slot.width;
      req.trials = slot.trials;
      req.seed = campaign_seed;
      in.plan.requests.emplace_back(std::move(req));
    } else {
      api::StaRequest req;
      req.component = slot.component;
      if (on_graph) {
        req.graph = g;
        req.library = lib;
      }
      req.width = slot.width;
      req.trials = slot.trials;
      req.seed = campaign_seed;
      in.plan.requests.emplace_back(std::move(req));
    }
  }
  in.plan.rounds = kColdRounds;
  in.plan.warm_passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(kWarmPerSecond * opts.seconds /
                                  static_cast<double>(kColdRounds * n)));
  return in;
}

}  // namespace

Report run_ser_campaign(const RunOptions& opts, Gate& gate) {
  Report report;
  report.budget.nproc = rchls::parallel::hardware_jobs();
  report.budget.callers = 1;
  report.budget.engine_jobs =
      std::max<std::size_t>(1, report.budget.nproc - report.budget.callers);

  Latencies setup;
  Inputs in;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    trace::Span span("setup.ser_campaign");
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
    probe.find_design_limit = in.cases.size();
    probe.sweep_limit = std::min<std::size_t>(4, in.cases.size());
    // One full turn of the slots: every target shape and trial count.
    probe.netlists.assign(
        in.netlists.begin(),
        in.netlists.begin() +
            static_cast<long>(std::min(in.netlists.size(), kNetlistSlots)));
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
