// corpus_serve: the seeded workload corpus (hundreds of small cases of
// all six request kinds, 8-40-node graphs) sent as wire requests to one
// in-process serve::Server on a unix socket, by closed-loop clients, in
// three phases with their own latency distributions:
//
//  cold       every request once: executes, stored to memory and disk;
//  warm       the same requests repeated: memory hits;
//  disk-warm  daemons restarted on the same cache directory, one pass
//             each: disk hits.
//
// The engines are light here, so api.wire, api.cache, api.disk_cache and
// serve carry most of the cost, and the cache is exercised by writes,
// memory reads and disk reads.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "library/resource.hpp"
#include "probes.hpp"
#include "scenario/parse.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "workload/corpus.hpp"

namespace e2e {

namespace api = rchls::api;
namespace fs = std::filesystem;
namespace scn = rchls::scenario;

namespace {

// Work per --seconds, sized on a 4-core x86 box (see synth_scale).
// Cold cases per second over all cold rounds, warm calls per second (as
// many disk-warm calls again), and the cold rounds, each on a daemon
// started over a fresh cache directory.
constexpr double kCasesPerSecond = 20.0;
constexpr double kWarmPerSecond = 320.0;
constexpr std::size_t kColdRounds = 2;

// The scenario action -> request mapping of scenario::run, for the one
// action each corpus case holds.
api::Request to_request(const scn::Scenario& s) {
  if (s.actions.size() != 1) throw rchls::Error("corpus case != 1 action");
  const auto& op = s.actions.front().op;
  if (const auto* a = std::get_if<scn::FindDesignAction>(&op)) {
    api::FindDesignRequest r;
    r.graph = s.graph.value();
    r.library = s.library;
    r.latency_bound = a->latency_bound;
    r.area_bound = a->area_bound;
    r.engine = a->engine;
    r.options = a->options;
    r.baseline_versions = a->baseline_versions;
    return r;
  }
  if (const auto* a = std::get_if<scn::SweepAction>(&op)) {
    api::SweepRequest r;
    r.graph = s.graph.value();
    r.library = s.library;
    r.axis = a->axis;
    r.latency_bounds = a->latency_bounds;
    r.area_bounds = a->area_bounds;
    r.options = a->options;
    return r;
  }
  if (const auto* a = std::get_if<scn::GridAction>(&op)) {
    api::GridRequest r;
    r.graph = s.graph.value();
    r.library = s.library;
    r.latency_bounds = a->latency_bounds;
    r.area_bounds = a->area_bounds;
    r.options = a->options;
    r.baseline_versions = a->baseline_versions;
    return r;
  }
  if (const auto* a = std::get_if<scn::InjectAction>(&op)) {
    api::InjectRequest r;
    r.component = a->component;
    r.width = a->width;
    r.trials = a->trials;
    r.seed = a->seed;
    r.gate = a->gate;
    return r;
  }
  if (const auto* a = std::get_if<scn::RankGatesAction>(&op)) {
    api::RankGatesRequest r;
    r.component = a->component;
    r.width = a->width;
    r.trials = a->trials;
    r.seed = a->seed;
    r.top = a->top;
    return r;
  }
  const auto& a = std::get<scn::StaAction>(op);
  api::StaRequest r;
  r.component = a.component;
  if (a.component.empty()) {
    r.graph = s.graph.value();
    r.library = s.library;
    r.versions = a.versions;
  }
  r.width = a.width;
  r.clock = a.clock;
  r.top_paths = a.top_paths;
  r.top = a.top;
  r.trials = a.trials;
  r.seed = a.seed;
  return r;
}

struct Inputs {
  std::vector<api::Request> requests;
  std::vector<std::string> payloads;  ///< wire request envelopes
};

// The case's scenario with its graph declared inline (the dfg text is
// valid inline scenario syntax), so set-up parses without file I/O.
std::string inline_scenario(const rchls::workload::CorpusCase& c) {
  if (c.dfg_filename.empty()) return c.scn_text;
  const std::string include = "graph @" + c.dfg_filename + "\n";
  std::string text = c.scn_text;
  std::size_t at = text.find(include);
  if (at == std::string::npos) {
    throw rchls::Error("corpus case " + c.name + " has no graph include");
  }
  return text.replace(at, include.size(), c.dfg_text);
}

Inputs make_inputs(const RunOptions& opts) {
  rchls::workload::CorpusConfig cc;
  cc.seed = opts.seed;
  cc.count = std::max<std::size_t>(
      60, static_cast<std::size_t>(kCasesPerSecond * opts.seconds /
                                       kColdRounds +
                                   0.5));
  std::vector<rchls::workload::CorpusCase> cases;
  {
    trace::Span span("workload.generate_corpus");
    cases = rchls::workload::generate_corpus(cc);
  }
  Inputs in;
  for (const auto& c : cases) {
    std::string text = inline_scenario(c);
    scn::Scenario s;
    {
      trace::Span span("scenario.parse_string");
      s = scn::parse_string(text);
    }
    in.requests.push_back(to_request(s));
    in.payloads.push_back(api::wire::encode(in.requests.back()));
  }
  return in;
}

rchls::serve::ServerOptions server_options(const RunOptions& opts,
                                           const ThreadBudget& budget) {
  rchls::serve::ServerOptions so;
  so.socket_path = (opts.work_dir / "d.sock").string();
  so.workers = budget.daemon_workers;
  so.session.jobs = budget.engine_jobs;
  so.session.cache_dir = (opts.work_dir / "cache").string();
  return so;
}

// One closed-loop pass over the requests: each client thread takes the
// next index, sends its payload and waits for the reply, which
// on_reply(client, index, reply, ms) checks or keeps. Returns each
// request's latency and the pass's wall time.
struct PassTimes {
  std::vector<double> ms;  ///< by request index
  double wall_ms = 0.0;
  void add_to(Phase& phase) const {
    for (std::size_t i = 0; i < ms.size(); ++i) phase.add(i, ms[i]);
  }
};

template <typename OnReply>
PassTimes closed_loop(std::vector<rchls::serve::Client>& clients,
                      const std::vector<std::string>& payloads,
                      OnReply on_reply) {
  std::atomic<std::size_t> next{0};
  PassTimes times;
  times.ms.assign(payloads.size(), 0.0);  // each slot written by one thread
  Clock::time_point t_phase = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next.fetch_add(1); i < payloads.size();
           i = next.fetch_add(1)) {
        trace::set_request(i + 1);
        Clock::time_point t0 = Clock::now();
        std::string reply;
        try {
          trace::Span span("serve.client.call_raw");
          reply = clients[c].call_raw(payloads[i]);
        } catch (const std::exception& e) {
          // Never equal to a result envelope: fails its byte check.
          reply = std::string("transport error: ") + e.what();
        }
        times.ms[i] = ms_since(t0);
        on_reply(c, i, reply, times.ms[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  times.wall_ms = ms_since(t_phase);
  return times;
}

std::vector<rchls::serve::Client> connect(const std::string& path,
                                          std::size_t n) {
  std::vector<rchls::serve::Client> clients;
  for (std::size_t c = 0; c < n; ++c) {
    clients.push_back(rchls::serve::Client::connect_unix(path));
  }
  return clients;
}

}  // namespace

Report run_corpus_serve(const RunOptions& opts, Gate& gate) {
  Report report;
  ThreadBudget& budget = report.budget;
  budget.nproc = rchls::parallel::hardware_jobs();
  // A closed-loop request occupies one runnable thread at a time (client,
  // connection reader or daemon worker); the engine pool gets the rest.
  budget.connections = std::min<std::size_t>(2, std::max<std::size_t>(
                                                    1, budget.nproc / 2));
  budget.callers = budget.connections;
  budget.daemon_workers = budget.connections;
  budget.engine_jobs =
      std::max<std::size_t>(1, budget.nproc - budget.callers);
  const rchls::serve::ServerOptions so = server_options(opts, budget);

  // Set-up: corpus generation, scenario parsing and daemon start,
  // kSetupRuns times; setup_s is the median and the last copy is
  // measured. The first cold round runs on that daemon's fresh cache
  // directory.
  Latencies setup;
  Inputs in;
  std::unique_ptr<rchls::serve::Server> server;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    server.reset();
    fs::remove_all(so.session.cache_dir);
    trace::Span span("setup.corpus_serve");
    Clock::time_point t0 = Clock::now();
    in = make_inputs(opts);
    server = std::make_unique<rchls::serve::Server>(so);
    setup.add(ms_since(t0));
  }
  report.end_to_end["setup_s"] = {setup.p50() / 1e3, "s"};
  const std::size_t n = in.requests.size();
  std::vector<Gate> gates(budget.connections);
  PhaseSummary phases;
  std::vector<std::string> cold(n);
  rchls::parallel::PoolStats pool0 = rchls::parallel::pool_stats();
  double serve_errors = 0.0, serve_overflows = 0.0;
  auto add_daemon_counters = [&](const rchls::serve::Server& s) {
    rchls::serve::ServeStats st = s.stats();
    serve_errors += static_cast<double>(st.errors);
    serve_overflows += static_cast<double>(st.overflows);
  };

  // Rounds: each starts a daemon over a fresh cache directory (the first
  // uses the set-up's), sends every case cold over one client, then
  // alternates warm passes on that daemon (memory hits) with disk-warm
  // passes on a daemon restarted over the same directory (disk hits).
  // The two daemons never serve at once.
  //
  // Cold uses one client, so no request waits behind another's execution
  // (executions serialize inside the daemon) and each latency is the
  // request's own. A request's CPU time is the process's (client, daemon
  // and pool) since the previous reply. Warm and disk-warm use every
  // connection. The first round's cold replies are checked against
  // in-process results below; every later reply must equal them byte
  // for byte.
  const std::size_t rounds = kColdRounds;
  const std::size_t warm_passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(kWarmPerSecond * opts.seconds /
                                  static_cast<double>(rounds * n)));
  phases.warm.concurrency = budget.connections;
  phases.disk.concurrency = budget.connections;
  double cold_cpu_ms = 0.0, cold_wall_ms = 0.0;
  std::uint64_t warm_executions = 0;
  std::uint64_t warm_hits = 0, warm_lookups = 0;
  std::uint64_t disk_hits = 0, disk_lookups = 0;
  rchls::serve::ServerOptions restart = so;
  restart.socket_path = (opts.work_dir / "r.sock").string();
  auto check = [&](const char* phase) {
    return [&, phase](std::size_t c, std::size_t i, std::string& reply,
                      double) {
      same_reply(gates[c], phase, cold[i], reply);
    };
  };
  gate.attempt(n * rounds * (1 + 2 * warm_passes));
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      server.reset();
      fs::remove_all(so.session.cache_dir);
      server = std::make_unique<rchls::serve::Server>(so);
    }
    {
      auto cold_client = connect(so.socket_path, 1);
      trace::Span phase("phase.cold");
      double cpu0 = process_cpu_ms();
      const double cpu_all = cpu0;
      PassTimes times = closed_loop(
          cold_client, in.payloads,
          [&](std::size_t c, std::size_t i, std::string& reply, double ms) {
            double cpu = process_cpu_ms();
            phases.cold.add(i, ms, cpu - cpu0);
            cpu0 = cpu;
            if (round == 0) {
              cold[i] = std::move(reply);
            } else {
              same_reply(gates[c], "cold", cold[i], reply);
            }
          });
      cold_cpu_ms += process_cpu_ms() - cpu_all;
      cold_wall_ms += times.wall_ms;
    }

    auto clients = connect(so.socket_path, budget.connections);
    const std::uint64_t exec0 = server->executions();
    for (std::size_t pass = 0; pass < warm_passes; ++pass) {
      {
        trace::Span phase("phase.warm");
        closed_loop(clients, in.payloads, check("warm"))
            .add_to(phases.warm);
      }
      {
        trace::Span phase("phase.disk_warm");
        rchls::serve::Server fresh(restart);
        auto fresh_clients = connect(restart.socket_path, budget.connections);
        closed_loop(fresh_clients, in.payloads, check("disk_warm"))
            .add_to(phases.disk);
        fresh_clients.clear();
        api::SharedSessionStats st = fresh.session_stats();
        disk_hits += st.disk_hits;
        disk_lookups += st.misses;
        warm_executions += fresh.executions();
        add_daemon_counters(fresh);
      }
    }
    warm_executions += server->executions() - exec0;
    clients.clear();
    api::SharedSessionStats st = server->session_stats();
    warm_hits += st.hits;
    warm_lookups += st.hits + st.misses;
    add_daemon_counters(*server);
  }
  server.reset();
  const double cold_cpu_per_wall =
      cold_wall_ms > 0 ? cold_cpu_ms / cold_wall_ms : 0.0;
  rchls::parallel::PoolStats pool = pool_delta(pool0,
                                               rchls::parallel::pool_stats());
  trace::set_request(0);
  for (const Gate& g : gates) gate.merge(g);
  if (warm_executions != 0) {
    gate.violate("warm/disk-warm phases executed " +
                 std::to_string(warm_executions) + " requests");
  }

  // The reference: every request computed in-process by a plain Session.
  // Cold serve replies must be byte-identical to it.
  Quality quality;
  std::vector<api::Result> results(n);
  {
    api::SessionOptions ref_opts;
    ref_opts.jobs = budget.engine_jobs;
    api::Session ref(ref_opts);
    for (std::size_t i = 0; i < n; ++i) {
      try {
        results[i] = ref.run(in.requests[i]);
      } catch (const std::exception& e) {
        gate.fail(std::string("reference: ") + e.what());
        continue;
      }
      if (!same_reply(gate, "cold", api::wire::encode(results[i]), cold[i])) {
        continue;
      }
      std::string why = check_result(in.requests[i], results[i]);
      if (!why.empty()) {
        gate.fail("cold: " + why);
        continue;
      }
      quality.add(in.requests[i], results[i]);
    }
  }

  set_phase_metrics(report, phases);
  report.end_to_end["reliability_geomean"] = {quality.geomean(), "ratio"};
  report.end_to_end["solved_ratio"] = {quality.solved_ratio(), "ratio"};
  auto& m = report.per_layer;
  m["api.cache.hit_ratio"] = {
      warm_lookups > 0 ? static_cast<double>(warm_hits) /
                             static_cast<double>(warm_lookups)
                       : 0.0,
      "ratio"};
  m["api.disk_cache.hit_ratio"] = {
      disk_lookups > 0 ? static_cast<double>(disk_hits) /
                             static_cast<double>(disk_lookups)
                       : 0.0,
      "ratio"};
  m["api.session.executions"] = {static_cast<double>(warm_executions),
                                 "count"};
  m["parallel.cpu_per_wall"] = {cold_cpu_per_wall, "ratio"};
  m["parallel.tasks_executed"] = {static_cast<double>(pool.tasks_executed),
                                  "count"};
  m["parallel.steals"] = {static_cast<double>(pool.steals), "count"};
  m["parallel.idle_wakeups"] = {static_cast<double>(pool.idle_wakeups),
                                "count"};
  m["parallel.full_retries"] = {static_cast<double>(pool.full_retries),
                                "count"};
  m["serve.errors"] = {serve_errors, "count"};
  m["serve.overflows"] = {serve_overflows, "count"};
  report.detail.set(
      "inputs", rchls::json::Value::object()
                    .set("cases", static_cast<std::uint64_t>(n))
                    .set("rounds", static_cast<std::uint64_t>(rounds))
                    .set("warm_passes_per_round",
                         static_cast<std::uint64_t>(warm_passes))
                    .set("solved_points", quality.solved)
                    .set("points", quality.points));

  if (opts.trace) {
    const auto lib = rchls::library::paper_library();
    ProbeInputs probe;
    probe.library = &lib;
    std::vector<const rchls::dfg::Graph*> graphs;
    for (const auto& req : in.requests) {
      std::visit(
          [&](const auto& r) {
            using R = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<R, api::FindDesignRequest> ||
                          std::is_same_v<R, api::SweepRequest> ||
                          std::is_same_v<R, api::GridRequest>) {
              graphs.push_back(&r.graph);
            } else if constexpr (std::is_same_v<R, api::RankGatesRequest>) {
              probe.netlists.push_back(
                  {r.component, nullptr, "fastest", r.width, r.trials});
            } else if constexpr (std::is_same_v<R, api::StaRequest>) {
              if (r.graph) {
                probe.netlists.push_back(
                    {"", &*r.graph, r.versions, r.width, r.trials});
              } else {
                probe.netlists.push_back(
                    {r.component, nullptr, "fastest", r.width, r.trials});
              }
            } else {
              probe.netlists.push_back(
                  {r.component, nullptr, "fastest", r.width, r.trials});
            }
          },
          req);
    }
    for (const auto* g : graphs) {
      std::size_t depth = depth_of(*g);
      std::size_t lat = depth + depth / 4 + 2;
      probe.graphs.push_back({g, static_cast<int>(lat),
                              comfortable_area(*g, lat)});
    }
    probe.find_design_limit = probe.graphs.size();
    probe.sweep_limit = std::min<std::size_t>(32, probe.graphs.size());
    probe.netlists.resize(std::min<std::size_t>(60, probe.netlists.size()));
    probe.requests = &in.requests;
    probe.results = &results;
    probe.dir = opts.work_dir / "probe";
    probe.seed = opts.seed;
    run_layer_probes(probe, report);
    run_serve_probe(in.requests, cold, so.session.cache_dir,
                    opts.work_dir / "p.sock", budget.engine_jobs, report,
                    gate);
  }
  return report;
}

}  // namespace e2e
