#include "probes.hpp"

#include <map>
#include <sstream>

#include "api/cache.hpp"
#include "api/disk_cache.hpp"
#include "api/wire.hpp"
#include "bind/left_edge.hpp"
#include "circuits/components.hpp"
#include "dfg/io.hpp"
#include "hls/design.hpp"
#include "hls/explore.hpp"
#include "hls/find_design.hpp"
#include "netlist/topology.hpp"
#include "scenario/parse.hpp"
#include "sched/density.hpp"
#include "ser/characterize.hpp"
#include "ser/fault_injection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sta/delay_model.hpp"
#include "sta/design.hpp"
#include "sta/sensitivity.hpp"
#include "sta/timing.hpp"
#include "util/error.hpp"
#include "workload/corpus.hpp"

namespace e2e {

namespace api = rchls::api;
namespace fs = std::filesystem;

namespace {

// Calls too short for one clock read to resolve are repeated inside
// their span loop this many times (each repetition is its own span).
constexpr int kMicroRepeats = 5;

void probe_graphs(const ProbeInputs& in, Report& report) {
  const auto& lib = *in.library;
  for (const GraphCase& gc : in.graphs) {
    const rchls::dfg::Graph& g = *gc.graph;
    for (int r = 0; r < kMicroRepeats; ++r) {
      trace::Span span("dfg.topological_order");
      auto order = g.topological_order();
      (void)order;
    }
    // The paper's initial allocation (every operation at its most
    // reliable version) scheduled at the request's latency bound, or at
    // its ASAP length when the bound is tighter than that.
    std::vector<rchls::library::VersionId> versions =
        rchls::sta::versions_for(g, lib, "most_reliable");
    std::vector<int> delays = rchls::hls::delays_for(g, lib, versions);
    std::vector<int> groups = rchls::hls::class_groups(g);
    std::vector<int> finish(g.node_count(), 0);
    int asap = 0;
    for (rchls::dfg::NodeId id : g.topological_order()) {
      int start = 0;
      for (rchls::dfg::NodeId p : g.predecessors(id)) {
        start = std::max(start, finish[p]);
      }
      finish[id] = start + delays[id];
      asap = std::max(asap, finish[id]);
    }
    int latency = std::max(asap, gc.latency_bound);
    rchls::sched::Schedule s;
    {
      trace::Span span("sched.density_schedule");
      s = rchls::sched::density_schedule(g, delays, latency, groups);
    }
    {
      trace::Span span("bind.left_edge_bind");
      auto b = rchls::bind::left_edge_bind(g, lib, versions, s);
      (void)b;
    }
  }

  double sweep_points = 0.0;
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    const GraphCase& gc = in.graphs[i];
    if (i < in.find_design_limit) {
      trace::Span span("hls.find_design");
      try {
        auto d = rchls::hls::find_design(*gc.graph, lib, gc.latency_bound,
                                         gc.area_bound);
        (void)d;
      } catch (const rchls::NoSolutionError&) {
        // Unsolvable bounds are a result, timed like any other.
      }
    }
    if (i < in.sweep_limit) {
      trace::Span span("hls.latency_sweep");
      auto pts = rchls::hls::latency_sweep(
          *gc.graph, lib, {gc.latency_bound, gc.latency_bound + 2},
          gc.area_bound);
      sweep_points += static_cast<double>(pts.size());
    }
  }
  report.per_layer["hls.sweep_points"] = {sweep_points, "count"};
}

void probe_netlists(const ProbeInputs& in, Report& report) {
  const auto& lib = *in.library;
  double gate_trials = 0.0;
  for (const NetlistCase& nc : in.netlists) {
    rchls::netlist::Netlist nl("probe");
    std::vector<rchls::library::VersionId> gate_version;
    if (nc.graph == nullptr) {
      trace::Span span("circuits.component_by_name");
      nl = rchls::circuits::component_by_name(nc.component, nc.width);
    } else {
      trace::Span span("rtl.elaborate_design");
      rchls::rtl::Elaboration e =
          rchls::sta::elaborate_design(*nc.graph, lib, nc.versions, nc.width);
      nl = std::move(e.netlist);
      gate_version = std::move(e.gate_version);
    }
    std::optional<rchls::netlist::Topology> topo;
    {
      trace::Span span("netlist.topology");
      topo.emplace(nl);
    }
    rchls::ser::InjectionConfig cfg;
    cfg.trials = nc.trials;
    cfg.seed = in.seed;
    if (nc.graph == nullptr) {
      trace::Span span("ser.inject_campaign");
      auto r = rchls::ser::inject_campaign(nl, cfg);
      (void)r;
    }
    std::vector<rchls::ser::GateSensitivity> ranking;
    {
      trace::Span span("ser.rank_gate_sensitivities");
      ranking = rchls::ser::rank_gate_sensitivities(nl, cfg);
    }
    gate_trials += static_cast<double>(ranking.size()) *
                   static_cast<double>((nc.trials + 63) / 64 * 64);
    rchls::sta::DelayModel dm =
        nc.graph ? rchls::sta::DelayModel::from_library(nl, gate_version, lib)
                 : rchls::sta::DelayModel::unit(nl);
    rchls::sta::TimingReport tr;
    {
      trace::Span span("sta.analyze");
      tr = rchls::sta::analyze(nl, *topo, dm);
    }
    {
      trace::Span span("sta.join_sensitivity");
      auto rows = rchls::sta::join_sensitivity(ranking, tr);
      (void)rows;
    }
  }
  report.per_layer["ser.gate_trials"] = {gate_trials, "count"};
}

void probe_api(const ProbeInputs& in, Report& report) {
  const auto& reqs = *in.requests;
  const auto& results = *in.results;
  double request_bytes = 0.0;
  std::vector<api::CacheKey> keys(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::string text = api::wire::encode(reqs[i]);
    request_bytes += static_cast<double>(text.size());
    for (int r = 0; r < kMicroRepeats; ++r) {
      trace::Span span("api.wire.decode_request");
      auto decoded = api::wire::decode_request(text);
      (void)decoded;
    }
    for (int r = 0; r < kMicroRepeats; ++r) {
      trace::Span span("api.wire.encode_result");
      auto encoded = api::wire::encode(results[i]);
      (void)encoded;
    }
    for (int r = 0; r < kMicroRepeats; ++r) {
      trace::Span span("api.cache.key_of");
      keys[i] = api::key_of(reqs[i]);
    }
  }
  report.per_layer["api.wire.bytes_per_request"] = {
      reqs.empty() ? 0.0 : request_bytes / static_cast<double>(reqs.size()),
      "bytes"};

  api::ResultCache cache;
  for (std::size_t i = 0; i < reqs.size(); ++i) cache.store(keys[i], results[i]);
  for (int r = 0; r < kMicroRepeats; ++r) {
    for (const api::CacheKey& key : keys) {
      trace::Span span("api.cache.find");
      const api::Result* hit = cache.find(key);
      (void)hit;
    }
  }

  api::DiskCache disk(in.dir / "probe-cache");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    trace::Span span("api.disk_cache.store");
    disk.store(keys[i], results[i]);
  }
  for (const api::CacheKey& key : keys) {
    trace::Span span("api.disk_cache.find");
    auto hit = disk.find(key);
    (void)hit;
  }
}

}  // namespace

void run_scenario_probes(const ProbeInputs& in) {
  trace::Span phase("phase.scenario_probes");
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    const GraphCase& gc = in.graphs[i];
    std::ostringstream text;
    text << "scenario g" << i << "\n"
         << rchls::dfg::to_text(*gc.graph) << "library paper\n"
         << "find_design latency=" << gc.latency_bound
         << " area=" << gc.area_bound << "\n";
    trace::Span span("scenario.parse_string");
    auto scn = rchls::scenario::parse_string(text.str());
    (void)scn;
  }
  rchls::workload::CorpusConfig cc;
  cc.seed = in.seed;
  cc.count = 64;
  trace::Span span("workload.generate_corpus");
  auto cases = rchls::workload::generate_corpus(cc);
  (void)cases;
}

void run_layer_probes(const ProbeInputs& in, Report& report) {
  trace::Span phase("phase.layer_probes");
  probe_graphs(in, report);
  probe_netlists(in, report);
  probe_api(in, report);
}

void run_serve_probe(const std::vector<api::Request>& requests,
                     const std::vector<std::string>& replies,
                     const fs::path& cache_dir, const fs::path& socket_path,
                     std::size_t engine_jobs, Report& report, Gate& gate) {
  trace::Span phase("phase.serve_probe");
  rchls::serve::ServerOptions so;
  so.socket_path = socket_path.string();
  so.workers = 1;
  so.session.jobs = engine_jobs;
  so.session.cache_dir = cache_dir.string();
  rchls::serve::Server server(so);
  auto client = rchls::serve::Client::connect_unix(so.socket_path);
  gate.attempt(2 * requests.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      trace::set_request(i + 1);
      api::Result r;
      try {
        // The first pass promotes the disk entry; the second is the warm
        // round-trip the metric reports.
        std::optional<trace::Span> span;
        if (pass == 1) span.emplace("serve.client.call");
        r = client.call(requests[i]);
      } catch (const std::exception& e) {
        gate.fail(std::string("serve probe: ") + e.what());
        continue;
      }
      same_reply(gate, "serve probe", replies[i], api::wire::encode(r));
    }
  }
  trace::set_request(0);
  for (int r = 0; r < 64; ++r) {
    trace::Span span("serve.client.call_stats");
    auto st = client.call_stats();
    (void)st;
  }
  if (server.executions() != 0) {
    gate.violate("serve probe executed " +
                 std::to_string(server.executions()) + " requests");
  }
  rchls::serve::ServeStats st = server.stats();
  report.per_layer["serve.errors"].value += static_cast<double>(st.errors);
  report.per_layer["serve.errors"].unit = "count";
  report.per_layer["serve.overflows"].value +=
      static_cast<double>(st.overflows);
  report.per_layer["serve.overflows"].unit = "count";
  server.stop();
}

void set_span_metrics(Report& report,
                      const std::vector<trace::NameStats>& rows) {
  std::map<std::string, const trace::NameStats*> by_name;
  for (const auto& row : rows) by_name[row.name] = &row;
  auto total_ms = [&](const char* span) {
    auto it = by_name.find(span);
    return it == by_name.end() ? 0.0 : it->second->total_ms;
  };
  auto mean_ms = [&](const char* span) {
    auto it = by_name.find(span);
    return it == by_name.end() || it->second->calls == 0
               ? 0.0
               : it->second->total_ms /
                     static_cast<double>(it->second->calls);
  };
  struct Row {
    const char* metric;
    const char* span;
    bool micro;  ///< report in microseconds
  };
  static const Row kRows[] = {
      {"dfg.topological_order_us", "dfg.topological_order", true},
      {"sched.density_schedule_ms", "sched.density_schedule", false},
      {"bind.left_edge_ms", "bind.left_edge_bind", false},
      {"hls.find_design_ms", "hls.find_design", false},
      {"circuits.build_ms", "circuits.component_by_name", false},
      {"netlist.topology_ms", "netlist.topology", false},
      {"rtl.elaborate_ms", "rtl.elaborate_design", false},
      {"ser.inject_campaign_ms", "ser.inject_campaign", false},
      {"ser.rank_gates_ms", "ser.rank_gate_sensitivities", false},
      {"sta.analyze_ms", "sta.analyze", false},
      {"sta.join_ms", "sta.join_sensitivity", false},
      {"api.wire.decode_request_us", "api.wire.decode_request", true},
      {"api.wire.encode_result_us", "api.wire.encode_result", true},
      {"api.cache.key_us", "api.cache.key_of", true},
      {"api.cache.lookup_us", "api.cache.find", true},
      {"api.disk_cache.store_us", "api.disk_cache.store", true},
      {"api.disk_cache.find_us", "api.disk_cache.find", true},
      {"serve.roundtrip_us", "serve.client.call", true},
      {"serve.stats_roundtrip_us", "serve.client.call_stats", true},
      {"scenario.parse_us", "scenario.parse_string", true},
      {"workload.generate_corpus_ms", "workload.generate_corpus", false},
  };
  for (const Row& row : kRows) {
    double ms = mean_ms(row.span);
    report.per_layer[row.metric] = {row.micro ? ms * 1e3 : ms,
                                    row.micro ? "us" : "ms"};
  }

  auto& m = report.per_layer;
  double points = m["hls.sweep_points"].value;
  m["hls.sweep_point_ms"] = {
      points > 0 ? total_ms("hls.latency_sweep") / points : 0.0, "ms"};
  m.erase("hls.sweep_points");
  double rank_s = total_ms("ser.rank_gate_sensitivities") / 1e3;
  m["ser.gate_trials_per_s"] = {
      rank_s > 0 ? m["ser.gate_trials"].value / rank_s : 0.0, "1/s"};
  m.erase("ser.gate_trials");
}

}  // namespace e2e
