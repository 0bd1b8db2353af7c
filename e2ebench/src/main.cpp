// e2ebench: the repository benchmark's driver (see ../README.md).
//
//   e2ebench --workload synth_scale|ser_campaign|corpus_serve
//            --seed N --seconds S --trace 0|1
//            --work-dir DIR --out-dir DIR [--git-rev REV]
//   e2ebench --selftest-gate
//
// Prints one JSON document on stdout: the run fingerprint, the
// correctness gate, every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1) with its unit, and the per-phase detail.
// A traced run first repeats the untraced run in the same process, then
// runs again with spans on plus the layer probes; it reports the
// difference as the tracing overhead and writes a Chrome trace and a
// self-time summary under --out-dir.
#include <sys/prctl.h>

#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace {

namespace json = rchls::json;
namespace fs = std::filesystem;
using e2e::Report;

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out-dir DIR [--git-rev REV]\n"
               "       e2ebench --selftest-gate\n";
  std::exit(2);
}

e2e::RunOptions parse_args(int argc, char** argv) {
  e2e::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest-gate") {
      o.gate_selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stoi(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--work-dir") {
        o.work_dir = v;
      } else if (a == "--out-dir") {
        o.out_dir = v;
      } else if (a == "--git-rev") {
        o.git_rev = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.gate_selftest) return o;
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be in [1, 600]");
  if (o.work_dir.empty() || o.out_dir.empty()) {
    usage("--work-dir and --out-dir are required");
  }
  return o;
}

Report run_workload(const e2e::RunOptions& opts, e2e::Gate& gate) {
  fs::remove_all(opts.work_dir);
  fs::create_directories(opts.work_dir);
  if (opts.workload == "synth_scale") return e2e::run_synth_scale(opts, gate);
  if (opts.workload == "ser_campaign") {
    return e2e::run_ser_campaign(opts, gate);
  }
  if (opts.workload == "corpus_serve") {
    return e2e::run_corpus_serve(opts, gate);
  }
  usage("unknown workload '" + opts.workload + "'");
}

json::Value metrics_json(const std::map<std::string, e2e::Metric>& metrics,
                         bool* finite) {
  auto out = json::Value::object();
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) *finite = false;
    out.set(name, json::Value::object().set("value", m.value).set("unit",
                                                                  m.unit));
  }
  return out;
}

// Time per request traced over untraced, minus one, in percent.
double overhead_pct(double untraced_rps, double traced_rps) {
  return traced_rps > 0 ? (untraced_rps / traced_rps - 1.0) * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Ends with the run.py that started it, so no driver process outlives
  // an interrupted run.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  e2e::RunOptions opts = parse_args(argc, argv);
  if (opts.gate_selftest) {
    bool ok = e2e::gate_catches_altered_reply();
    std::cout << json::Value::object().set("gate_selftest", ok).dump(0)
              << "\n";
    return ok ? 0 : 1;
  }

  const fs::path work_root = opts.work_dir;
  int status = 0;
  try {
    e2e::Gate gate;
    e2e::RunOptions untraced = opts;
    untraced.trace = false;
    untraced.work_dir = work_root / "run";
    Report report = run_workload(untraced, gate);
    report.end_to_end["peak_rss_mb"] = {e2e::peak_resident_mb(), "MiB"};

    auto doc = json::Value::object();
    doc.set("workload", opts.workload)
        .set("seed", std::to_string(opts.seed))
        .set("seconds", opts.seconds)
        .set("trace", opts.trace)
        .set("fingerprint",
             json::Value::object()
                 .set("nproc", static_cast<std::uint64_t>(
                                   rchls::parallel::hardware_jobs()))
                 .set("compiler", E2EBENCH_COMPILER)
                 .set("build_type", E2EBENCH_BUILD_TYPE)
                 .set("git_rev", opts.git_rev)
                 .set("thread_budget", report.budget.to_json()));
    bool finite = true;
    doc.set("end_to_end", metrics_json(report.end_to_end, &finite));
    doc.set("detail", report.detail);

    if (opts.trace) {
      e2e::RunOptions traced = opts;
      traced.work_dir = work_root / "traced";
      e2e::trace::enable(true);
      Report tr = run_workload(traced, gate);
      e2e::trace::enable(false);
      std::vector<e2e::trace::Record> spans = e2e::trace::collect();
      std::vector<e2e::trace::NameStats> rows = e2e::trace::self_time(spans);
      e2e::set_span_metrics(tr, rows);

      auto rps = [](const Report& r, const char* phase) {
        return r.detail.at("phases").at(phase).at("throughput_rps")
            .as_double();
      };
      tr.per_layer["trace.cold_overhead_pct"] = {
          overhead_pct(rps(report, "cold"), rps(tr, "cold")), "%"};
      tr.per_layer["trace.warm_overhead_pct"] = {
          overhead_pct(rps(report, "warm"), rps(tr, "warm")), "%"};

      fs::create_directories(opts.out_dir);
      std::string stem =
          opts.workload + "-seed" + std::to_string(opts.seed);
      fs::path trace_file = opts.out_dir / (stem + ".trace.json");
      fs::path self_file = opts.out_dir / (stem + ".selftime.json");
      std::ofstream(trace_file) << e2e::trace::chrome_json(spans);
      json::Value self = e2e::trace::self_time_json(rows);
      std::ofstream(self_file) << self.dump(2) << "\n";
      doc.set("per_layer", metrics_json(tr.per_layer, &finite));
      doc.set("tracing", json::Value::object()
                             .set("spans", static_cast<std::uint64_t>(
                                               spans.size()))
                             .set("chrome_trace", trace_file.string())
                             .set("self_time", self_file.string())
                             .set("traced_detail", tr.detail)
                             .set("self_time_by_layer", self.at("layers")));
    }

    if (!finite) gate.violate("a metric is not finite");
    doc.set("gate", gate.to_json());
    doc.set("correct", gate.correct())
        .set("attempted", gate.attempted())
        .set("failed", gate.failed());
    std::cout << doc.dump(2) << "\n";
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(work_root, ec);
  return status;
}
