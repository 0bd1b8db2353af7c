#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <variant>

#include "api/wire.hpp"
#include "bind/binding.hpp"
#include "hls/design.hpp"
#include "sched/schedule.hpp"

namespace e2e {

namespace api = rchls::api;
namespace json = rchls::json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_resident_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ latencies

double Latencies::sum() const {
  double s = 0.0;
  for (double v : samples_) s += v;
  return s;
}

double Latencies::p50() const {
  if (samples_.empty()) return 0.0;
  std::vector<double> v = samples_;
  std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  return v[mid];
}

double Latencies::central() const {
  if (samples_.empty()) return 0.0;
  std::vector<double> v = samples_;
  auto rank = [&](double q) {
    std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
  };
  return (rank(0.48) + rank(0.52)) / 2.0;
}

Latencies::Tail Latencies::tail() const {
  Tail t;
  if (samples_.empty()) return t;
  std::vector<double> v = samples_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.samples = std::min(n, std::max(kTailCount, (n + 9) / 10));
  double sum = 0.0;
  for (std::size_t i = n - t.samples; i < n; ++i) sum += v[i];
  t.value = sum / static_cast<double>(t.samples);
  t.percentile = 100.0 * static_cast<double>(n - t.samples) /
                 static_cast<double>(n);
  return t;
}

// ----------------------------------------------------------------- gate

void Gate::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Gate::violate(const std::string& why) {
  ++violations_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Gate::merge(const Gate& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  violations_ += other.violations_;
  for (const auto& r : other.reasons_) {
    if (reasons_.size() < 8) reasons_.push_back(r);
  }
}

json::Value Gate::to_json() const {
  auto reasons = json::Value::array();
  for (const auto& r : reasons_) reasons.push(r);
  return json::Value::object()
      .set("attempted", attempted_)
      .set("failed", failed_)
      .set("violations", violations_)
      .set("reasons", std::move(reasons));
}

bool same_reply(Gate& gate, const std::string& phase,
                const std::string& expected, const std::string& got) {
  if (expected == got) return true;
  std::string head = got.substr(0, std::min<std::size_t>(got.size(), 160));
  gate.fail(phase + ": reply differs from the in-process cold result (" +
            std::to_string(got.size()) + " vs " +
            std::to_string(expected.size()) + " bytes): " + head);
  return false;
}

bool gate_catches_altered_reply() {
  api::InjectRequest req;
  req.component = "ripple_carry_adder";
  req.width = 8;
  req.trials = 256;
  api::InjectResult res;
  res.component = req.component;
  res.width = req.width;
  res.result.trials = 256;
  res.result.propagated = 100;
  std::string reply = api::wire::encode(api::Result{res});
  std::string altered = reply;
  altered[altered.find("100")] = '2';  // propagated 100 -> 200

  Gate gate;
  gate.attempt(2);
  bool copy_ok = same_reply(gate, "selftest", reply, reply);
  bool altered_ok = same_reply(gate, "selftest", reply, altered);
  return copy_ok && !altered_ok && gate.failed() == 1 && !gate.correct();
}

json::Value ThreadBudget::to_json() const {
  return json::Value::object()
      .set("nproc", static_cast<std::uint64_t>(nproc))
      .set("callers", static_cast<std::uint64_t>(callers))
      .set("connections", static_cast<std::uint64_t>(connections))
      .set("daemon_workers", static_cast<std::uint64_t>(daemon_workers))
      .set("engine_jobs", static_cast<std::uint64_t>(engine_jobs))
      .set("max_runnable", static_cast<std::uint64_t>(callers + engine_jobs));
}

// ------------------------------------------------------------- requests

std::size_t depth_of(const rchls::dfg::Graph& g) {
  std::vector<std::size_t> depth(g.node_count(), 1);
  std::size_t best = 1;
  for (rchls::dfg::NodeId id : g.topological_order()) {
    for (rchls::dfg::NodeId p : g.predecessors(id)) {
      depth[id] = std::max(depth[id], depth[p] + 1);
    }
    best = std::max(best, depth[id]);
  }
  return best;
}

double comfortable_area(const rchls::dfg::Graph& g, std::size_t latency) {
  std::size_t muls = g.count_ops(rchls::dfg::OpType::kMul);
  std::size_t adds = g.node_count() - muls;
  auto units = [latency](std::size_t ops) {
    return (ops + latency - 1) / latency;
  };
  return 2.0 * static_cast<double>(units(adds)) +
         4.0 * static_cast<double>(units(muls)) + 2.0;
}

void Quality::add(const api::Request& req, const api::Result& res) {
  double ops = static_cast<double>(std::visit(
      [](const auto& r) -> std::size_t {
        if constexpr (requires { r.graph.node_count(); }) {
          return r.graph.node_count();
        } else {
          return 1;
        }
      },
      req));
  auto point = [&](std::optional<double> r) {
    ++points;
    if (r && *r > 0.0) {
      ++solved;
      log_sum += std::log(*r) / ops;
    }
  };
  if (const auto* fd = std::get_if<api::FindDesignResult>(&res)) {
    point(fd->solved && fd->design ? std::optional<double>(
                                         fd->design->reliability)
                                   : std::nullopt);
  } else if (const auto* sw = std::get_if<api::SweepResult>(&res)) {
    for (const auto& p : sw->points) point(p.reliability);
  } else if (const auto* gr = std::get_if<api::GridResult>(&res)) {
    for (const auto& row : gr->rows) {
      point(row.baseline);
      point(row.ours);
      point(row.combined);
    }
  }
}

double Quality::geomean() const {
  return solved == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(solved));
}

double Quality::solved_ratio() const {
  return points == 0 ? 0.0
                     : static_cast<double>(solved) /
                           static_cast<double>(points);
}

namespace {

// Bounds are met with a little slack for the area sum's rounding.
constexpr double kAreaEps = 1e-9;

std::string check_design(const rchls::hls::Design& d,
                         const rchls::dfg::Graph& g,
                         const rchls::library::ResourceLibrary& lib,
                         int latency_bound, double area_bound) {
  try {
    std::vector<int> delays = rchls::hls::delays_for(g, lib, d.version_of);
    rchls::sched::validate_schedule(g, delays, d.schedule);
    rchls::bind::validate_binding(g, lib, d.version_of, d.schedule,
                                  d.binding);
  } catch (const std::exception& e) {
    return std::string("invalid design: ") + e.what();
  }
  if (d.latency > latency_bound) return "design misses its latency bound";
  if (d.area > area_bound + kAreaEps) return "design misses its area bound";
  return {};
}

std::string check_counts(const rchls::ser::InjectionResult& r,
                         std::size_t trials) {
  // The engine rounds trials up to whole 64-lane passes.
  std::size_t max_trials = (trials + 63) / 64 * 64;
  if (r.trials > max_trials || r.propagated > r.trials) {
    return "campaign counts exceed their trials";
  }
  return {};
}

}  // namespace

std::string check_result(const api::Request& req, const api::Result& res) {
  if (req.index() != res.index()) return "result kind differs from request";
  if (const auto* fd = std::get_if<api::FindDesignRequest>(&req)) {
    const auto& r = std::get<api::FindDesignResult>(res);
    if (!r.solved) return {};
    if (!r.design) return "solved result without a design";
    // Redundant (combined/baseline) designs carry copies; the schedule
    // and binding checks still apply to the underlying data path.
    return check_design(*r.design, fd->graph, fd->library, fd->latency_bound,
                        fd->area_bound);
  }
  if (std::holds_alternative<api::SweepRequest>(req)) {
    for (const auto& p : std::get<api::SweepResult>(res).points) {
      if (!p.reliability) continue;
      if (!p.latency || !p.area) return "solved sweep point without metrics";
      if (*p.latency > p.latency_bound ||
          *p.area > p.area_bound + kAreaEps) {
        return "sweep point misses its bounds";
      }
    }
    return {};
  }
  if (const auto* in = std::get_if<api::InjectRequest>(&req)) {
    return check_counts(std::get<api::InjectResult>(res).result, in->trials);
  }
  if (const auto* rk = std::get_if<api::RankGatesRequest>(&req)) {
    for (const auto& gs : std::get<api::RankGatesResult>(res).gates) {
      std::string why = check_counts(gs.result, rk->trials);
      if (!why.empty()) return why;
    }
    return {};
  }
  if (std::holds_alternative<api::StaRequest>(req)) {
    for (const auto& row : std::get<api::StaResult>(res).rows) {
      if (!(row.sensitivity >= 0.0 && row.sensitivity <= 1.0)) {
        return "sensitivity outside [0, 1]";
      }
    }
  }
  return {};
}

rchls::parallel::PoolStats pool_delta(const rchls::parallel::PoolStats& a,
                                      const rchls::parallel::PoolStats& b) {
  rchls::parallel::PoolStats d;
  d.tasks_executed = b.tasks_executed - a.tasks_executed;
  d.steals = b.steals - a.steals;
  d.overflow_pushes = b.overflow_pushes - a.overflow_pushes;
  d.overflow_pops = b.overflow_pops - a.overflow_pops;
  d.block_handoffs = b.block_handoffs - a.block_handoffs;
  d.idle_wakeups = b.idle_wakeups - a.idle_wakeups;
  d.full_retries = b.full_retries - a.full_retries;
  return d;
}

void Phase::add(std::size_t request, double latency_ms) {
  if (ms.size() <= request) ms.resize(request + 1);
  ms[request].push_back(latency_ms);
}

void Phase::add(std::size_t request, double latency_ms, double cpu) {
  add(request, latency_ms);
  if (cpu_ms.size() <= request) cpu_ms.resize(request + 1);
  cpu_ms[request].push_back(cpu);
}

std::size_t Phase::runs() const {
  std::size_t fewest = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    fewest = i == 0 ? ms[i].size() : std::min(fewest, ms[i].size());
  }
  return fewest;
}

Latencies Phase::best() const {
  Latencies l;
  for (const auto& runs : ms) {
    if (!runs.empty()) l.add(*std::min_element(runs.begin(), runs.end()));
  }
  return l;
}

Latencies Phase::all() const {
  Latencies l;
  for (const auto& runs : ms) {
    for (double v : runs) l.add(v);
  }
  return l;
}

double Phase::throughput_rps() const {
  Latencies b = best();
  double ms_sum = b.sum();
  return ms_sum > 0 ? static_cast<double>(concurrency * b.size()) /
                          (ms_sum / 1e3)
                    : 0.0;
}

double Phase::cpu_ms_per_request() const {
  double sum = 0.0;
  for (const auto& runs : cpu_ms) {
    if (!runs.empty()) sum += *std::min_element(runs.begin(), runs.end());
  }
  return cpu_ms.empty() ? 0.0 : sum / static_cast<double>(cpu_ms.size());
}

void set_phase_metrics(Report& report, const PhaseSummary& p) {
  auto& m = report.end_to_end;
  const Latencies cold = p.cold.best();
  m["throughput_rps"] = {p.cold.throughput_rps(), "1/s"};
  m["latency_p50_ms"] = {cold.central(), "ms"};
  m["latency_tail_ms"] = {cold.tail().value, "ms"};
  m["cpu_ms_per_request"] = {p.cold.cpu_ms_per_request(), "ms"};
  m["warm_throughput_rps"] = {p.warm.throughput_rps(), "1/s"};
  m["warm_latency_p50_ms"] = {p.warm.best().central(), "ms"};
  m["disk_warm_throughput_rps"] = {p.disk.throughput_rps(), "1/s"};

  auto phase = [](const Phase& ph) {
    Latencies best = ph.best();
    Latencies::Tail t = best.tail();
    return json::Value::object()
        .set("requests", static_cast<std::uint64_t>(best.size()))
        .set("runs_per_request", static_cast<std::uint64_t>(ph.runs()))
        .set("throughput_rps", ph.throughput_rps())
        .set("p50_ms", best.central())
        .set("tail_ms", t.value)
        .set("tail_above_percentile", t.percentile)
        .set("tail_samples", static_cast<std::uint64_t>(t.samples))
        .set("all_runs_p50_ms", ph.all().central());
  };
  report.detail.set("phases", json::Value::object()
                                  .set("cold", phase(p.cold))
                                  .set("warm", phase(p.warm))
                                  .set("disk_warm", phase(p.disk)));
}

}  // namespace e2e
