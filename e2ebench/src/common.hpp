// Shared pieces of the e2ebench workloads: run options, timing and
// latency statistics, the correctness gate, the per-run report and the
// request helpers the three workloads have in common.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/result.hpp"
#include "dfg/graph.hpp"
#include "parallel/config.hpp"
#include "util/json.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);
/// CPU time of the whole process (every thread), in milliseconds.
double process_cpu_ms();
/// The process's resident-set high-water mark (getrusage ru_maxrss), in
/// MiB: the most memory the workload held at any moment of the run.
double peak_resident_mb();

/// What one invocation was asked to do.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch: caches, sockets, probes
  std::filesystem::path out_dir;   ///< trace files
  std::string git_rev = "unknown";
  bool gate_selftest = false;
};

/// How often each workload sets up (builds its inputs; corpus_serve also
/// starts its daemon); setup_s is the median, the last copy is used.
/// Set-up takes milliseconds, so one slow stretch of the host would move
/// a median of a few.
constexpr int kSetupRuns = 15;

/// Derives the i-th independent 64-bit value from a seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t i);

/// Closed-loop latency samples of one phase, in milliseconds.
class Latencies {
 public:
  void add(double ms) { samples_.push_back(ms); }
  std::size_t size() const { return samples_.size(); }
  double sum() const;
  double p50() const;
  /// The central latency: the mean of the 48th and 52nd percentiles. It
  /// is the median on a continuous distribution and moves less when the
  /// median falls on the gap between two request kinds' costs.
  double central() const;
  /// The tail: the mean of the slowest tenth of the samples, and of at
  /// least kTailCount of them (every sample when there are fewer). A mean
  /// over several samples, unlike a single high percentile, does not jump
  /// with the few heaviest requests a seed happened to draw. Gives the
  /// value, the percentile the averaged samples lie above, and how many
  /// they are.
  static constexpr std::size_t kTailCount = 10;
  struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
  };
  Tail tail() const;

 private:
  std::vector<double> samples_;
};

/// The correctness gate: every operation is attempted once and either
/// passes every check or counts as failed; failures keep their reason.
class Gate {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed operation (an operation fails at most once).
  void fail(const std::string& why);
  /// A failed invariant that is not tied to one operation (e.g. a warm
  /// phase that executed): makes the run incorrect without a count.
  void violate(const std::string& why);
  /// Adds another gate's counts (one gate per client thread).
  void merge(const Gate& other);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && violations_ == 0; }
  rchls::json::Value to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<std::string> reasons_;  ///< first few, for the report
};

/// Threads that can run at once in one workload: closed-loop callers
/// (one runnable thread per in-flight request, wherever it is in the
/// client -> daemon path), daemon workers, engine-pool workers.
struct ThreadBudget {
  std::size_t nproc = 1;
  std::size_t callers = 1;
  std::size_t connections = 0;
  std::size_t daemon_workers = 0;
  std::size_t engine_jobs = 1;
  rchls::json::Value to_json() const;
};

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  rchls::json::Value detail = rchls::json::Value::object();
  ThreadBudget budget;
};

/// Longest dependence path in nodes (the latency floor at delay 1).
std::size_t depth_of(const rchls::dfg::Graph& g);
/// An area bound that fits ceil(ops / L) delay-1 units per class plus a
/// margin: solvable, not loose.
double comfortable_area(const rchls::dfg::Graph& g, std::size_t latency);

/// Quality of result over the synthesis results (find_design, sweep,
/// grid) of one workload: the share of bound points solved, and the
/// geometric mean over solved points of mission reliability per
/// operation, R^(1/ops). The per-operation root keeps designs of 30 and
/// 500 operations comparable, so the mean does not swing with which
/// graph sizes happened to be solvable.
struct Quality {
  double log_sum = 0.0;  ///< sum of ln(R) / ops over solved points
  std::uint64_t solved = 0;
  std::uint64_t points = 0;
  void add(const rchls::api::Request& req, const rchls::api::Result& res);
  double geomean() const;
  double solved_ratio() const;
};

/// Checks one request's result beyond byte identity: solved designs
/// validate (schedule, binding) and meet their bounds, sweep points meet
/// their bounds, campaign counts do not exceed their trials. Returns an
/// empty string or the first violation.
std::string check_result(const rchls::api::Request& req,
                         const rchls::api::Result& res);

/// Sampled pool counters, and their difference.
rchls::parallel::PoolStats pool_delta(const rchls::parallel::PoolStats& a,
                                      const rchls::parallel::PoolStats& b);

/// One closed-loop phase: the latency of every request each time it ran
/// (cold: once per cold round, each round on a fresh cache; warm and
/// disk-warm: once per pass), and for cold runs the process CPU time
/// each execution took.
///
/// Every figure comes from each request's best run: its shortest latency
/// and, for CPU, its least CPU time. The shared host runs every thread
/// 30-100% slower for seconds at a time and changes speed from one
/// stretch of a minute to the next, so a median over a run moves with
/// the stretches the run happens to catch. A request's best run is the
/// one the host disturbed least; the runs of one request are spread over
/// the whole run, so a best run exists unless the whole run was slow.
/// A change in the code still shows in full: it makes every run slower,
/// the best one too.
struct Phase {
  std::vector<std::vector<double>> ms;      ///< [request][run]
  std::vector<std::vector<double>> cpu_ms;  ///< [request][run], cold only
  std::size_t concurrency = 1;  ///< closed-loop callers of the phase

  void add(std::size_t request, double latency_ms);
  void add(std::size_t request, double latency_ms, double cpu);
  /// Runs per request (the fewest any request had).
  std::size_t runs() const;
  /// Each request's shortest latency.
  Latencies best() const;
  /// Every run's latency, pooled: for the report's detail only.
  Latencies all() const;
  /// Requests per second of `concurrency` closed-loop callers, each
  /// request taking its best latency.
  double throughput_rps() const;
  /// The mean over requests of each request's least CPU time.
  double cpu_ms_per_request() const;
};

struct PhaseSummary {
  Phase cold;
  Phase warm;
  Phase disk;
};
/// Sets every end-to-end metric derived from the phases' samples.
void set_phase_metrics(Report& report, const PhaseSummary& p);

/// Workload entry points (one file each).
Report run_synth_scale(const RunOptions& opts, Gate& gate);
Report run_ser_campaign(const RunOptions& opts, Gate& gate);
Report run_corpus_serve(const RunOptions& opts, Gate& gate);

/// The byte-identity check every warm, disk-warm and serve reply goes
/// through: a reply that differs from the in-process cold encoding
/// (including an error envelope) fails its operation.
bool same_reply(Gate& gate, const std::string& phase,
                const std::string& expected, const std::string& got);

/// Feeds same_reply a cold reply and an altered copy of it; true when the
/// copy passes and the altered one is counted as failed.
bool gate_catches_altered_reply();

}  // namespace e2e
