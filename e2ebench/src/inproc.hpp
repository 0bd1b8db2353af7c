// The in-process request path shared by synth_scale and ser_campaign:
// one caller thread drives an api::Session (memory cache over a disk
// cache directory) through three closed-loop phases, in rounds.
//
//  cold       each round, every request once on a fresh Session over a
//             fresh cache directory: executes on the engines and is
//             stored to memory and disk;
//  warm       then passes over the same requests on that Session:
//             memory hits;
//  disk-warm  alternating with them, passes on a fresh Session over the
//             round's directory: disk hits (what a re-invoked CLI run
//             sees).
//
// Rounds spread every request's cold, warm and disk-warm runs over the
// whole run, so each request's best run (see Phase) comes from the
// quietest stretch the run had.
//
// Each call is timed on its own and replies are checked against the
// first round's cold encoding between calls, so the checks never enter
// a latency.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "api/cache.hpp"
#include "api/disk_cache.hpp"
#include "common.hpp"

namespace e2e {

struct InProcessPlan {
  std::vector<rchls::api::Request> requests;
  std::size_t rounds = 1;       ///< cold rounds
  std::size_t warm_passes = 1;  ///< warm + disk-warm pass pairs per round
};

struct InProcessRun {
  std::vector<rchls::api::Result> results;  ///< first cold round
  std::vector<bool> ok;                     ///< cold request succeeded
  std::vector<std::string> replies;         ///< wire encodings of results
  PhaseSummary phases;
  Quality quality;
  rchls::api::CacheStats cache;      ///< the cold+warm sessions' memory layer
  rchls::api::DiskCacheStats disk;   ///< summed over the disk-warm sessions
  std::uint64_t warm_executions = 0; ///< warm + disk-warm; must stay 0
  rchls::parallel::PoolStats pool;   ///< delta over every round
  double cold_cpu_per_wall = 0.0;
};

InProcessRun run_in_process(const InProcessPlan& plan,
                            const std::filesystem::path& cache_dir,
                            std::size_t engine_jobs, Gate& gate);

/// Per-layer counters every in-process workload reports from its run.
void set_in_process_counters(Report& report, const InProcessRun& run);

}  // namespace e2e
