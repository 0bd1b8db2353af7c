#include "inproc.hpp"

#include "api/session.hpp"
#include "api/wire.hpp"
#include "trace.hpp"

namespace e2e {

namespace api = rchls::api;

InProcessRun run_in_process(const InProcessPlan& plan,
                            const std::filesystem::path& cache_dir,
                            std::size_t engine_jobs, Gate& gate) {
  const std::size_t n = plan.requests.size();
  InProcessRun run;
  run.results.resize(n);
  run.ok.assign(n, false);
  run.replies.resize(n);

  api::SessionOptions so;
  so.jobs = engine_jobs;
  so.cache_dir = cache_dir.string();
  rchls::parallel::PoolStats pool0 = rchls::parallel::pool_stats();
  double cold_cpu_ms = 0.0, cold_wall_ms = 0.0;

  // One timed call. The first cold round keeps its results; every other
  // run must reproduce their encoding byte for byte. A failed call still
  // counts its time (a refused request misses every latency limit).
  std::size_t round = 0;
  auto call = [&](api::Session& s, std::size_t i, const std::string& phase,
                  Phase& into, bool cold) {
    trace::set_request(i + 1);
    const double cpu0 = cold ? process_cpu_ms() : 0.0;
    Clock::time_point t0 = Clock::now();
    api::Result r;
    bool ok = true;
    try {
      trace::Span span("api.session.run");
      r = s.run(plan.requests[i]);
    } catch (const std::exception& e) {
      ok = false;
      gate.fail(phase + ": " + e.what());
    }
    const double ms = ms_since(t0);
    if (cold) {
      const double cpu = process_cpu_ms() - cpu0;
      into.add(i, ms, cpu);
      cold_cpu_ms += cpu;
      cold_wall_ms += ms;
    } else {
      into.add(i, ms);
    }
    if (!ok) return;
    if (cold && round == 0) {
      run.results[i] = std::move(r);
      run.ok[i] = true;
    } else if (run.ok[i]) {
      same_reply(gate, phase, run.replies[i], api::wire::encode(r));
    } else {
      gate.fail(phase + ": no valid cold result to compare with");
    }
  };

  gate.attempt(n * plan.rounds * (1 + 2 * plan.warm_passes));
  for (; round < plan.rounds; ++round) {
    std::filesystem::remove_all(cache_dir);
    api::Session session(so);
    {
      trace::Span phase("phase.cold");
      for (std::size_t i = 0; i < n; ++i) {
        call(session, i, "cold", run.phases.cold, true);
      }
    }
    if (round == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!run.ok[i]) continue;
        run.replies[i] = api::wire::encode(run.results[i]);
        std::string why = check_result(plan.requests[i], run.results[i]);
        if (!why.empty()) {
          gate.fail("cold: " + why);
          run.ok[i] = false;
          continue;
        }
        run.quality.add(plan.requests[i], run.results[i]);
      }
    }

    // Warm and disk-warm passes alternate, so both sample the machine
    // over the same stretch of time.
    const std::uint64_t exec0 = session.executions();
    for (std::size_t pass = 0; pass < plan.warm_passes; ++pass) {
      {
        trace::Span phase("phase.warm");
        for (std::size_t i = 0; i < n; ++i) {
          call(session, i, "warm", run.phases.warm, false);
        }
      }
      {
        trace::Span phase("phase.disk_warm");
        api::Session fresh(so);
        for (std::size_t i = 0; i < n; ++i) {
          call(fresh, i, "disk_warm", run.phases.disk, false);
        }
        run.warm_executions += fresh.executions();
        const api::DiskCacheStats& ds = fresh.disk_stats();
        run.disk.hits += ds.hits;
        run.disk.misses += ds.misses;
      }
    }
    run.warm_executions += session.executions() - exec0;
    const api::CacheStats& cs = session.cache_stats();
    run.cache.hits += cs.hits;
    run.cache.misses += cs.misses;
    run.cache.entries = cs.entries;
  }
  trace::set_request(0);
  run.cold_cpu_per_wall = cold_wall_ms > 0 ? cold_cpu_ms / cold_wall_ms : 0.0;

  run.pool = pool_delta(pool0, rchls::parallel::pool_stats());
  if (run.warm_executions != 0) {
    gate.violate("warm/disk-warm phases executed " +
                 std::to_string(run.warm_executions) + " requests");
  }
  return run;
}

void set_in_process_counters(Report& report, const InProcessRun& run) {
  auto& m = report.per_layer;
  double lookups = static_cast<double>(run.cache.hits + run.cache.misses);
  m["api.cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(run.cache.hits) / lookups : 0.0,
      "ratio"};
  double disk_lookups = static_cast<double>(run.disk.hits + run.disk.misses);
  m["api.disk_cache.hit_ratio"] = {
      disk_lookups > 0 ? static_cast<double>(run.disk.hits) / disk_lookups
                       : 0.0,
      "ratio"};
  m["api.session.executions"] = {static_cast<double>(run.warm_executions),
                                 "count"};
  m["parallel.cpu_per_wall"] = {run.cold_cpu_per_wall, "ratio"};
  m["parallel.tasks_executed"] = {
      static_cast<double>(run.pool.tasks_executed), "count"};
  m["parallel.steals"] = {static_cast<double>(run.pool.steals), "count"};
  m["parallel.idle_wakeups"] = {static_cast<double>(run.pool.idle_wakeups),
                                "count"};
  m["parallel.full_retries"] = {static_cast<double>(run.pool.full_retries),
                                "count"};
}

}  // namespace e2e
