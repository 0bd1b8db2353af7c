// Benchmark-side tracing: spans recorded around each public call the
// benchmark makes into an rchls layer.
//
// A span has a name ("<layer>.<call>", e.g. "api.session.run"), a
// steady_clock start and end, the span that was open on the same thread
// when it started (its parent) and the request id the calling loop set.
// Spans live in per-thread buffers in memory and are collected once, at
// the end of the run, into Chrome trace-event JSON and a per-name
// self-time summary (duration minus the part of it its children cover).
//
// Tracing is off unless enable(true) was called; an inactive Span costs
// one branch, so the untraced runs that give the end-to-end metrics run
// the same code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace e2e::trace {

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = a root span
  std::uint64_t request = 0;  ///< 0 = not inside a request
  std::uint32_t tid = 0;
};

void enable(bool on);
bool enabled();

/// Request id stamped on the spans this thread opens from now on.
void set_request(std::uint64_t request);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Every finished span of every thread, ordered by start time. Call when
/// no thread is recording.
std::vector<Record> collect();

/// Chrome trace-event JSON ("X" complete events, microsecond times):
/// opens in Perfetto or chrome://tracing as is.
std::string chrome_json(const std::vector<Record>& spans);

/// Per span name: calls, total and self milliseconds. Self time is a
/// span's duration minus the union of its children's intervals.
struct NameStats {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<NameStats> self_time(const std::vector<Record>& spans);

/// self_time() rolled up per layer (the name up to its last '.'), plus
/// the per-name rows, as one JSON document.
rchls::json::Value self_time_json(const std::vector<NameStats>& rows);

}  // namespace e2e::trace
