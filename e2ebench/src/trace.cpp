#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace e2e::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t request = 0;
  std::vector<std::uint64_t> open;  ///< ids of the spans open on the thread
  std::vector<Record> done;
};

// Buffers are owned by the registry, not the thread, so spans of client
// threads that already exited are still collected.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = g_next_tid.fetch_add(1);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& name) {
  std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

void enable(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_request(std::uint64_t request) {
  if (enabled()) local_buffer().request = request;
}

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.open.empty() ? 0 : buf.open.back();
  buf.open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  std::int64_t end = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.open.pop_back();
  buf.done.push_back(
      {name_, start_ns_, end, id_, parent_, buf.request, buf.tid});
}

std::vector<Record> collect() {
  std::vector<Record> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_registry) {
    all.insert(all.end(), buf->done.begin(), buf->done.end());
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::string chrome_json(const std::vector<Record>& spans) {
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream out;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name << "\",\"cat\":\""
        << layer_of(r.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << static_cast<double>(r.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::vector<NameStats> self_time(const std::vector<Record>& spans) {
  // Children's intervals per parent, clipped to the parent and merged so
  // overlapping children (concurrent threads) are not subtracted twice.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  std::unordered_map<std::uint64_t, const Record*> by_id;
  for (const Record& r : spans) by_id[r.id] = &r;
  for (const Record& r : spans) {
    if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
  }
  std::map<std::string, NameStats> rows;
  for (const Record& r : spans) {
    std::int64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_ns);
        hi = std::min(hi, r.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    NameStats& row = rows[r.name];
    row.name = r.name;
    row.calls += 1;
    double dur_ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    row.total_ms += dur_ms;
    row.self_ms += dur_ms - static_cast<double>(covered) / 1e6;
  }
  std::vector<NameStats> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

rchls::json::Value self_time_json(const std::vector<NameStats>& rows) {
  std::map<std::string, NameStats> layers;
  auto spans = rchls::json::Value::array();
  for (const NameStats& row : rows) {
    spans.push(rchls::json::Value::object()
                   .set("name", row.name)
                   .set("calls", row.calls)
                   .set("total_ms", row.total_ms)
                   .set("self_ms", row.self_ms));
    NameStats& layer = layers[layer_of(row.name)];
    layer.calls += row.calls;
    layer.total_ms += row.total_ms;
    layer.self_ms += row.self_ms;
  }
  auto by_layer = rchls::json::Value::array();
  for (const auto& [name, layer] : layers) {
    by_layer.push(rchls::json::Value::object()
                      .set("layer", name)
                      .set("calls", layer.calls)
                      .set("self_ms", layer.self_ms));
  }
  return rchls::json::Value::object()
      .set("layers", std::move(by_layer))
      .set("spans", std::move(spans));
}

}  // namespace e2e::trace
