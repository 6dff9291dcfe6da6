#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct Buffer {
  std::vector<Span> spans;
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<Buffer>> g_registry;  // guarded by the mutex

Buffer& thread_buffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    b->spans.reserve(1 << 14);
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(b);
    return b;
  }();
  return *buffer;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                  std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_hi - cur_lo);
  return covered;
}

/// Child intervals per parent id.
std::unordered_map<std::uint64_t,
                   std::vector<std::pair<std::int64_t, std::int64_t>>>
children_of(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      out;
  for (const Span& s : spans)
    if (s.parent != 0) out[s.parent].emplace_back(s.start_ns, s.end_ns);
  return out;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t new_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record(const char* name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t unit, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  thread_buffer().spans.push_back({name, id, parent, unit, start_ns, end_ns});
}

Scope::Scope(const char* name, std::uint64_t parent, std::uint64_t unit)
    : name_(name), parent_(parent), unit_(unit) {
  if (!enabled()) return;
  id_ = new_id();
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ != 0) record(name_, id_, parent_, unit_, start_ns_, now_ns());
}

std::vector<Span> collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> all;
  for (const auto& b : g_registry)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::vector<LayerRow> self_time_table(const std::vector<Span>& spans) {
  auto children = children_of(spans);
  std::map<std::string, LayerRow> rows;
  for (const Span& s : spans) {
    LayerRow& row = rows[s.name];
    row.name = s.name;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double self = dur;
    if (auto it = children.find(s.id); it != children.end())
      self -= covered_ns(it->second, s.start_ns, s.end_ns);
    ++row.calls;
    row.total_s += dur * 1e-9;
    row.self_s += self * 1e-9;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double coverage(const std::vector<Span>& spans, const std::string& root) {
  auto children = children_of(spans);
  double wall = 0.0, covered = 0.0;
  for (const Span& s : spans) {
    if (root != s.name) continue;
    wall += static_cast<double>(s.end_ns - s.start_ns);
    if (auto it = children.find(s.id); it != children.end())
      covered += covered_ns(it->second, s.start_ns, s.end_ns);
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

double mean_us(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  std::uint64_t n = 0;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n > 0 ? total / static_cast<double>(n) * 1e-3 : 0.0;
}

double total_s(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans)
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  return total * 1e-9;
}

bool write_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,unit,start_ns,end_ns\n");
  for (const Span& s : spans)
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.unit),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

std::string table_json(const std::vector<LayerRow>& rows, double wall_s) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Json row;
    row.str("layer", rows[i].name)
        .integer("calls", rows[i].calls)
        .num("total_s", rows[i].total_s)
        .num("self_s", rows[i].self_s)
        .num("self_share", wall_s > 0.0 ? rows[i].self_s / wall_s : 0.0);
    if (i > 0) out += ", ";
    out += row.render();
  }
  return out + "]";
}

}  // namespace perfbench::trace
