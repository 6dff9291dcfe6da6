// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a module's public functions in a span; nothing inside the
// program is instrumented. Spans are kept in per-thread buffers while the
// run lasts and written out once it ends.
//
// A span is (name, id, parent, unit, start, end): `parent` is the id of the
// span that caused it (0 for a root) and `unit` the decision, request or
// epoch it belongs to. A layer's self time is its spans' duration minus the
// part of each interval that its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Span {
  const char* name = "";  // string literal, one per layer call site
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t unit = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Recording is off unless the run was started with --trace 1.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// A fresh span id (never 0), unique across threads.
[[nodiscard]] std::uint64_t new_id();

/// Appends a finished span to the calling thread's buffer (no-op when off).
void record(const char* name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t unit, std::int64_t start_ns, std::int64_t end_ns);

/// Times the enclosing scope as one span (no clock reads when off).
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t parent = 0,
                 std::uint64_t unit = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t unit_;
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far, from all threads. Call only while no other
/// thread is recording.
[[nodiscard]] std::vector<Span> collect();

struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per-name calls, total and self time, sorted by self time (descending).
[[nodiscard]] std::vector<LayerRow> self_time_table(
    const std::vector<Span>& spans);

/// Share of the `root` spans' wall time that their child spans cover.
[[nodiscard]] double coverage(const std::vector<Span>& spans,
                              const std::string& root);

/// Mean duration in microseconds of the spans called `name` (0 if none).
[[nodiscard]] double mean_us(const std::vector<Span>& spans,
                             const std::string& name);
/// Total duration in seconds of the spans called `name`.
[[nodiscard]] double total_s(const std::vector<Span>& spans,
                             const std::string& name);

/// Writes spans as CSV (name,id,parent,unit,start_ns,end_ns).
bool write_csv(const std::vector<Span>& spans, const std::string& path);

/// Renders the self-time table as a JSON array.
[[nodiscard]] std::string table_json(const std::vector<LayerRow>& rows,
                                     double wall_s);

}  // namespace perfbench::trace
