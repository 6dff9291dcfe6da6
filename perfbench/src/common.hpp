// Shared pieces of the benchmark program: clock, order statistics, the run
// outcome every workload fills in, and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock), the time base of every span.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; sorts
/// a copy. Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// A JSON array of numbers.
std::string json_array(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Minimal insertion-ordered JSON object writer. Values are rendered on
/// insertion; nested objects are added as pre-rendered JSON text.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, const std::string& json_text);
  [[nodiscard]] std::string render() const;
  [[nodiscard]] bool empty() const { return body_.empty(); }

  static std::string quote(const std::string& text);
  static std::string number(double value);

 private:
  void key(const std::string& name);
  std::string body_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // operations whose output was checked
  std::uint64_t failed = 0;     // errors, BUSY replies, timeouts, mismatches
  std::uint64_t mismatches = 0; // wrong outputs (also counted in `failed`)
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  Json details;                 // extra sections written to results.json
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records `count` failed output checks and clears `correct`.
  void mismatch(const std::string& what, std::uint64_t count = 1);
};

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;   // every artifact of the run goes here
  std::string env_json;  // environment block assembled by run.py
};

/// Set-up is timed several times per run and reported as the median, so a
/// change that moves work into set-up shows in setup_s.
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
