// Host-speed probe: a fixed unit of CPU work, timed between the timed units
// of a workload, so every timing metric can be corrected for how fast the
// host let this CPU run at that moment.
//
// Why: the benchmark runs on shared virtual machines whose vCPU speed
// drifts while other tenants load the same physical cores. On the 4-vCPU
// Xeon (Sapphire Rapids) VM it was built on, advise's pass rate moved
// between about 4000 and 7000 graphs/s in steps that last 4 to 20 s, so
// the median of a 15 s run spread by a quarter to a third between runs.
// Timed next to each pass, the probe slowed with it: in two 120 s runs,
// pass rate and probe time correlated at -0.64 and -0.67, and the median
// corrected rate over any 40 passes spread by 0.03 and 0.05, against 0.20
// and 0.08 uncorrected.
//
// The probe is benchmark code only: allocation-free integer, branch,
// pointer-chasing and float work on buffers made once. CMakeLists.txt
// builds it in a library of its own with fixed flags that links none of the
// repository's targets, so a program change, to its code, its compile
// options or its allocator, cannot move it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench::hostspeed {

/// The probe's fastest time on the calibration VM (its median was 0.47 ms),
/// in seconds: corrected times read as if the host ran at that speed.
inline constexpr double kReferenceSeconds = 0.36e-3;

/// Probes taken at points of a timed stretch, and the corrected length of
/// any interval in it. Times are steady_clock nanoseconds.
class Timeline {
 public:
  /// Runs the probe's work nine times now and records the fastest.
  void probe();

  /// The length of [start_ns, end_ns] in seconds, less the time spent in
  /// probes, with each piece between two probes scaled by
  /// kReferenceSeconds over the mean of those two probes (a piece before
  /// the first or after the last probe by that probe alone). Probe just
  /// before and just after an interval to bracket it.
  [[nodiscard]] double corrected_seconds(std::int64_t start_ns,
                                         std::int64_t end_ns) const;

  /// corrected_seconds over the raw length of the interval: multiply a
  /// time measured in it by this factor, divide a rate by it.
  [[nodiscard]] double factor(std::int64_t start_ns,
                              std::int64_t end_ns) const;

 private:
  struct Probe {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double seconds = 0.0;
  };
  std::vector<Probe> probes_;  // in time order
};

}  // namespace perfbench::hostspeed
