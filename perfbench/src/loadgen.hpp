// Load generator for the serve workloads: one thread driving a few
// pipelined connections to the server, replies matched to requests by
// request id and checked bit for bit against the expected reply.
//
// Closed loop: each connection keeps a fixed number of requests in flight
// and sends the next one as soon as a reply comes back, like callers that
// wait for their answer. Latency runs from send to reply.
//
// Open loop: requests are due at Poisson arrival times drawn from a seeded
// stream and are sent when due whether or not earlier replies have come
// back, so a stalled server builds a queue instead of slowing the load.
// Latency runs from a request's due time, so a stall also charges the
// requests it delayed; lateness (send time minus due time) says how far the
// generator itself fell behind.
//
// Between events the thread sleeps in ppoll(2) with a nanosecond timeout
// (and 1 ns timer slack), so it never spins and never steals cores from the
// in-process server.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

/// Seeded request picker: uniform over the pool when `skew` is 0, otherwise
/// zipf(skew) over a seeded shuffle of the pool (rank 1 = the first index of
/// the shuffle).
class RequestPicker {
 public:
  RequestPicker(std::size_t pool_size, double skew, std::uint64_t seed);
  std::uint32_t next();

 private:
  pg::Rng rng_;
  std::vector<std::uint32_t> order_;
  std::vector<double> cdf_;  // empty for uniform
};

struct PhaseResult {
  double seconds = 0.0;  // send window
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;       // correct predict replies
  std::uint64_t failed = 0;   // busy + errors + timeouts + mismatches
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t backlog_end = 0;    // outstanding when the send window closed
  std::vector<double> latency_us;   // ok replies
  std::vector<double> lateness_us;  // open loop: send time minus due time
  /// Per whole kRateWindowNs window of the send window: correct replies
  /// per second, and the median latency of the replies that arrived in it.
  std::vector<double> window_rate;
  std::vector<double> window_p50_us;
};

inline constexpr std::int64_t kRateWindowNs = 500'000'000;

class LoadGenerator {
 public:
  /// `pool` holds the request payloads (.psample bytes) and `expected` the
  /// reply each must get: {scaled, runtime_us}, compared bit for bit.
  LoadGenerator(std::uint16_t port, std::size_t connections,
                const std::vector<std::string>& pool,
                const std::vector<std::array<double, 2>>& expected);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Closed loop on the first `connections` connections, with `inflight`
  /// requests outstanding on each, for `seconds`; then waits up to
  /// `drain_seconds` for the last replies (late ones count as timeouts).
  /// With `trace_requests`, each answered request is one "serve.request"
  /// span.
  PhaseResult run_closed(std::size_t connections, std::size_t inflight,
                         double seconds,
                         double drain_seconds, RequestPicker& picker,
                         bool trace_requests);

  /// Open loop: Poisson arrivals at `rate` per second for `seconds`.
  PhaseResult run_open(double rate, double seconds, double drain_seconds,
                       RequestPicker& picker, pg::Rng& arrivals);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
