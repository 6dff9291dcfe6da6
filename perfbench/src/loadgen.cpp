#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/uio.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/frame_assembler.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

RequestPicker::RequestPicker(std::size_t pool_size, double skew,
                             std::uint64_t seed)
    : rng_(seed), order_(pool_size) {
  std::iota(order_.begin(), order_.end(), 0u);
  if (skew <= 0.0) return;
  rng_.shuffle(order_);
  cdf_.resize(pool_size);
  double total = 0.0;
  for (std::size_t i = 0; i < pool_size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t RequestPicker::next() {
  if (cdf_.empty())
    return static_cast<std::uint32_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(order_.size()) - 1));
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), order_.size() - 1);
  return order_[rank];
}

namespace {

struct Outstanding {
  std::int64_t due_ns = 0;
  std::uint32_t pool_index = 0;
  bool done = false;
};

struct SendItem {
  std::array<std::uint8_t, pg::serve::kFrameHeaderBytes> header{};
  const std::string* payload = nullptr;
  std::size_t offset = 0;  // bytes of header + payload already written
  [[nodiscard]] std::size_t total() const {
    return header.size() + payload->size();
  }
};

struct Connection {
  std::unique_ptr<pg::serve::Client> client;  // owns the connected socket
  pg::serve::FrameAssembler assembler;
  std::deque<SendItem> send_queue;
};

}  // namespace

struct LoadGenerator::Impl {
  const std::vector<std::string>& pool;
  const std::vector<std::array<double, 2>>& expected;
  std::vector<Connection> conns;
  std::uint64_t next_id = 1;
  std::uint64_t phase_first_id = 1;
  std::int64_t phase_start_ns = 0;
  std::vector<std::vector<double>> window_latency;  // per rate window
  std::vector<Outstanding> table;  // indexed by id - phase_first_id
  std::vector<std::uint8_t> read_buf = std::vector<std::uint8_t>(1 << 16);
  std::vector<pg::serve::FrameAssembler::Frame> frames;
  bool trace_requests = false;

  Impl(const std::vector<std::string>& p,
       const std::vector<std::array<double, 2>>& e)
      : pool(p), expected(e) {}

  /// Writes as much of the connection's queue as the socket takes.
  void flush(Connection& c) {
    while (!c.send_queue.empty()) {
      iovec iov[32];
      int n = 0;
      for (auto it = c.send_queue.begin();
           it != c.send_queue.end() && n + 2 <= 32; ++it) {
        std::size_t off = it->offset;
        if (off < it->header.size()) {
          iov[n++] = {it->header.data() + off, it->header.size() - off};
          off = 0;
        } else {
          off -= it->header.size();
        }
        iov[n++] = {const_cast<char*>(it->payload->data()) + off,
                    it->payload->size() - off};
      }
      std::size_t wrote = c.client->socket().write_some(iov, n);
      if (wrote == 0) return;
      while (wrote > 0) {
        SendItem& front = c.send_queue.front();
        const std::size_t left = front.total() - front.offset;
        if (wrote >= left) {
          wrote -= left;
          c.send_queue.pop_front();
        } else {
          front.offset += wrote;
          wrote = 0;
        }
      }
    }
  }

  /// Queues one request on connection `i`, due at `due_ns`.
  void send(std::size_t i, std::int64_t due_ns, RequestPicker& picker,
            PhaseResult& out) {
    const std::uint32_t index = picker.next();
    const std::uint64_t id = next_id++;
    table.push_back({due_ns, index, false});
    SendItem item;
    pg::serve::FrameHeader header;
    header.kind = pg::serve::FrameKind::kPredictRequest;
    header.request_id = id;
    header.payload_bytes = pool[index].size();
    pg::serve::encode_header(header, item.header.data());
    item.payload = &pool[index];
    conns[i].send_queue.push_back(item);
    flush(conns[i]);
    ++out.sent;
  }

  /// Settles one reply; false for a reply to an earlier phase (already
  /// counted there as a timeout).
  bool handle_reply(const pg::serve::FrameAssembler::Frame& frame,
                    PhaseResult& out, std::int64_t now) {
    const std::uint64_t id = frame.header.request_id;
    if (id < phase_first_id || id - phase_first_id >= table.size())
      return false;
    Outstanding& o = table[id - phase_first_id];
    if (o.done) return false;
    o.done = true;
    switch (frame.header.kind) {
      case pg::serve::FrameKind::kPredictReply: {
        const auto reply = pg::serve::decode_predict_reply_payload(
            reinterpret_cast<const std::uint8_t*>(frame.payload.data()),
            frame.payload.size());
        const auto& want = expected[o.pool_index];
        if (!reply || std::memcmp(&reply->scaled, &want[0], 8) != 0 ||
            std::memcmp(&reply->runtime_us, &want[1], 8) != 0) {
          ++out.mismatches;
          ++out.failed;
          return true;
        }
        ++out.ok;
        out.latency_us.push_back(static_cast<double>(now - o.due_ns) * 1e-3);
        if (const auto w = static_cast<std::size_t>((now - phase_start_ns) /
                                                    kRateWindowNs);
            w < window_latency.size())
          window_latency[w].push_back(out.latency_us.back());
        if (trace_requests)
          trace::record("serve.request", trace::new_id(), 0, id, o.due_ns,
                        now);
        return true;
      }
      case pg::serve::FrameKind::kBusyReply:
        ++out.busy;
        ++out.failed;
        return true;
      default:
        ++out.errors;
        ++out.failed;
        return true;
    }
  }

  /// Reads every reply the connection has buffered; returns how many
  /// requests of this phase they settled.
  std::size_t drain_readable(Connection& c, PhaseResult& out) {
    std::size_t settled = 0;
    for (;;) {
      const auto r =
          c.client->socket().read_some(read_buf.data(), read_buf.size());
      if (r.status != pg::serve::Socket::ReadStatus::kData) {
        if (r.status == pg::serve::Socket::ReadStatus::kEof)
          throw pg::serve::SocketError("server closed a load connection");
        return settled;
      }
      frames.clear();
      if (!c.assembler.consume(read_buf.data(), r.bytes, frames))
        throw pg::serve::SocketError("malformed reply stream");
      const std::int64_t now = now_ns();
      for (const auto& f : frames) settled += handle_reply(f, out, now);
    }
  }

  /// The event loop of both modes. Open loop (`arrivals` set): requests are
  /// due at Poisson times of `rate`, round-robin over the connections.
  /// Closed loop: each of the first `active` connections starts with
  /// `inflight` requests and each reply on it sends its next one.
  PhaseResult loop(double seconds, double drain_seconds, RequestPicker& picker,
                   pg::Rng* arrivals, double rate, std::size_t active,
                   std::size_t inflight) {
    const bool open = arrivals != nullptr;
    PhaseResult out;
    out.seconds = seconds;
    phase_first_id = next_id;
    table.clear();

    // ppoll's timeout is rounded up by the thread's timer slack (50 us by
    // default); 1 ns makes wake-ups land on the due time.
    const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);

    auto gap_ns = [&] {
      const double u = arrivals->uniform();
      return static_cast<std::int64_t>(-std::log1p(-u) / rate * 1e9);
    };
    const std::int64_t start = now_ns();
    const std::int64_t send_end =
        start + static_cast<std::int64_t>(seconds * 1e9);
    phase_start_ns = start;
    window_latency.assign(
        static_cast<std::size_t>((send_end - start) / kRateWindowNs), {});
    std::int64_t drain_end = 0;
    std::int64_t next_due = open ? start + gap_ns() : 0;
    std::size_t next_conn = 0;
    bool sending = true;
    auto stop_sending = [&](std::int64_t now) {
      sending = false;
      out.backlog_end = out.sent - out.ok - out.failed;
      drain_end = now + static_cast<std::int64_t>(drain_seconds * 1e9);
    };
    if (!open)
      for (std::size_t i = 0; i < active; ++i)
        for (std::size_t k = 0; k < inflight; ++k) send(i, start, picker, out);
    std::vector<pollfd> fds(conns.size());

    for (;;) {
      std::int64_t now = now_ns();
      if (sending && now >= send_end) stop_sending(now);
      while (open && sending && now >= next_due) {
        send(next_conn, next_due, picker, out);
        out.lateness_us.push_back(static_cast<double>(now - next_due) * 1e-3);
        next_conn = (next_conn + 1) % conns.size();
        next_due += gap_ns();
        if (next_due >= send_end) stop_sending(now);
        now = now_ns();
      }
      const std::uint64_t outstanding = out.sent - out.ok - out.failed;
      if (!sending && outstanding == 0) break;
      if (!sending && now >= drain_end) {
        out.timeouts = outstanding;
        out.failed += outstanding;
        break;
      }
      const std::int64_t until =
          !sending ? drain_end : open ? next_due : send_end;
      const std::int64_t wait_ns = std::max<std::int64_t>(0, until - now);
      for (std::size_t i = 0; i < conns.size(); ++i) {
        fds[i].fd = conns[i].client->socket().fd();
        fds[i].events = static_cast<short>(
            POLLIN | (conns[i].send_queue.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                        static_cast<long>(wait_ns % 1000000000)};
      const int ready =
          ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &ts, nullptr);
      if (ready <= 0) continue;  // timeout (or EINTR): something is due
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (fds[i].revents & POLLOUT) flush(conns[i]);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const std::size_t settled = drain_readable(conns[i], out);
        if (open || !sending) continue;
        const std::int64_t t = now_ns();
        for (std::size_t k = 0; k < settled; ++k) send(i, t, picker, out);
      }
    }
    prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
    for (const auto& w : window_latency) {
      out.window_rate.push_back(static_cast<double>(w.size()) * 1e9 /
                                kRateWindowNs);
      if (!w.empty()) out.window_p50_us.push_back(median(w));
    }
    return out;
  }
};

LoadGenerator::LoadGenerator(
    std::uint16_t port, std::size_t connections,
    const std::vector<std::string>& pool,
    const std::vector<std::array<double, 2>>& expected)
    : impl_(std::make_unique<Impl>(pool, expected)) {
  impl_->conns.resize(connections);
  for (Connection& c : impl_->conns) {
    c.client = std::make_unique<pg::serve::Client>(port);
    c.client->socket().set_nodelay(true);
    c.client->socket().set_nonblocking(true);
  }
}

LoadGenerator::~LoadGenerator() = default;

PhaseResult LoadGenerator::run_closed(std::size_t connections,
                                      std::size_t inflight, double seconds,
                                      double drain_seconds,
                                      RequestPicker& picker,
                                      bool trace_requests) {
  impl_->trace_requests = trace_requests;
  return impl_->loop(seconds, drain_seconds, picker, nullptr, 0.0,
                     std::min(connections, impl_->conns.size()), inflight);
}

PhaseResult LoadGenerator::run_open(double rate, double seconds,
                                    double drain_seconds, RequestPicker& picker,
                                    pg::Rng& arrivals) {
  impl_->trace_requests = false;
  return impl_->loop(seconds, drain_seconds, picker, &arrivals, rate, 0, 0);
}

}  // namespace perfbench
