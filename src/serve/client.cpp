#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/wire.hpp"
#include "support/codec.hpp"

namespace hpf90d::serve {

ServeClient::ServeClient(std::string socket_path, std::string tenant)
    : socket_path_(std::move(socket_path)), tenant_(std::move(tenant)) {}

ServeClient::~ServeClient() { close(); }

void ServeClient::connect() {
  const int attempts = retry_.attempts < 1 ? 1 : retry_.attempts;
  for (int i = 0;; ++i) {
    try {
      connect_once();
      return;
    } catch (const WireError&) {
      if (i + 1 >= attempts) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long long>(retry_.backoff_ms) << i));
    }
  }
}

void ServeClient::connect_once() {
  if (fd_ >= 0) return;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof addr.sun_path) {
    throw WireError("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw WireError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw WireError("cannot connect to " + socket_path_ + ": " + why);
  }
  fd_ = fd;
  try {
    const Frame ack = roundtrip({MsgType::Hello, tenant_});
    if (ack.type != MsgType::HelloAck) {
      throw WireError("handshake refused: " + ack.payload);
    }
  } catch (...) {
    close();
    throw;
  }
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Frame ServeClient::roundtrip(const Frame& request) {
  if (fd_ < 0) throw WireError("not connected");
  write_frame(fd_, request);
  return read_frame(fd_);
}

Frame ServeClient::roundtrip_retrying(const Frame& request) {
  // Transport failure (daemon restarted, socket gone) drops the dead
  // socket and re-handshakes on a fresh one before re-sending. Requests
  // routed here are idempotent or coalesced server-side, so a re-send
  // after a lost reply is safe.
  const int attempts = retry_.attempts < 1 ? 1 : retry_.attempts;
  for (int i = 0;; ++i) {
    try {
      if (fd_ < 0) connect_once();
      return roundtrip(request);
    } catch (const WireError&) {
      close();
      if (i + 1 >= attempts) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long long>(retry_.backoff_ms) << i));
    }
  }
}

namespace {

std::uint64_t expect_submitted(const Frame& reply) {
  if (reply.type == MsgType::Error) throw std::runtime_error(reply.payload);
  if (reply.type != MsgType::Submitted) {
    throw WireError("unexpected reply to submit");
  }
  const auto id = support::parse_uint(reply.payload);
  if (!id) throw WireError("malformed job id: " + reply.payload);
  return *id;
}

}  // namespace

std::uint64_t ServeClient::submit(const api::ExperimentPlan& plan) {
  return expect_submitted(roundtrip_retrying({MsgType::SubmitPlan, encode_plan(plan)}));
}

std::uint64_t ServeClient::submit(const study::StudyPlan& plan) {
  return expect_submitted(roundtrip_retrying({MsgType::SubmitStudy, encode_study(plan)}));
}

JobResult ServeClient::wait(std::uint64_t job_id) {
  const Frame reply = roundtrip({MsgType::Wait, std::to_string(job_id)});
  if (reply.type == MsgType::Error) throw std::runtime_error(reply.payload);
  if (reply.type != MsgType::Result) throw WireError("unexpected reply to wait");
  const JobOutcome outcome = decode_outcome(reply.payload);

  JobResult result;
  result.state = outcome.state;
  result.is_study = outcome.is_study;
  result.error = outcome.error;
  result.wall_seconds = outcome.wall_seconds;
  if (outcome.state == "done") {
    if (outcome.is_study) {
      result.study = study::StudyResult::from_csv(outcome.body_csv);
      result.study.report.cache = outcome.cache;
      result.study.report.wall_seconds = outcome.wall_seconds;
    } else {
      result.report = api::RunReport::from_csv(outcome.body_csv);
      result.report.title = outcome.title;
      result.report.cache = outcome.cache;
      result.report.wall_seconds = outcome.wall_seconds;
    }
  }
  return result;
}

std::string ServeClient::status(std::uint64_t job_id) {
  const Frame reply = roundtrip_retrying({MsgType::Status, std::to_string(job_id)});
  if (reply.type == MsgType::Error) throw std::runtime_error(reply.payload);
  if (reply.type != MsgType::StatusReply) throw WireError("unexpected status reply");
  return reply.payload;
}

bool ServeClient::cancel(std::uint64_t job_id) {
  const Frame reply = roundtrip({MsgType::Cancel, std::to_string(job_id)});
  if (reply.type != MsgType::CancelReply) throw WireError("unexpected cancel reply");
  return reply.payload == "cancelled";
}

ServerStats ServeClient::stats() {
  const Frame reply = roundtrip_retrying({MsgType::Stats, {}});
  if (reply.type != MsgType::StatsReply) throw WireError("unexpected stats reply");
  return decode_stats(reply.payload);
}

std::string ServeClient::metrics() {
  const Frame reply = roundtrip_retrying({MsgType::Metrics, {}});
  if (reply.type != MsgType::MetricsReply) throw WireError("unexpected metrics reply");
  return reply.payload;
}

std::vector<ServerStats> ServeClient::stats_stream(int count, int interval_ms,
                                                   bool on_change) {
  // The request itself retries; once the burst starts, a mid-stream
  // failure propagates (a retry would double snapshots already consumed).
  if (fd_ < 0) connect();
  std::string request =
      std::to_string(count) + ' ' + std::to_string(interval_ms);
  if (on_change) request += " changed";
  write_frame(fd_, Frame{MsgType::StatsStream, request});
  std::vector<ServerStats> out;
  for (;;) {
    const Frame frame = read_frame(fd_);
    if (frame.type == MsgType::StatsStreamEnd) return out;
    if (frame.type == MsgType::Error) throw std::runtime_error(frame.payload);
    if (frame.type != MsgType::StatsReply) {
      throw WireError("unexpected frame in stats stream");
    }
    out.push_back(decode_stats(frame.payload));
  }
}

void ServeClient::shutdown_server() {
  const Frame reply = roundtrip({MsgType::Shutdown, {}});
  if (reply.type != MsgType::ShutdownAck) throw WireError("unexpected shutdown reply");
}

}  // namespace hpf90d::serve
