// wire.hpp — the experiment service's framed wire protocol.
//
// The daemon (server.hpp) and its clients speak length-prefixed frames
// over a Unix-domain stream socket. A frame is a fixed 12-byte header —
// magic "HPFD", a protocol version, a message type, a payload length, all
// little-endian — followed by the payload bytes. Payloads are the plan
// codec's (plan_codec.hpp) deterministic text encodings, so the protocol
// stays debuggable with `xxd` while the framing keeps message boundaries
// exact under arbitrary kernel segmentation.
//
// Robustness contract: try_read_frame validates a header before it waits
// for any payload, rejects bad magic / unsupported versions / oversized
// payloads with WireError (the connection is then dropped — framing cannot
// be resynchronized), and treats a stream that ends inside a frame as a
// WireError too: only a close at a frame boundary is a clean end.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hpf90d::serve {

/// Protocol violation, I/O failure, or peer disconnect.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr char kMagic[4] = {'H', 'P', 'F', 'D'};
constexpr std::uint16_t kWireVersion = 1;
/// Upper bound on a payload; a header announcing more is a protocol
/// violation (protects the reader from hostile/corrupt length fields).
constexpr std::uint32_t kMaxPayload = 64u << 20;
constexpr std::size_t kHeaderSize = 12;

enum class MsgType : std::uint16_t {
  Hello = 1,      // client -> server: tenant name
  HelloAck = 2,   // server -> client: server banner
  SubmitPlan = 3, // client -> server: encoded ExperimentPlan
  SubmitStudy = 4,// client -> server: encoded StudyPlan
  Submitted = 5,  // server -> client: job id (decimal)
  Status = 6,     // client -> server: job id
  StatusReply = 7,// server -> client: job state name
  Wait = 8,       // client -> server: job id; blocks until terminal
  Result = 9,     // server -> client: encoded JobOutcome
  Cancel = 10,    // client -> server: job id
  CancelReply = 11, // server -> client: "cancelled" | "late" | "unknown"
  Stats = 12,     // client -> server: empty
  StatsReply = 13,// server -> client: encoded ServerStats
  Shutdown = 14,  // client -> server: empty; server stops after ack
  ShutdownAck = 15,
  Error = 16,     // server -> client: human-readable refusal
  // telemetry endpoint (stats codec v4)
  Metrics = 17,       // client -> server: empty; asks for Prometheus text
  MetricsReply = 18,  // server -> client: Prometheus exposition (metrics.hpp)
  StatsStream = 19,   // client -> server: "<count> <interval_ms> [changed]";
                      // the server pushes up to `count` StatsReply frames at
                      // the interval — all of them, or with the "changed"
                      // flag only snapshots whose activity counters moved
                      // since the last push (the first is always pushed)
  StatsStreamEnd = 20,// server -> client: terminates a StatsStream burst
};

struct Frame {
  MsgType type = MsgType::Error;
  std::string payload;
};

/// Serializes header + payload. Throws WireError when the payload exceeds
/// kMaxPayload.
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Blocking frame write on a connected socket (MSG_NOSIGNAL — a dead peer
/// raises WireError, not SIGPIPE).
void write_frame(int fd, const Frame& frame);

enum class ReadStatus { Ok, Eof, Timeout };

/// Reads exactly one frame. `timeout_ms` < 0 blocks indefinitely; the
/// timeout applies per poll wait, and Eof is only reported on a clean
/// close at a frame boundary (mid-frame EOF is a WireError). Protocol
/// violations throw WireError.
[[nodiscard]] ReadStatus try_read_frame(int fd, Frame& out, int timeout_ms = -1);

/// try_read_frame that treats Eof/Timeout as errors — the client-side
/// convenience (a request was sent; a reply is owed).
[[nodiscard]] Frame read_frame(int fd, int timeout_ms = -1);

}  // namespace hpf90d::serve
