#ifndef TFB_PIPELINE_TRANSPORT_H_
#define TFB_PIPELINE_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

/// \file
/// Message transport of the sharded executor (see DESIGN.md "Transport").
///
/// Every coordinator<->worker conversation — whether over the inherited
/// `socketpair(AF_UNIX)` of a forked worker or a TCP connection from a
/// remote `tfb_worker` — is a stream of length-prefixed, CRC32-trailed
/// frames:
///
///   +-------+-------+----------+-----------------+-----------+
///   | magic | type  | len (LE) | payload         | crc (LE)  |
///   | 2 B   | 1 B   | 4 B      | len bytes       | 4 B       |
///   +-------+-------+----------+-----------------+-----------+
///
/// magic = "TF"; crc = CRC32 (IEEE, reflected) over type+len+payload. A
/// receiver that sees a bad magic, an oversize length, or a CRC mismatch
/// cannot trust anything after it on the stream: the decoder reports
/// kCorrupt, the owner kills the connection, and recovery is the
/// reconnect/lease machinery of the shard layer — never a resync heuristic.
///
/// The `Transport` interface abstracts one established bidirectional frame
/// stream; `TcpListener` accepts new ones. `WrapWithFaultInjection`
/// decorates a transport with deterministic, seeded network-fault injection
/// (drops, delays, short writes, byte corruption, partitions) so every
/// failure mode the real network can produce is reproducible in a test.

namespace tfb::pipeline {

/// Frame type tags (the wire byte is the enum value).
enum class FrameType : std::uint8_t {
  kHello = 'H',      ///< worker->coord: "<version> <prev_epoch>"
  kWelcome = 'W',    ///< coord->worker: "<epoch> <hb_s>\n<runner options>"
  kHeartbeat = 'B',  ///< worker->coord: "<epoch>[\n<telemetry blob>]"
  kStart = 'S',      ///< worker->coord: "<epoch> <slot>"
  kRow = 'R',        ///< worker->coord: "<epoch> <slot> <ok> <fb> <secs>\n<row>"
  kDone = 'D',       ///< worker->coord: "<epoch> <shard>[\n<telemetry blob>]"
  kGrant = 'G',      ///< coord->worker: "<shard> <slot>..."
  kTask = 'T',       ///< coord->worker: "<slot>\n<marshalled task>"
  kQuit = 'Q',       ///< coord->worker: drain and exit
  kTraceCtx = 'C',   ///< coord->worker: "<trace_id> <parent_span>"
  kPing = 'P',       ///< coord->worker: opaque echo token (clock probe)
  kPong = 'O',       ///< worker->coord: "<echo token> <worker_now_us>"
};

/// One protocol message. Payloads are bytes, not text: several types carry
/// a one-line text header followed by raw (possibly binary) content.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// Frames above this payload size are rejected as corrupt (a flipped bit in
/// the length field must not make the decoder try to buffer gigabytes).
inline constexpr std::size_t kMaxFramePayload = std::size_t{64} << 20;

/// Serializes a frame to its wire form.
std::string EncodeFrame(const Frame& frame);

/// Incremental frame decoder. Feed() bytes as they arrive; Next() yields
/// decoded frames. Every possible input — random noise, truncated frames,
/// bit-flipped payloads, concatenated frames — resolves to clean-accept or
/// clean-reject (kCorrupt), never a crash or a partially applied frame
/// (pipeline_transport_test fuzzes exactly this contract under ASan+UBSan).
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< *out holds the next complete frame.
    kNeedMore,  ///< No complete frame buffered; Feed() more bytes.
    kCorrupt,   ///< Bad magic / oversize length / CRC mismatch. The stream
                ///< is unrecoverable; the connection must be killed.
  };

  void Feed(const char* data, std::size_t size) { buffer_.append(data, size); }
  Result Next(Frame* out, std::string* error = nullptr);

  /// Bytes buffered but not yet decoded (diagnostics).
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// One established frame stream between a coordinator and a worker.
/// Not thread-safe: callers that share a transport across threads (the
/// worker's heartbeat thread and its main loop) serialize Send externally.
class Transport {
 public:
  enum class RecvResult {
    kFrames,   ///< >= 1 frame appended to *out.
    kIdle,     ///< No data within the timeout.
    kEof,      ///< Peer closed the stream cleanly.
    kCorrupt,  ///< Framing/CRC violation; connection must be killed.
    kError,    ///< Socket error; connection must be killed.
  };

  virtual ~Transport() = default;

  /// Pollable descriptor (coordinator event loop), or -1 once closed.
  virtual int fd() const = 0;

  /// Sends one whole frame; false on any failure (the connection is then
  /// considered dying — the shard layer handles death and reconnect).
  virtual bool Send(const Frame& frame) = 0;

  /// Waits up to `timeout_ms` (-1 = forever, 0 = only drain what is already
  /// readable) and appends every complete frame to *out.
  virtual RecvResult Recv(std::vector<Frame>* out, int timeout_ms) = 0;

  /// Closes the stream (idempotent). shutdown()s the socket so a peer
  /// blocked in recv wakes with EOF even if another process holds a
  /// duplicate descriptor.
  virtual void Close() = 0;

  /// Human-readable endpoint ("socketpair", "tcp:127.0.0.1:4821").
  virtual std::string Describe() const = 0;
};

/// Wraps an already-connected SOCK_STREAM descriptor (either side of a
/// socketpair, or an accepted/connected TCP socket). Takes ownership.
std::unique_ptr<Transport> MakeFdTransport(int fd, std::string describe);

/// Connects to a TCP endpoint; nullptr (with *error set) on failure. When
/// connect() itself failed, errno holds its error on return (ECONNREFUSED:
/// nothing listens on the port).
std::unique_ptr<Transport> TcpConnect(const std::string& host,
                                      std::uint16_t port, std::string* error);

/// Listening TCP socket accepting worker connections.
class TcpListener {
 public:
  /// Binds and listens; nullptr (with *error set) on failure. Port 0 binds
  /// an ephemeral port (recover it with port()).
  static std::unique_ptr<TcpListener> Listen(const std::string& host,
                                             std::uint16_t port,
                                             std::string* error);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accepts one pending connection; nullptr when none is ready (the
  /// listener fd is level-triggered in the coordinator's poll set).
  std::unique_ptr<Transport> Accept();

  void Close();

 private:
  TcpListener() = default;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Deterministic network-fault plan. All decisions derive from a seeded
/// per-connection RNG plus per-connection frame counters, so a given
/// (plan, connection_id) pair always injects the same faults at the same
/// points — chaos runs are reproducible.
struct FaultPlan {
  std::uint64_t seed = 1;

  /// Per-frame probability of dropping the connection instead of sending
  /// (the peer sees a hard EOF mid-conversation).
  double drop = 0.0;
  /// Per-frame probability of flipping one byte of the encoded frame (the
  /// receiver's CRC check must reject it and kill the connection).
  double corrupt = 0.0;
  /// Per-frame probability of sending only a prefix of the frame and then
  /// dropping the connection (a torn frame on the receiver).
  double short_write = 0.0;
  /// Per-frame probability of sleeping `delay_ms` before the send.
  double delay = 0.0;
  double delay_ms = 5.0;

  /// Network partition: after `partition_after` non-heartbeat frames, every
  /// send (heartbeats included) is silently blackholed — Send() reports
  /// success, nothing reaches the peer — for `partition_frames` further
  /// non-heartbeat frames. The sender does not notice; the receiver's
  /// heartbeat timeout declares the connection dead and fences its lease.
  /// 0 = disabled. Counted per connection, heartbeats excluded, so the
  /// trigger point is deterministic regardless of heartbeat-thread timing.
  std::size_t partition_after = 0;
  std::size_t partition_frames = 0;

  bool any() const {
    return drop > 0.0 || corrupt > 0.0 || short_write > 0.0 || delay > 0.0 ||
           partition_frames > 0;
  }
};

/// Parses a `--chaos-net` spec: comma-separated fault classes with optional
/// `=value` overrides, e.g. "drop,corrupt=0.1,partition,seed=42".
/// Classes: drop, corrupt, short, delay (probabilities; bare class name
/// gives a default rate), partition (bare = after 8 frames for 6 frames;
/// partition=A:B overrides), delay_ms, seed. nullopt + *error on bad spec.
std::optional<FaultPlan> ParseFaultPlan(const std::string& spec,
                                        std::string* error);

/// Canonical spec string (diagnostics / round-trip).
std::string FaultPlanToString(const FaultPlan& plan);

/// Decorates `inner` with deterministic fault injection on the send path.
/// `connection_id` individualizes the fault schedule per connection (a
/// reconnected worker draws a fresh schedule).
std::unique_ptr<Transport> WrapWithFaultInjection(
    std::unique_ptr<Transport> inner, const FaultPlan& plan,
    std::uint64_t connection_id);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_TRANSPORT_H_
