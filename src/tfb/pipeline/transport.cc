#include "tfb/pipeline/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "tfb/base/crc32.h"
#include "tfb/pipeline/wire.h"
#include "tfb/stats/rng.h"

namespace tfb::pipeline {

namespace {

constexpr char kMagic0 = 'T';
constexpr char kMagic1 = 'F';
constexpr std::size_t kHeaderSize = 2 + 1 + 4;  // magic + type + len.
constexpr std::size_t kTrailerSize = 4;         // crc.

// Wall-time budget for flushing one frame on a non-blocking socket whose
// buffer is full (the peer is alive but slow to read).
constexpr int kSendBudgetMs = 10000;

void PutU32Le(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t GetU32Le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderSize + frame.payload.size() + kTrailerSize);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<char>(frame.type));
  PutU32Le(&out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  // CRC covers type + len + payload (everything after the magic).
  const std::uint32_t crc = base::Crc32(out.data() + 2, out.size() - 2);
  PutU32Le(&out, crc);
  return out;
}

FrameDecoder::Result FrameDecoder::Next(Frame* out, std::string* error) {
  if (buffer_.size() < kHeaderSize) return Result::kNeedMore;
  if (buffer_[0] != kMagic0 || buffer_[1] != kMagic1) {
    if (error != nullptr) *error = "bad frame magic";
    return Result::kCorrupt;
  }
  const std::uint32_t len = GetU32Le(buffer_.data() + 3);
  if (len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds cap";
    }
    return Result::kCorrupt;
  }
  const std::size_t total = kHeaderSize + len + kTrailerSize;
  if (buffer_.size() < total) return Result::kNeedMore;
  const std::uint32_t want = GetU32Le(buffer_.data() + kHeaderSize + len);
  const std::uint32_t got = base::Crc32(buffer_.data() + 2, 1 + 4 + len);
  if (want != got) {
    if (error != nullptr) *error = "frame crc mismatch";
    return Result::kCorrupt;
  }
  out->type = static_cast<FrameType>(buffer_[2]);
  out->payload.assign(buffer_.data() + kHeaderSize, len);
  buffer_.erase(0, total);
  return Result::kFrame;
}

// ---------------------------------------------------------------------------
// FdTransport: frames over any connected SOCK_STREAM descriptor.

namespace {

class FdTransport final : public Transport {
 public:
  FdTransport(int fd, std::string describe)
      : fd_(fd), describe_(std::move(describe)) {}
  ~FdTransport() override { Close(); }

  int fd() const override { return fd_; }

  bool Send(const Frame& frame) override {
    if (fd_ < 0) return false;
    const std::string wire = EncodeFrame(frame);
    return SendRaw(wire.data(), wire.size());
  }

  RecvResult Recv(std::vector<Frame>* out, int timeout_ms) override {
    if (fd_ < 0) return RecvResult::kError;
    bool got_frame = false;
    for (;;) {
      // Drain frames already buffered before touching the socket.
      Frame frame;
      std::string error;
      FrameDecoder::Result r = decoder_.Next(&frame, &error);
      while (r == FrameDecoder::Result::kFrame) {
        out->push_back(std::move(frame));
        got_frame = true;
        r = decoder_.Next(&frame, &error);
      }
      if (r == FrameDecoder::Result::kCorrupt) return RecvResult::kCorrupt;
      if (got_frame) return RecvResult::kFrames;

      pollfd pfd{fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return RecvResult::kError;
      }
      if (ready == 0) return RecvResult::kIdle;
      char chunk[8192];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return RecvResult::kEof;
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          // Spurious wakeup on a non-blocking fd; try again within budget.
          if (timeout_ms == 0) return RecvResult::kIdle;
          continue;
        }
        return RecvResult::kError;
      }
      decoder_.Feed(chunk, static_cast<std::size_t>(n));
    }
  }

  void Close() override {
    if (fd_ >= 0) {
      // shutdown() reaches the peer even when a forked child still holds a
      // duplicate of this descriptor; plain close() would not.
      shutdown(fd_, SHUT_RDWR);
      close(fd_);
      fd_ = -1;
    }
  }

  std::string Describe() const override { return describe_; }

 private:
  bool SendRaw(const char* p, std::size_t left) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kSendBudgetMs);
    while (left > 0) {
      const ssize_t n = send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (std::chrono::steady_clock::now() >= deadline) return false;
          pollfd pfd{fd_, POLLOUT, 0};
          poll(&pfd, 1, 50);
          continue;
        }
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  std::string describe_;
  FrameDecoder decoder_;
};

}  // namespace

std::unique_ptr<Transport> MakeFdTransport(int fd, std::string describe) {
  return std::make_unique<FdTransport>(fd, std::move(describe));
}

// ---------------------------------------------------------------------------
// TCP.

std::unique_ptr<Transport> TcpConnect(const std::string& host,
                                      std::uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad address: " + host;
    close(fd);
    return nullptr;
  }
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int connect_errno = errno;
    if (error != nullptr) {
      *error = "connect " + host + ":" + std::to_string(port) + ": " +
               strerror(connect_errno);
    }
    close(fd);
    errno = connect_errno;
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return MakeFdTransport(fd, "tcp:" + host + ":" + std::to_string(port));
}

TcpListener::~TcpListener() { Close(); }

std::unique_ptr<TcpListener> TcpListener::Listen(const std::string& host,
                                                 std::uint16_t port,
                                                 std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad bind address: " + host;
    close(fd);
    return nullptr;
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "bind " + host + ":" + std::to_string(port) + ": " +
               strerror(errno);
    }
    close(fd);
    return nullptr;
  }
  if (listen(fd, SOMAXCONN) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + strerror(errno);
    close(fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  std::uint16_t actual = port;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    actual = ntohs(bound.sin_port);
  }
  fcntl(fd, F_SETFD, FD_CLOEXEC);
  auto listener = std::unique_ptr<TcpListener>(new TcpListener());
  listener->fd_ = fd;
  listener->port_ = actual;
  return listener;
}

std::unique_ptr<Transport> TcpListener::Accept() {
  if (fd_ < 0) return nullptr;
  int client;
  do {
    client = accept(fd_, nullptr, nullptr);
  } while (client < 0 && errno == EINTR);
  if (client < 0) return nullptr;
  const int one = 1;
  setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return MakeFdTransport(client, "tcp:accepted:" + std::to_string(client));
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Fault injection.

namespace {

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner,
                          const FaultPlan& plan, std::uint64_t connection_id)
      : inner_(std::move(inner)),
        plan_(plan),
        rng_(plan.seed * 0x9E3779B97F4A7C15ULL + connection_id + 1) {}

  int fd() const override { return inner_->fd(); }

  bool Send(const Frame& frame) override {
    const bool heartbeat = frame.type == FrameType::kHeartbeat;
    // The partition counter deliberately excludes heartbeats (sent from a
    // timer thread) so the trigger point is deterministic for a given
    // protocol flow regardless of thread scheduling.
    if (!heartbeat) ++data_frames_;
    if (plan_.partition_frames > 0 && data_frames_ > plan_.partition_after &&
        data_frames_ <= plan_.partition_after + plan_.partition_frames) {
      // Blackhole: pretend success. The peer's heartbeat timeout is the
      // only way this failure mode is ever discovered — exactly like a
      // real network partition.
      return true;
    }
    if (plan_.delay > 0.0 && Chance(plan_.delay)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan_.delay_ms));
    }
    if (plan_.drop > 0.0 && Chance(plan_.drop)) {
      inner_->Close();
      return false;
    }
    std::string wire = EncodeFrame(frame);
    if (plan_.short_write > 0.0 && Chance(plan_.short_write) &&
        wire.size() > 1) {
      // Deliver a strict prefix, then drop the connection: the receiver
      // holds a torn frame it must discard cleanly.
      const std::size_t cut = 1 + NextBelow(wire.size() - 1);
      SendBytes(wire.substr(0, cut));
      inner_->Close();
      return false;
    }
    if (plan_.corrupt > 0.0 && Chance(plan_.corrupt)) {
      const std::size_t pos = NextBelow(wire.size());
      const unsigned bit = static_cast<unsigned>(NextBelow(8));
      wire[pos] = static_cast<char>(wire[pos] ^ (1u << bit));
      return SendBytes(wire);
    }
    return SendBytes(wire);
  }

  RecvResult Recv(std::vector<Frame>* out, int timeout_ms) override {
    return inner_->Recv(out, timeout_ms);
  }

  void Close() override { inner_->Close(); }

  std::string Describe() const override {
    return inner_->Describe() + "+chaos";
  }

 private:
  bool Chance(double p) { return rng_.Uniform() < p; }
  std::size_t NextBelow(std::size_t n) {
    return n == 0 ? 0 : rng_.UniformInt(n);
  }
  // Bypasses inner_->Send (the frame is already — possibly mutated — wire
  // bytes): re-encode-free raw write through a scratch frame is impossible,
  // so poke the bytes at the fd directly.
  bool SendBytes(const std::string& wire) {
    const int fd = inner_->fd();
    if (fd < 0) return false;
    const char* p = wire.data();
    std::size_t left = wire.size();
    while (left > 0) {
      const ssize_t n = send(fd, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          pollfd pfd{fd, POLLOUT, 0};
          poll(&pfd, 1, 50);
          continue;
        }
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  stats::Rng rng_;
  std::size_t data_frames_ = 0;
};

}  // namespace

std::optional<FaultPlan> ParseFaultPlan(const std::string& spec,
                                        std::string* error) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    // Trim surrounding whitespace.
    while (!item.empty() && std::isspace(static_cast<unsigned char>(
                                item.front()))) {
      item.erase(item.begin());
    }
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    if (item.empty()) continue;
    std::string key = item;
    std::string value;
    if (const std::size_t eq = item.find('='); eq != std::string::npos) {
      key = item.substr(0, eq);
      value = item.substr(eq + 1);
    }
    auto rate = [&](double* field, double fallback) {
      if (value.empty()) {
        *field = fallback;
        return true;
      }
      const auto v = ParseStrictDouble(value);
      if (!v || *v < 0.0 || *v > 1.0) return false;
      *field = *v;
      return true;
    };
    bool ok = true;
    if (key == "drop") {
      ok = rate(&plan.drop, 0.05);
    } else if (key == "corrupt") {
      ok = rate(&plan.corrupt, 0.05);
    } else if (key == "short") {
      ok = rate(&plan.short_write, 0.05);
    } else if (key == "delay") {
      ok = rate(&plan.delay, 0.25);
    } else if (key == "delay_ms") {
      const auto v = ParseStrictDouble(value);
      ok = v && *v >= 0.0;
      if (ok) plan.delay_ms = *v;
    } else if (key == "partition") {
      if (value.empty()) {
        plan.partition_after = 8;
        plan.partition_frames = 6;
      } else {
        const std::size_t colon = value.find(':');
        const std::string_view text = value;
        const auto after = ParseSizeFields(text.substr(0, colon), 1, 1);
        const auto frames =
            colon == std::string::npos
                ? std::nullopt
                : ParseSizeFields(text.substr(colon + 1), 1, 1);
        ok = after && frames && (*frames)[0] > 0;
        if (ok) {
          plan.partition_after = (*after)[0];
          plan.partition_frames = (*frames)[0];
        }
      }
    } else if (key == "seed") {
      const auto v = ParseSizeFields(value, 1, 1);
      ok = v.has_value();
      if (ok) plan.seed = (*v)[0];
    } else {
      ok = false;
    }
    if (!ok) {
      if (error != nullptr) *error = "bad chaos-net item: " + item;
      return std::nullopt;
    }
  }
  return plan;
}

std::string FaultPlanToString(const FaultPlan& plan) {
  std::string out = "seed=" + std::to_string(plan.seed);
  char buf[64];
  auto add = [&](const char* key, double v) {
    if (v <= 0.0) return;
    std::snprintf(buf, sizeof(buf), ",%s=%g", key, v);
    out += buf;
  };
  add("drop", plan.drop);
  add("corrupt", plan.corrupt);
  add("short", plan.short_write);
  add("delay", plan.delay);
  if (plan.delay > 0.0) add("delay_ms", plan.delay_ms);
  if (plan.partition_frames > 0) {
    out += ",partition=" + std::to_string(plan.partition_after) + ":" +
           std::to_string(plan.partition_frames);
  }
  return out;
}

std::unique_ptr<Transport> WrapWithFaultInjection(
    std::unique_ptr<Transport> inner, const FaultPlan& plan,
    std::uint64_t connection_id) {
  if (!plan.any()) return inner;
  return std::make_unique<FaultInjectingTransport>(std::move(inner), plan,
                                                   connection_id);
}

}  // namespace tfb::pipeline
