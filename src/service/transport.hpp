#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/expected.hpp"

namespace aesz::service {

/// Bidirectional, frame-oriented byte transport between a client and a
/// server, in the wire format of frame.hpp. recv_frame() validates the
/// declared length BEFORE allocating, so a hostile peer cannot trigger an
/// unbounded allocation with a 4-byte prefix.
///
/// Threading contract: one thread may send while another receives (the
/// server's pipelined response writer depends on full-duplex operation),
/// but concurrent sends — or concurrent receives — need external
/// serialization.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Deliver one frame. kIoError when the peer is gone.
  virtual Status send_frame(std::span<const std::uint8_t> frame) = 0;

  /// Block for the next frame. kIoError on orderly close / lost peer,
  /// including a close part-way through the length prefix; kCorruptStream
  /// on an un-resynchronizable framing violation (oversized declared
  /// length, close after the prefix but before the frame's last byte).
  virtual Expected<std::vector<std::uint8_t>> recv_frame() = 0;

  /// Unblock any pending recv_frame on both ends and refuse further
  /// traffic. Idempotent.
  virtual void shutdown() = 0;

  /// Opt into frame integrity: send_frame flags the prefix and appends a
  /// CRC32C trailer (frame.hpp). Receivers ALWAYS accept both forms, and
  /// receiving one checksummed frame turns the switch on — so a server
  /// built on raw transports echoes trailers to any peer that sends them.
  /// A no-op for transports (wrappers, test doubles) that do not frame
  /// bytes themselves.
  virtual void set_frame_crc(bool) {}
  virtual bool frame_crc() const { return false; }
};

/// A Transport over a blocking byte stream: the one blocking frame reader
/// and writer, on top of two byte primitives a subclass supplies. It owns the send-side size
/// check (kInvalidArgument), the prefix/body/trailer reads, one error
/// mapping (EOF before a whole prefix kIoError, EOF mid-frame
/// kCorruptStream, a stalled read kTimeout) and the sticky CRC switch.
class StreamTransport : public Transport {
 public:
  Status send_frame(std::span<const std::uint8_t> frame) final;
  Expected<std::vector<std::uint8_t>> recv_frame() final;
  void set_frame_crc(bool on) final { crc_.store(on); }
  bool frame_crc() const final { return crc_.load(); }

  /// Put raw bytes on the wire with NO length prefix. send_frame writes
  /// through it; tests and fault injectors use it to present hostile or
  /// truncated prefixes and frames split at arbitrary byte boundaries.
  virtual Status send_raw(std::span<const std::uint8_t> bytes) = 0;

 protected:
  enum class ReadResult { kOk, kEof, kTimeout };
  /// Block until exactly `n` bytes are copied to `dst`.
  virtual ReadResult read_exact(std::uint8_t* dst, std::size_t n) = 0;

 private:
  std::atomic<bool> crc_{false};
};

namespace detail {
/// One direction of an in-process pipe: an unbounded byte FIFO with
/// blocking reads and a closed flag (reads drain remaining bytes first).
class ByteChannel;
}  // namespace detail

/// In-process transport for deterministic tests: a pair of endpoints
/// connected by two byte FIFOs, no sockets involved. The wire format is
/// byte-exact with the TCP transport, so framing violations (a hostile
/// length prefix injected via send_raw) exercise the same validation path.
class PipeTransport final : public StreamTransport {
 public:
  /// Two connected endpoints; frames sent on one arrive at the other.
  static std::pair<std::unique_ptr<PipeTransport>,
                   std::unique_ptr<PipeTransport>>
  make_pair();

  void shutdown() override;
  Status send_raw(std::span<const std::uint8_t> bytes) override;

 protected:
  ReadResult read_exact(std::uint8_t* dst, std::size_t n) override;

 private:
  PipeTransport(std::shared_ptr<detail::ByteChannel> in,
                std::shared_ptr<detail::ByteChannel> out);

  std::shared_ptr<detail::ByteChannel> in_, out_;
};

/// TCP loopback transport over a connected socket. Construction paths:
/// TcpListener::accept() on the server side, TcpTransport::connect() on
/// the client side. Close/shutdown use ::shutdown so a blocked recv on
/// another thread returns instead of hanging.
class TcpTransport final : public StreamTransport {
 public:
  /// Connect to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Expected<std::unique_ptr<TcpTransport>> connect(
      const std::string& host, std::uint16_t port);

  /// Adopt an already-connected socket (the listener's accept path).
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void shutdown() override;
  Status send_raw(std::span<const std::uint8_t> bytes) override;

  /// Bound how long recv_frame() blocks waiting for bytes (a poll() ahead
  /// of every recv). A hung or wedged peer surfaces as a typed kTimeout
  /// instead of a hang; -1 (the default) blocks forever. The timeout is
  /// per read-progress, not per frame: a slow-but-moving multi-megabyte
  /// frame is fine as long as no single stall exceeds the budget.
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_.store(ms); }

 protected:
  ReadResult read_exact(std::uint8_t* dst, std::size_t n) override;

 private:
  int fd_ = -1;
  std::atomic<int> recv_timeout_ms_{-1};
};

/// Loopback (127.0.0.1) listening socket. `port == 0` binds an ephemeral
/// port; port() reports the one the kernel assigned, for clients and port
/// files.
class TcpListener {
 public:
  static Expected<std::unique_ptr<TcpListener>> bind(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Underlying listening socket, for readiness-based accept loops (the
  /// event server polls this instead of blocking in accept()). -1 after
  /// close(). The listener keeps ownership.
  int fd() const { return fd_; }

  /// Block for the next connection. kIoError after close().
  Expected<std::unique_ptr<TcpTransport>> accept();

  /// Stop listening and unblock a pending accept(). Idempotent.
  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace aesz::service
