// Wire-format pins for the service's framed transports.
//
//  - Golden bytes: the exact octets TcpTransport::send_frame and an
//    EventServer response put on a socket, read back through raw sockets
//    and compared against hex literals, with and without the CRC trailer.
//  - Receiver parity: one table of hostile wire inputs fed to every
//    receiver (PipeTransport, TcpTransport, EventServer), each of which
//    must reach the same typed verdict.
//
// The frame images here are built by hand on purpose: they are the
// independent reference for the frame format, not a second client of the
// library's own encoder.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/crc32c.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

using Bytes = std::vector<std::uint8_t>;

/// The fixed 5-byte body every golden case sends.
const Bytes kBody = {0x01, 0x02, 0x03, 0x04, 0x05};

std::string hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t v : b) {
    out += digits[v >> 4];
    out += digits[v & 15];
  }
  return out;
}

Bytes le32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

/// u32 LE length prefix (bit 31 = CRC flag), body, optional CRC32C trailer.
Bytes wire_image(const Bytes& body, bool with_crc) {
  Bytes wire = le32(static_cast<std::uint32_t>(body.size()) |
                    (with_crc ? 0x80000000u : 0u));
  wire.insert(wire.end(), body.begin(), body.end());
  if (with_crc) {
    const Bytes trailer = le32(util::crc32c(body));
    wire.insert(wire.end(), trailer.begin(), trailer.end());
  }
  return wire;
}

Bytes cat(Bytes a, const Bytes& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Blocking read of exactly n bytes from a raw socket, giving up after
/// `timeout_ms` without progress. Returns what arrived.
Bytes read_raw(int fd, std::size_t n, int timeout_ms = 5000) {
  Bytes out(n);
  std::size_t got = 0;
  while (got < n) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) break;
    const ssize_t r = ::recv(fd, out.data() + got, n - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  out.resize(got);
  return out;
}

/// A raw loopback socket connected to `port`.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_raw_fd(int fd, const Bytes& b) {
  std::size_t off = 0;
  while (off < b.size()) {
    const ssize_t w = ::send(fd, b.data() + off, b.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

/// Server + event loop on a background thread, stopped on destruction.
struct EventHarness {
  svc::Server server;
  std::unique_ptr<svc::TcpListener> listener;
  std::unique_ptr<svc::EventServer> events;
  std::thread loop;

  EventHarness() {
    auto bound = svc::TcpListener::bind(0);
    EXPECT_TRUE(bound.ok());
    listener = std::move(*bound);
    events = std::make_unique<svc::EventServer>(server, *listener,
                                                svc::EventServer::Options{});
    loop = std::thread([this] { events->run(); });
  }
  ~EventHarness() {
    events->stop();
    loop.join();
  }
};

// ------------------------------------------------------- golden bytes ----

TEST(WireGolden, TcpSendFrameBytes) {
  const struct {
    bool crc;
    const char* golden;
  } cases[] = {
      {false, "050000000102030405"},
      {true, "050000800102030405ab8f5153"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.crc ? "with crc" : "without crc");
    auto listener = svc::TcpListener::bind(0);
    ASSERT_TRUE(listener.ok());
    auto sender = svc::TcpTransport::connect("127.0.0.1", (*listener)->port());
    ASSERT_TRUE(sender.ok());
    const int accepted = ::accept((*listener)->fd(), nullptr, nullptr);
    ASSERT_GE(accepted, 0);
    (*sender)->set_frame_crc(c.crc);
    ASSERT_TRUE((*sender)->send_frame(kBody).ok());
    (*sender)->shutdown();
    const std::string golden = c.golden;
    // Read one byte past the frame: EOF must follow it immediately.
    EXPECT_EQ(hex(read_raw(accepted, golden.size() / 2 + 1)), golden);
    ::close(accepted);
  }
}

/// The event server's answer to the fixed body (not a valid request, so
/// the answer is a deterministic typed error frame), read by a raw client.
/// A request with a trailer gets a trailer back; one without does not.
TEST(WireGolden, EventServerResponseBytes) {
  const struct {
    bool crc;
    const char* golden;
  } cases[] = {
      {false,
       "1d000000"
       "4145534601ff021573747265616d206d61676963206d69736d61746368"},
      {true,
       "1d000080"
       "4145534601ff021573747265616d206d61676963206d69736d61746368"
       "9884699d"},
  };
  EventHarness h;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.crc ? "with crc" : "without crc");
    const int fd = raw_connect(h.listener->port());
    ASSERT_GE(fd, 0);
    send_raw_fd(fd, wire_image(kBody, c.crc));
    ::shutdown(fd, SHUT_WR);
    const std::string golden = c.golden;
    // One byte past the frame: the server closes right after answering.
    EXPECT_EQ(hex(read_raw(fd, golden.size() / 2 + 1)), golden);
    ::close(fd);
  }
}

/// A stats response carries live gauges and latency rows, so its bytes
/// are not a fixed literal; its framing still is: the prefix counts the
/// body, the flag mirrors the request's, and the trailer is the body's
/// CRC32C.
TEST(WireGolden, EventServerStatsResponseFraming) {
  EventHarness h;
  for (const bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "with crc" : "without crc");
    const int fd = raw_connect(h.listener->port());
    ASSERT_GE(fd, 0);
    send_raw_fd(fd, wire_image(svc::encode_stats_request(), crc));
    const Bytes prefix = read_raw(fd, 4);
    ASSERT_EQ(prefix.size(), 4u);
    const std::uint32_t word = static_cast<std::uint32_t>(prefix[0]) |
                               static_cast<std::uint32_t>(prefix[1]) << 8 |
                               static_cast<std::uint32_t>(prefix[2]) << 16 |
                               static_cast<std::uint32_t>(prefix[3]) << 24;
    EXPECT_EQ((word & 0x80000000u) != 0, crc);
    const Bytes body = read_raw(fd, word & 0x7FFFFFFFu);
    ASSERT_EQ(body.size(), word & 0x7FFFFFFFu);
    EXPECT_TRUE(svc::parse_stats_response(body).ok());
    if (crc) {
      EXPECT_EQ(read_raw(fd, 4), le32(util::crc32c(body)));
    }
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(read_raw(fd, 1).empty());  // nothing after the frame
    ::close(fd);
  }
}

// --------------------------------------------------- receiver parity ----

/// One connection under test, driven from the hostile sender's side.
class Link {
 public:
  virtual ~Link() = default;
  /// Put raw bytes on the wire toward the receiver.
  virtual void send(const Bytes& bytes) = 0;
  /// The sender closes its write side.
  virtual void eof() = 0;
  /// The receiver's verdict on what it got next: kOk for an accepted
  /// frame, otherwise the typed code it surfaced.
  virtual ErrCode verdict() = 0;
};

/// Blocking transports: the verdict is what recv_frame() returns.
template <typename T>
class TransportLink final : public Link {
 public:
  TransportLink(std::unique_ptr<T> sender, std::unique_ptr<T> receiver)
      : sender_(std::move(sender)), receiver_(std::move(receiver)) {}
  void send(const Bytes& bytes) override { (void)sender_->send_raw(bytes); }
  void eof() override { sender_->shutdown(); }
  ErrCode verdict() override {
    const auto r = receiver_->recv_frame();
    if (r.ok()) {
      EXPECT_EQ(*r, svc::encode_stats_request());
    }
    return r.ok() ? ErrCode::kOk : r.status().code;
  }

 private:
  std::unique_ptr<T> sender_, receiver_;
};

std::unique_ptr<Link> pipe_link() {
  auto [a, b] = svc::PipeTransport::make_pair();
  return std::make_unique<TransportLink<svc::PipeTransport>>(std::move(a),
                                                              std::move(b));
}

std::unique_ptr<Link> tcp_link() {
  auto listener = svc::TcpListener::bind(0);
  EXPECT_TRUE(listener.ok());
  auto sender = svc::TcpTransport::connect("127.0.0.1", (*listener)->port());
  EXPECT_TRUE(sender.ok());
  auto receiver = (*listener)->accept();
  EXPECT_TRUE(receiver.ok());
  // A receiver that wrongly waits for more bytes fails as kTimeout
  // instead of hanging the suite.
  (*receiver)->set_recv_timeout_ms(5000);
  return std::make_unique<TransportLink<svc::TcpTransport>>(
      std::move(*sender), std::move(*receiver));
}

/// Event server: the verdict is the typed error frame it answers with, or
/// — when it closes without answering — the client's own recv status.
class EventLink final : public Link {
 public:
  explicit EventLink(EventHarness& h) {
    fd_ = raw_connect(h.listener->port());
    EXPECT_GE(fd_, 0);
    client_ = std::make_unique<svc::TcpTransport>(fd_);  // adopts fd_
    client_->set_recv_timeout_ms(5000);
  }
  void send(const Bytes& bytes) override { (void)client_->send_raw(bytes); }
  void eof() override { ::shutdown(fd_, SHUT_WR); }
  ErrCode verdict() override {
    const auto r = client_->recv_frame();
    if (!r.ok()) return r.status().code;
    if (const auto err = svc::parse_error_response(*r); err.ok())
      return err->code;
    EXPECT_TRUE(svc::parse_stats_response(*r).ok());
    return ErrCode::kOk;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<svc::TcpTransport> client_;
};

/// The same hostile wire inputs, the same typed verdict from every
/// receiver. The clean follow-up frame proves the connection stayed
/// synchronized where the table says it must.
TEST(ReceiverParity, HostileInputsGetTheSameCodeFromEveryReceiver) {
  const Bytes clean = svc::encode_stats_request();
  Bytes flipped = wire_image(clean, /*with_crc=*/true);
  flipped[4 + 2] ^= 0x10;  // one bit of the body, under an intact trailer
  const std::uint32_t over = static_cast<std::uint32_t>(svc::kMaxFrameBytes) + 1;

  const struct {
    const char* name;
    Bytes wire;
    bool eof;
    ErrCode want;
    bool then_clean;  // the same connection must still parse a clean frame
  } cases[] = {
      // Declared 4 GiB: rejected on the prefix alone, before the receiver
      // allocates the declared size.
      {"oversize prefix 0xFFFFFFFF", {0xFF, 0xFF, 0xFF, 0xFF}, false,
       ErrCode::kCorruptStream, false},
      {"oversize prefix cap+1", le32(over), false, ErrCode::kCorruptStream,
       false},
      {"oversize prefix cap+1 with crc flag", le32(over | 0x80000000u), false,
       ErrCode::kCorruptStream, false},
      {"flipped body bit under a trailer", flipped, false,
       ErrCode::kChecksumMismatch, true},
      {"eof mid-body", cat(le32(5), {1, 2}), true, ErrCode::kCorruptStream,
       false},
      {"eof mid-trailer", cat(le32(5 | 0x80000000u), {1, 2, 3, 4, 5, 6}),
       true, ErrCode::kCorruptStream, false},
      {"eof mid-prefix", {5, 0}, true, ErrCode::kIoError, false},
      {"eof between frames", {}, true, ErrCode::kIoError, false},
  };

  EventHarness h;
  const struct {
    const char* name;
    std::function<std::unique_ptr<Link>()> open;
  } receivers[] = {
      {"pipe", pipe_link},
      {"tcp", tcp_link},
      {"event", [&h]() -> std::unique_ptr<Link> {
         return std::make_unique<EventLink>(h);
       }},
  };

  for (const auto& rx : receivers) {
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(rx.name) + ": " + c.name);
      auto link = rx.open();
      link->send(c.wire);
      if (c.eof) link->eof();
      EXPECT_EQ(link->verdict(), c.want);
      if (c.then_clean) {
        link->send(wire_image(clean, /*with_crc=*/true));
        EXPECT_EQ(link->verdict(), ErrCode::kOk);
      }
    }
  }
}

}  // namespace
}  // namespace aesz
