#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "service/frame.hpp"

namespace aesz::service {

namespace detail {

class ByteChannel {
 public:
  /// Soft capacity mirroring a kernel socket buffer: write() blocks while
  /// the buffer is at/over this, so a peer that never reads bounds the
  /// channel at cap + one frame instead of growing it without limit.
  static constexpr std::size_t kMaxBuffered = std::size_t{64} << 20;

  /// False, with the bytes dropped, once the channel is closed: the peer
  /// is gone, like a broken pipe.
  bool write(std::span<const std::uint8_t> bytes) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return closed_ || bytes_.size() < kMaxBuffered; });
      if (closed_) return false;
      bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    }
    cv_.notify_all();
    return true;
  }

  /// Block until `n` bytes are available and copy them out. Returns false
  /// when the channel closes with fewer than `n` bytes left (EOF).
  bool read_exact(std::uint8_t* dst, std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || bytes_.size() >= n; });
    if (bytes_.size() < n) return false;
    // Bulk copy + range erase (deque iterators are random-access): a
    // per-byte front/pop_front loop would hold the lock for millions of
    // operations on multi-MB frames and dominate pipe latency.
    const auto first = bytes_.begin();
    std::copy(first, first + static_cast<std::ptrdiff_t>(n), dst);
    bytes_.erase(first, first + static_cast<std::ptrdiff_t>(n));
    cv_.notify_all();  // room freed: unblock a backpressured writer
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::uint8_t> bytes_;
  bool closed_ = false;
};

}  // namespace detail

// ------------------------------------------------------------- framing ----

Status StreamTransport::send_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() > kMaxFrameBytes)
    return Status::error(ErrCode::kInvalidArgument, "frame exceeds limit");
  const bool crc = crc_.load();
  if (Status s = send_raw(encode_frame_prefix(frame.size(), crc)); !s.ok())
    return s;
  if (Status s = send_raw(frame); !s.ok()) return s;
  return crc ? send_raw(frame_trailer(frame)) : Status{};
}

Expected<std::vector<std::uint8_t>> StreamTransport::recv_frame() {
  // `have` is how far into the frame a read starts: it decides what an
  // EOF there means.
  const auto read = [this](std::span<std::uint8_t> dst, std::size_t have) {
    const ReadResult r = read_exact(dst.data(), dst.size());
    if (r == ReadResult::kTimeout)
      return Status::error(ErrCode::kTimeout,
                           "recv timed out waiting for peer");
    return r == ReadResult::kEof ? frame_eof_status(have) : Status{};
  };
  std::array<std::uint8_t, kFramePrefixBytes> raw;
  if (Status s = read(raw, 0); !s.ok()) return s;
  const auto prefix = decode_frame_prefix(raw);
  if (!prefix.ok()) return prefix.status();
  std::vector<std::uint8_t> frame(prefix->body_len);
  if (Status s = read(frame, kFramePrefixBytes); !s.ok()) return s;
  if (prefix->crc) {
    std::array<std::uint8_t, kFrameCrcBytes> trailer;
    if (Status s = read(trailer, kFramePrefixBytes); !s.ok()) return s;
    if (Status s = verify_frame_trailer(frame, trailer); !s.ok()) return s;
    crc_.store(true);  // peer checksums: echo trailers on our sends too
  }
  return frame;
}

// ---------------------------------------------------------------- pipe ----

PipeTransport::PipeTransport(std::shared_ptr<detail::ByteChannel> in,
                             std::shared_ptr<detail::ByteChannel> out)
    : in_(std::move(in)), out_(std::move(out)) {}

std::pair<std::unique_ptr<PipeTransport>, std::unique_ptr<PipeTransport>>
PipeTransport::make_pair() {
  auto a_to_b = std::make_shared<detail::ByteChannel>();
  auto b_to_a = std::make_shared<detail::ByteChannel>();
  std::unique_ptr<PipeTransport> a(new PipeTransport(b_to_a, a_to_b));
  std::unique_ptr<PipeTransport> b(new PipeTransport(a_to_b, b_to_a));
  return {std::move(a), std::move(b)};
}

Status PipeTransport::send_raw(std::span<const std::uint8_t> bytes) {
  if (!out_->write(bytes))
    return Status::error(ErrCode::kIoError, "pipe closed");
  return {};
}

StreamTransport::ReadResult PipeTransport::read_exact(std::uint8_t* dst,
                                                      std::size_t n) {
  return in_->read_exact(dst, n) ? ReadResult::kOk : ReadResult::kEof;
}

void PipeTransport::shutdown() {
  in_->close();
  out_->close();
}

// ----------------------------------------------------------------- tcp ----

TcpTransport::TcpTransport(int fd) : fd_(fd) {}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<TcpTransport>> TcpTransport::connect(
    const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::error(ErrCode::kIoError,
                         std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error(ErrCode::kInvalidArgument,
                         "bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("connect: ") + std::strerror(err));
  }
  return std::make_unique<TcpTransport>(fd);
}

Status TcpTransport::send_raw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return Status::error(ErrCode::kIoError, "socket closed");
  const std::uint8_t* data = bytes.data();
  std::size_t n = bytes.size();
  while (n > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::error(ErrCode::kIoError,
                           std::string("send: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return {};
}

/// A non-negative recv timeout bounds each wait for the socket to become
/// readable (poll before recv), so a wedged peer yields kTimeout instead
/// of blocking forever; kEof covers EOF and errors.
StreamTransport::ReadResult TcpTransport::read_exact(std::uint8_t* dst,
                                                     std::size_t n) {
  if (fd_ < 0) return ReadResult::kEof;
  const int timeout_ms = recv_timeout_ms_.load();
  while (n > 0) {
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int p = ::poll(&pfd, 1, timeout_ms);
      if (p < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kEof;
      }
      if (p == 0) return ReadResult::kTimeout;
    }
    const ssize_t r = ::recv(fd_, dst, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kEof;
    }
    if (r == 0) return ReadResult::kEof;
    dst += r;
    n -= static_cast<std::size_t>(r);
  }
  return ReadResult::kOk;
}

void TcpTransport::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ------------------------------------------------------------- listener ----

Expected<std::unique_ptr<TcpListener>> TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::error(ErrCode::kIoError,
                         std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("bind/listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("getsockname: ") + std::strerror(err));
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

TcpListener::~TcpListener() { close(); }

Expected<std::unique_ptr<TcpTransport>> TcpListener::accept() {
  if (fd_ < 0) return Status::error(ErrCode::kIoError, "listener closed");
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) return std::make_unique<TcpTransport>(conn);
    if (errno == EINTR) continue;
    return Status::error(ErrCode::kIoError,
                         std::string("accept: ") + std::strerror(errno));
  }
}

void TcpListener::close() {
  if (fd_ >= 0) {
    // shutdown() unblocks a concurrent accept() before the fd goes away.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace aesz::service
