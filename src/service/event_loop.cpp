#include "service/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cinttypes>
#include <cstring>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "obs/log.hpp"
#include "service/frame.hpp"

namespace aesz::service {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ----------------------------------------------------------- EventLoop ----

EventLoop::EventLoop(bool force_poll) {
#ifdef __linux__
  if (!force_poll) epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
#else
  (void)force_poll;
#endif
}

EventLoop::~EventLoop() {
#ifdef __linux__
  if (epfd_ >= 0) ::close(epfd_);
#endif
}

void EventLoop::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = Interest{want_read, want_write};
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
#endif
}

void EventLoop::modify(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) return;
  if (it->second.read == want_read && it->second.write == want_write)
    return;
  it->second = Interest{want_read, want_write};
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }
#endif
}

void EventLoop::remove(int fd) {
  interest_.erase(fd);
#ifdef __linux__
  if (epfd_ >= 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

int EventLoop::wait(std::vector<Event>& out, int timeout_ms) {
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event evs[64];
    const int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
    if (n <= 0) return 0;  // timeout or EINTR
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = evs[i].data.fd;
      // EPOLLHUP still allows draining buffered input, so it maps to
      // readable (a read then observes EOF); only EPOLLERR is fatal here.
      e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.error = (evs[i].events & EPOLLERR) != 0;
      out.push_back(e);
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(interest_.size());
  for (const auto& [fd, in] : interest_) {
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>((in.read ? POLLIN : 0) |
                                  (in.write ? POLLOUT : 0));
    pfds.push_back(p);
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n <= 0) return 0;
  int appended = 0;
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
    out.push_back(e);
    ++appended;
  }
  return appended;
}

// --------------------------------------------------------- EventServer ----

EventServer::CompletionQueue::CompletionQueue() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0)
    throw Error(ErrCode::kIoError,
                std::string("event server wake pipe: ") +
                    std::strerror(errno));
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  wake_rd = fds[0];
  wake_wr = fds[1];
}

EventServer::CompletionQueue::~CompletionQueue() {
  ::close(wake_rd);
  ::close(wake_wr);
}

void EventServer::CompletionQueue::push(Completion done) {
  {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(std::move(done));
  }
  wake();
}

void EventServer::CompletionQueue::wake() {
  const std::uint8_t one = 1;
  // EAGAIN means the pipe already holds a wakeup; that is enough.
  (void)!::write(wake_wr, &one, 1);
}

EventServer::EventServer(Server& server, TcpListener& listener, Options opt)
    : server_(server),
      listener_(listener),
      opt_(opt),
      loop_(opt_.force_poll),
      done_q_(std::make_shared<CompletionQueue>()),
      connections_(server.metrics().gauge(
          "ev_connections", "connections currently open")),
      connections_total_(server.metrics().counter(
          "ev_connections_total", "connections accepted")),
      connections_closed_(server.metrics().counter(
          "ev_connections_closed", "connections fully closed")),
      inflight_(server.metrics().gauge(
          "ev_inflight", "submitted, unanswered requests (all connections)")),
      conns_executing_(server.metrics().gauge(
          "ev_conns_executing", "connections with requests executing")),
      conns_write_blocked_(server.metrics().gauge(
          "ev_conns_write_blocked", "connections with queued outbound bytes")),
      conns_read_paused_(server.metrics().gauge(
          "ev_conns_read_paused", "connections paused by backpressure")),
      rejected_requests_(server.metrics().counter(
          "ev_rejected_requests", "requests answered kOverloaded unqueued")),
      read_pauses_(server.metrics().counter(
          "ev_read_pauses", "backpressure read-pause transitions")),
      buffered_high_water_(server.metrics().gauge(
          "ev_buffered_high_water",
          "max outbound bytes ever buffered on one connection")) {
  set_nonblocking(listener_.fd());
}

EventServer::~EventServer() {
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  // done_q_ (and its wake pipe) is NOT torn down here: completion lambdas
  // still executing in the Server's pool share ownership and release it
  // when the last one finishes.
}

void EventServer::stop() {
  stop_.store(true, std::memory_order_release);
  done_q_->wake();
}

void EventServer::update_interest(Conn& c) {
  // State gauges ride the same transition points the poller interest does.
  const bool executing = c.inflight > 0;
  if (executing != c.gauged_exec) {
    c.gauged_exec = executing;
    if (executing)
      conns_executing_.add(1);
    else
      conns_executing_.sub(1);
  }
  const bool write_blocked = !c.wqueue.empty();
  if (write_blocked != c.gauged_write) {
    c.gauged_write = write_blocked;
    if (write_blocked)
      conns_write_blocked_.add(1);
    else
      conns_write_blocked_.sub(1);
  }

  // Backpressure: a slow reader pauses its own reads past the threshold
  // and resumes below half, so its buffered responses stay bounded.
  if (!c.read_paused && c.buffered > opt_.max_conn_buffered) {
    c.read_paused = true;
    read_pauses_.inc();
    conns_read_paused_.add(1);
    AESZ_LOG_DEBUG("event",
                   "conn=%" PRIu64 " read paused (%zu bytes buffered)",
                   c.id, c.buffered);
  } else if (c.read_paused && c.buffered < opt_.max_conn_buffered / 2) {
    c.read_paused = false;
    conns_read_paused_.sub(1);
    AESZ_LOG_DEBUG("event", "conn=%" PRIu64 " read resumed", c.id);
  }

  const bool want_read = !c.read_paused && !c.peer_eof && !c.closing;
  loop_.modify(c.fd, want_read, !c.wqueue.empty());
}

bool EventServer::maybe_close(Conn& c) {
  if ((c.closing || c.peer_eof) && c.inflight == 0 && c.wqueue.empty() &&
      c.ready.empty()) {
    close_conn(c);
    return true;
  }
  return false;
}

void EventServer::close_conn(Conn& c) {
  if (c.gauged_exec)
    conns_executing_.sub(1);
  if (c.gauged_write)
    conns_write_blocked_.sub(1);
  if (c.read_paused)
    conns_read_paused_.sub(1);
  loop_.remove(c.fd);
  ::close(c.fd);
  AESZ_LOG_DEBUG("event", "conn=%" PRIu64 " closed", c.id);
  id_to_fd_.erase(c.id);
  connections_.sub(1);
  connections_closed_.inc();
  conns_.erase(c.fd);  // invalidates `c`
}

void EventServer::accept_ready() {
  for (;;) {
    if (!accepting_) return;
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener trouble — wait for the next
    }
    set_nonblocking(fd);
    Conn c;
    c.fd = fd;
    c.id = next_conn_id_++;
    id_to_fd_[c.id] = fd;
    const std::uint64_t cid = c.id;
    conns_.emplace(fd, std::move(c));
    loop_.add(fd, /*want_read=*/true, /*want_write=*/false);
    connections_.add(1);
    connections_total_.inc();
    AESZ_LOG_DEBUG("event", "conn=%" PRIu64 " accepted (fd=%d)", cid, fd);
    if (opt_.accept_limit > 0 &&
        connections_total_.value() >=
            opt_.accept_limit) {
      accepting_ = false;
      loop_.remove(listener_.fd());
      return;
    }
  }
}

bool EventServer::admit_frame(Conn& c, std::vector<std::uint8_t> frame) {
  const std::uint64_t seq = c.next_seq++;
  if (inflight_.value() >= 0 &&
      static_cast<std::size_t>(inflight_.value()) >= opt_.max_inflight) {
    // Admission control: answer immediately (in this request's ordered
    // slot) instead of queueing work the server has no room for.
    rejected_requests_.inc();
    AESZ_LOG_WARN("event", "conn=%" PRIu64 " overloaded: %zu in flight",
                  c.id, opt_.max_inflight);
    return complete(c, seq,
                    encode_error_response(
                        {ErrCode::kOverloaded,
                         "server overloaded: too many requests in flight"}));
  }
  inflight_.add(1);
  ++c.inflight;
  const std::uint64_t conn_id = c.id;
  // The lambda captures the shared queue, NOT `this`: it may run after
  // the EventServer (and its wake pipe, were it owned there) is gone.
  server_.submit(std::move(frame),
                 [dq = done_q_, conn_id, seq](
                     std::vector<std::uint8_t> response) {
                   dq->push(Completion{conn_id, seq, std::move(response)});
                 },
                 conn_id);
  return false;
}

bool EventServer::parse_frames(Conn& c) {
  while (!c.closing) {
    const std::span<const std::uint8_t> in(c.rbuf);
    if (in.size() < kFramePrefixBytes) return false;
    // Decided BEFORE any body allocation — a hostile 4-byte prefix cannot
    // size a buffer. Framing cannot resynchronize after a bad prefix, so
    // the typed error is this connection's final response.
    const auto prefix = decode_frame_prefix(in.first<kFramePrefixBytes>());
    if (!prefix.ok()) return fail_conn(c, prefix.status());
    const std::size_t len = prefix->body_len;
    const std::size_t total =
        kFramePrefixBytes + len + (prefix->crc ? kFrameCrcBytes : 0);
    if (in.size() < total) return false;
    const auto body = in.subspan(kFramePrefixBytes, len);
    const Status intact =
        prefix->crc
            ? verify_frame_trailer(
                  body, in.subspan(kFramePrefixBytes + len)
                            .first<kFrameCrcBytes>())
            : Status{};
    // A verified checksummed frame opts this connection into trailers on
    // every response from here on (sticky, like the transports).
    if (prefix->crc && intact.ok()) c.want_crc = true;
    std::vector<std::uint8_t> frame(body.begin(), body.end());
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(total));
    if (intact.ok()) {
      if (admit_frame(c, std::move(frame))) return true;
      continue;
    }
    // The length field was intact, so framing stays resynchronized:
    // answer the damaged request with a typed error and keep the
    // connection — the client's retry policy takes it from there.
    AESZ_LOG_WARN("event", "conn=%" PRIu64 " frame checksum mismatch", c.id);
    if (complete(c, c.next_seq++,
                 encode_error_response({intact.code, intact.message})))
      return true;
  }
  return false;
}

bool EventServer::fail_conn(Conn& c, const Status& why) {
  AESZ_LOG_WARN("event", "conn=%" PRIu64 " %s; closing after the error answer",
                c.id, why.message.c_str());
  // closing is set BEFORE complete(): its opportunistic flush may close
  // the connection (flushed in full, or peer reset), and `c` must not be
  // touched after that.
  c.closing = true;
  c.rbuf.clear();
  return complete(c, c.next_seq++,
                  encode_error_response({why.code, why.message}));
}

bool EventServer::read_ready(Conn& c) {
  std::uint8_t tmp[65536];
  // Bounded burst per readiness: level-triggered polling re-reports
  // whatever this pass leaves in the socket, keeping the loop fair to
  // other connections.
  for (int burst = 0; burst < 4; ++burst) {
    if (c.read_paused || c.closing || c.peer_eof) break;
    const ssize_t r = ::recv(c.fd, tmp, sizeof tmp, 0);
    if (r > 0) {
      c.rbuf.insert(c.rbuf.end(), tmp, tmp + r);
      if (parse_frames(c)) return true;  // connection closed; `c` is gone
      if (static_cast<std::size_t>(r) < sizeof tmp) break;
    } else if (r == 0) {
      // Half-close: the peer is done asking; it still gets every answer
      // it is owed before the connection goes away — and, when it stopped
      // part-way through a frame, a final typed answer for that too.
      c.peer_eof = true;
      if (Status eof = frame_eof_status(c.rbuf.size());
          eof.code == ErrCode::kCorruptStream)
        return fail_conn(c, eof);
      break;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      close_conn(c);
      return true;
    }
  }
  if (maybe_close(c)) return true;
  update_interest(c);
  return false;
}

bool EventServer::write_ready(Conn& c) {
  while (!c.wqueue.empty()) {
    const std::vector<std::uint8_t>& front = c.wqueue.front();
    const ssize_t w = ::send(c.fd, front.data() + c.woff,
                             front.size() - c.woff, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c);  // peer is gone; nothing left to deliver
      return true;
    }
    c.woff += static_cast<std::size_t>(w);
    c.buffered -= static_cast<std::size_t>(w);
    if (c.woff == front.size()) {
      c.wqueue.pop_front();
      c.woff = 0;
    }
  }
  if (maybe_close(c)) return true;
  update_interest(c);
  return false;
}

bool EventServer::complete(Conn& c, std::uint64_t seq,
                           std::vector<std::uint8_t> response) {
  // Frame (length prefix + body, plus a CRC32C trailer for peers that
  // checksum) now, park in the ordered slot, then flush every
  // consecutively-ready response.
  std::vector<std::uint8_t> framed = frame_wire_image(response, c.want_crc);
  c.buffered += framed.size();
  // Single-writer max: complete() only ever runs on the loop thread, so a
  // plain compare-and-set needs no CAS loop.
  const auto hw = static_cast<std::int64_t>(c.buffered);
  if (hw > buffered_high_water_.value()) buffered_high_water_.set(hw);
  c.ready.emplace(seq, std::move(framed));
  while (true) {
    auto it = c.ready.find(c.next_flush);
    if (it == c.ready.end()) break;
    c.wqueue.push_back(std::move(it->second));
    c.ready.erase(it);
    ++c.next_flush;
  }
  // Opportunistic flush; write_ready also refreshes interest/gauges and
  // closes the connection (returning true) if this was the last owed byte
  // of a closing connection or the peer reset underneath the send.
  return write_ready(c);
}

void EventServer::drain_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_q_->mu);
    batch.swap(done_q_->q);
  }
  for (Completion& done : batch) {
    inflight_.sub(1);
    auto idit = id_to_fd_.find(done.conn_id);
    if (idit == id_to_fd_.end()) continue;  // connection died first
    auto cit = conns_.find(idit->second);
    if (cit == conns_.end()) continue;
    Conn& c = cit->second;
    --c.inflight;
    // complete() may close the connection; `c` is not touched afterwards.
    (void)complete(c, done.seq, std::move(done.response));
  }
}

void EventServer::run() {
  const int wake_rd = done_q_->wake_rd;
  loop_.add(wake_rd, /*want_read=*/true, /*want_write=*/false);
  accepting_ = opt_.accept_limit == 0 ||
               connections_total_.value() <
                   opt_.accept_limit;
  if (accepting_)
    loop_.add(listener_.fd(), /*want_read=*/true, /*want_write=*/false);

  // Abandoned stream sessions are freed even when no request arrives to
  // trigger the opportunistic reap: the wait times out every half idle
  // budget and a reap pass runs whenever that tick has come due.
  using Clock = std::chrono::steady_clock;
  const auto reap_every = std::chrono::milliseconds(std::clamp<std::uint64_t>(
      server_.options().session_idle_ms / 2, 1, INT_MAX));
  auto next_reap = Clock::now() + reap_every;

  std::vector<EventLoop::Event> events;
  bool stopping = false;
  for (;;) {
    events.clear();
    const auto until_reap = std::chrono::ceil<std::chrono::milliseconds>(
        next_reap - Clock::now());
    loop_.wait(events, static_cast<int>(
                           std::max<std::int64_t>(until_reap.count(), 0)));
    if (const auto now = Clock::now(); now >= next_reap) {
      (void)server_.reap_idle_sessions();
      next_reap = now + reap_every;
    }
    for (const EventLoop::Event& ev : events) {
      if (ev.fd == wake_rd) {
        std::uint8_t sink[256];
        while (::read(wake_rd, sink, sizeof sink) > 0) {
        }
        drain_completions();
        continue;
      }
      if (ev.fd == listener_.fd()) {
        accept_ready();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& c = it->second;
      if (ev.error) {
        close_conn(c);
        continue;
      }
      if (ev.writable && write_ready(c)) continue;
      // Re-find: write_ready may not close but the map is stable here.
      if (ev.readable) (void)read_ready(c);
    }

    if (stop_.load(std::memory_order_acquire) && !stopping) {
      stopping = true;
      if (accepting_) {
        accepting_ = false;
        loop_.remove(listener_.fd());
      }
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& [fd, c] : conns_) fds.push_back(fd);
      for (int fd : fds) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        it->second.closing = true;
        if (!maybe_close(it->second)) update_interest(it->second);
      }
    }

    const bool limit_done =
        opt_.accept_limit > 0 &&
        connections_closed_.value() >=
            opt_.accept_limit;
    if ((stopping || limit_done) && conns_.empty()) break;
  }
  loop_.remove(wake_rd);
  if (accepting_) loop_.remove(listener_.fd());
  // Late completions for connections that no longer exist still need
  // their inflight accounting drained. Completions arriving after this
  // (requests still executing in the pool) land in done_q_, which the
  // lambdas keep alive past the EventServer itself.
  drain_completions();
}

}  // namespace aesz::service
