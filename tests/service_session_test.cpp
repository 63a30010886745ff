// Stream-session service tests: the open/append/read/close lifecycle over
// handle_frame, submit() ordering for pipelined appends, idle reaping,
// typed kNoSession discipline, the session stats rows, and the
// acceptance path — a full session over TCP through the EventServer with
// the returned artifact matching a locally built AETC stream byte for
// byte.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "temporal/temporal.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

/// Slowly advected noise — consecutive timesteps are strongly correlated,
/// so auto mode has real residual wins to find.
Field frame_at(std::size_t t) {
  return synth::value_noise_2d(24, 32, 3, 6.0, /*seed=*/91,
                               /*tphase=*/0.15 * static_cast<double>(t));
}

std::span<const std::uint8_t> field_bytes(const Field& f) {
  const auto v = f.values();
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

svc::OpenStreamRequest open_request(const Field& f, std::uint64_t gop = 4) {
  svc::OpenStreamRequest req;
  req.codec = "SZ2.1";
  req.eb = ErrorBound::Abs(1e-3);
  req.dims = f.dims();
  req.gop = gop;
  return req;
}

svc::Server::Options server_options(std::size_t threads = 1) {
  svc::Server::Options so;
  so.threads = threads;
  return so;
}

std::uint64_t open_session(svc::Server& server,
                           const svc::OpenStreamRequest& req) {
  const auto resp =
      server.handle_frame(svc::encode_open_stream_request(req));
  auto parsed = svc::parse_open_stream_response(resp);
  EXPECT_TRUE(parsed.ok()) << parsed.status().str();
  return parsed.ok() ? parsed->session_id : 0;
}

ErrCode error_code_of(std::span<const std::uint8_t> resp) {
  auto err = svc::parse_error_response(resp);
  return err.ok() ? err->code : ErrCode::kOk;
}

// ---------------------------------------------------------- protocol ----

TEST(SessionProtocol, AllSessionFramesRoundTrip) {
  const Field f = frame_at(0);
  {
    const auto frame = svc::encode_open_stream_request(open_request(f, 7));
    ASSERT_EQ(svc::peek_op(frame).value(), svc::Op::kOpenStreamRequest);
    auto p = svc::parse_open_stream_request(frame);
    ASSERT_TRUE(p.ok()) << p.status().str();
    EXPECT_EQ(p->codec, "SZ2.1");
    EXPECT_EQ(p->eb, ErrorBound::Abs(1e-3));
    EXPECT_EQ(p->dims, f.dims());
    EXPECT_EQ(p->gop, 7u);
  }
  {
    auto p = svc::parse_open_stream_response(
        svc::encode_open_stream_response({42}));
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->session_id, 42u);
  }
  {
    const auto frame =
        svc::encode_append_timestep_request({42, field_bytes(f)});
    EXPECT_EQ(svc::peek_session_id(frame).value(), 42u);
    auto p = svc::parse_append_timestep_request(frame);
    ASSERT_TRUE(p.ok()) << p.status().str();
    EXPECT_EQ(p->session_id, 42u);
    EXPECT_EQ(0, std::memcmp(p->field.data(), f.data(), p->field.size()));
  }
  {
    auto p = svc::parse_append_timestep_response(
        svc::encode_append_timestep_response({3, true, 0.25, 999}));
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->timestep, 3u);
    EXPECT_TRUE(p->residual);
    EXPECT_DOUBLE_EQ(p->abs_eb, 0.25);
    EXPECT_EQ(p->stored_bytes, 999u);
  }
  {
    const auto frame = svc::encode_read_timestep_request({42, 5});
    EXPECT_EQ(svc::peek_session_id(frame).value(), 42u);
    auto p = svc::parse_read_timestep_request(frame);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->timestep, 5u);
  }
  {
    auto p = svc::parse_read_timestep_response(
        svc::encode_read_timestep_response({f.dims(), field_bytes(f)}));
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->dims, f.dims());
  }
  {
    const auto frame = svc::encode_close_stream_request({42});
    EXPECT_EQ(svc::peek_session_id(frame).value(), 42u);
    ASSERT_TRUE(svc::parse_close_stream_request(frame).ok());
  }
  {
    const std::vector<std::uint8_t> artifact{1, 2, 3};
    // Keep the frame alive: the parsed artifact span aliases it.
    const auto frame = svc::encode_close_stream_response({9, artifact});
    auto p = svc::parse_close_stream_response(frame);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->timesteps, 9u);
    EXPECT_EQ(std::vector<std::uint8_t>(p->artifact.begin(),
                                        p->artifact.end()),
              artifact);
  }
  // peek_session_id refuses non-session ops.
  EXPECT_EQ(svc::peek_session_id(svc::encode_stats_request()).status().code,
            ErrCode::kBadHeader);
}

// --------------------------------------------------------- lifecycle ----

/// The core lifecycle: open, append a handful of advected timesteps, read
/// them all back within the bound, close — and the returned artifact is
/// byte-identical to one built locally with TemporalWriter under the same
/// knobs, proving the service adds no hidden state to the format.
TEST(SessionLifecycle, AppendReadCloseMatchesLocalWriterByteForByte) {
  svc::Server server(server_options());
  const Field f0 = frame_at(0);
  const auto id = open_session(server, open_request(f0));
  ASSERT_NE(id, 0u);

  temporal::TemporalWriter::Options wopt;
  wopt.inner = "SZ2.1";
  wopt.gop = 4;
  temporal::TemporalWriter local(f0.dims(), ErrorBound::Abs(1e-3), wopt);

  constexpr std::size_t kSteps = 9;
  bool saw_residual = false;
  for (std::size_t t = 0; t < kSteps; ++t) {
    const Field f = frame_at(t);
    const auto resp = server.handle_frame(
        svc::encode_append_timestep_request({id, field_bytes(f)}));
    auto parsed = svc::parse_append_timestep_response(resp);
    ASSERT_TRUE(parsed.ok()) << "t=" << t << ": " << parsed.status().str();
    EXPECT_EQ(parsed->timestep, t);
    EXPECT_DOUBLE_EQ(parsed->abs_eb, 1e-3);
    saw_residual = saw_residual || parsed->residual;

    const auto want = local.append(f);
    EXPECT_EQ(parsed->residual, want.mode == temporal::kModeResidual)
        << "t=" << t;
    EXPECT_EQ(parsed->stored_bytes, want.stored_bytes) << "t=" << t;
  }
  EXPECT_TRUE(saw_residual) << "advected data never chose residual coding";

  for (std::size_t t = 0; t < kSteps; ++t) {
    const auto resp = server.handle_frame(
        svc::encode_read_timestep_request({id, t}));
    auto parsed = svc::parse_read_timestep_response(resp);
    ASSERT_TRUE(parsed.ok()) << "t=" << t << ": " << parsed.status().str();
    const Field f = frame_at(t);
    ASSERT_EQ(parsed->dims, f.dims());
    std::vector<float> recon(parsed->dims.total());
    std::memcpy(recon.data(), parsed->field.data(), parsed->field.size());
    EXPECT_LE(metrics::max_abs_err(f.values(), recon), 1e-3 * (1 + 1e-9))
        << "t=" << t;
  }

  const auto resp =
      server.handle_frame(svc::encode_close_stream_request({id}));
  auto closed = svc::parse_close_stream_response(resp);
  ASSERT_TRUE(closed.ok()) << closed.status().str();
  EXPECT_EQ(closed->timesteps, kSteps);
  const auto local_artifact = local.bytes();
  ASSERT_EQ(closed->artifact.size(), local_artifact.size());
  EXPECT_EQ(0, std::memcmp(closed->artifact.data(), local_artifact.data(),
                           local_artifact.size()))
      << "service artifact diverged from the local TemporalWriter";
}

TEST(SessionLifecycle, UnknownClosedAndDoubleCloseAreKNoSession) {
  svc::Server server(server_options());
  // Never-issued id.
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_read_timestep_request({777, 0}))),
            ErrCode::kNoSession);

  const Field f0 = frame_at(0);
  const auto id = open_session(server, open_request(f0));
  ASSERT_TRUE(svc::parse_append_timestep_response(
                  server.handle_frame(svc::encode_append_timestep_request(
                      {id, field_bytes(f0)})))
                  .ok());
  ASSERT_TRUE(svc::parse_close_stream_response(
                  server.handle_frame(svc::encode_close_stream_request({id})))
                  .ok());
  // Every op on the closed id, including a second close, is kNoSession.
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_append_timestep_request({id, field_bytes(f0)}))),
            ErrCode::kNoSession);
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_read_timestep_request({id, 0}))),
            ErrCode::kNoSession);
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_close_stream_request({id}))),
            ErrCode::kNoSession);
}

TEST(SessionLifecycle, BadOpensAndAppendsAreTypedErrors) {
  svc::Server server(server_options());
  const Field f0 = frame_at(0);
  {
    auto req = open_request(f0);
    req.codec = "no-such-codec";
    EXPECT_EQ(error_code_of(server.handle_frame(
                  svc::encode_open_stream_request(req))),
              ErrCode::kUnsupported);
  }
  {
    auto req = open_request(f0);
    req.eb = ErrorBound::Abs(0.0);  // unusable bound
    EXPECT_EQ(error_code_of(server.handle_frame(
                  svc::encode_open_stream_request(req))),
              ErrCode::kInvalidArgument);
  }
  {
    const auto id = open_session(server, open_request(f0));
    // Right float count discipline, wrong dims total.
    const std::vector<std::uint8_t> short_field(f0.size() * 4 - 4, 0);
    EXPECT_EQ(error_code_of(server.handle_frame(
                  svc::encode_append_timestep_request({id, short_field}))),
              ErrCode::kInvalidArgument);
    // Out-of-range read on a live session.
    (void)server.handle_frame(
        svc::encode_append_timestep_request({id, field_bytes(f0)}));
    EXPECT_EQ(error_code_of(server.handle_frame(
                  svc::encode_read_timestep_request({id, 99}))),
              ErrCode::kInvalidArgument);
  }
}

TEST(SessionLifecycle, SessionCapAnswersOverloaded) {
  auto so = server_options();
  so.max_sessions = 2;
  svc::Server server(so);
  const Field f0 = frame_at(0);
  ASSERT_NE(open_session(server, open_request(f0)), 0u);
  const auto second = open_session(server, open_request(f0));
  ASSERT_NE(second, 0u);
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_open_stream_request(open_request(f0)))),
            ErrCode::kOverloaded);
  // Closing one admits the next open.
  ASSERT_TRUE(svc::parse_close_stream_response(
                  server.handle_frame(
                      svc::encode_close_stream_request({second})))
                  .ok());
  EXPECT_NE(open_session(server, open_request(f0)), 0u);
}

// ----------------------------------------------------------- reaping ----

TEST(SessionReaping, IdleSessionsAreReapedAndAnswerKNoSession) {
  auto so = server_options();
  so.session_idle_ms = 0;  // everything not mid-op is idle
  svc::Server server(so);
  const Field f0 = frame_at(0);
  const auto id = open_session(server, open_request(f0));
  ASSERT_NE(id, 0u);
  EXPECT_EQ(server.reap_idle_sessions(), 1u);
  EXPECT_EQ(server.reap_idle_sessions(), 0u);  // idempotent
  EXPECT_EQ(error_code_of(server.handle_frame(
                svc::encode_append_timestep_request({id, field_bytes(f0)}))),
            ErrCode::kNoSession);

  auto stats = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("sessions_reaped"), 1u);
  EXPECT_EQ(stats->get("sessions_active"), 0u);
}

TEST(SessionReaping, LongIdleWindowKeepsSessionsAlive) {
  auto so = server_options();
  so.session_idle_ms = 60000;
  svc::Server server(so);
  const auto id = open_session(server, open_request(frame_at(0)));
  ASSERT_NE(id, 0u);
  EXPECT_EQ(server.reap_idle_sessions(), 0u);
  EXPECT_TRUE(svc::parse_append_timestep_response(
                  server.handle_frame(svc::encode_append_timestep_request(
                      {id, field_bytes(frame_at(0))})))
                  .ok());
}

// ------------------------------------------------------------- stats ----

TEST(SessionStats, CountersAndRegisteredGaugesReport) {
  svc::Server server(server_options());
  const Field f0 = frame_at(0);
  const auto id = open_session(server, open_request(f0));
  (void)server.handle_frame(
      svc::encode_append_timestep_request({id, field_bytes(f0)}));
  (void)server.handle_frame(svc::encode_read_timestep_request({id, 0}));

  auto stats = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("open_stream_requests"), 1u);
  EXPECT_EQ(stats->get("append_timestep_requests"), 1u);
  EXPECT_EQ(stats->get("read_timestep_requests"), 1u);
  EXPECT_EQ(stats->get("sessions_opened"), 1u);
  EXPECT_EQ(stats->get("sessions_active"), 1u);
  EXPECT_EQ(stats->get("session_timesteps_stored"), 1u);

  (void)server.handle_frame(svc::encode_close_stream_request({id}));
  stats = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("sessions_closed"), 1u);
  EXPECT_EQ(stats->get("sessions_active"), 0u);
}

// --------------------------------------------------- submit() ordering ----

/// Pipelined appends through submit() on a multi-thread pool: the per-
/// session tickets must keep timesteps in arrival order even though pool
/// workers complete out of order. Every response's timestep must equal
/// its request index.
TEST(SessionOrdering, PipelinedSubmitsStoreTimestepsInArrivalOrder) {
  svc::Server server(server_options(/*threads=*/4));
  const auto id = open_session(server, open_request(frame_at(0)));
  ASSERT_NE(id, 0u);

  constexpr std::size_t kSteps = 16;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<std::vector<std::uint8_t>> responses(kSteps);
  for (std::size_t t = 0; t < kSteps; ++t) {
    const Field f = frame_at(t);
    server.submit(svc::encode_append_timestep_request({id, field_bytes(f)}),
                  [&, t](std::vector<std::uint8_t> resp) {
                    std::lock_guard<std::mutex> lock(mu);
                    responses[t] = std::move(resp);
                    ++done;
                    cv.notify_all();
                  });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kSteps; });
  }
  for (std::size_t t = 0; t < kSteps; ++t) {
    auto parsed = svc::parse_append_timestep_response(responses[t]);
    ASSERT_TRUE(parsed.ok()) << "t=" << t << ": " << parsed.status().str();
    EXPECT_EQ(parsed->timestep, t)
        << "pipelined appends landed out of arrival order";
  }

  // The stored chain must match a strictly sequential local writer.
  temporal::TemporalWriter::Options wopt;
  wopt.inner = "SZ2.1";
  wopt.gop = 4;
  temporal::TemporalWriter local(frame_at(0).dims(), ErrorBound::Abs(1e-3),
                                 wopt);
  for (std::size_t t = 0; t < kSteps; ++t) (void)local.append(frame_at(t));
  // Bind the response frame: the parsed artifact span aliases it.
  const auto close_resp =
      server.handle_frame(svc::encode_close_stream_request({id}));
  auto closed = svc::parse_close_stream_response(close_resp);
  ASSERT_TRUE(closed.ok()) << closed.status().str();
  const auto local_artifact = local.bytes();
  ASSERT_EQ(closed->artifact.size(), local_artifact.size());
  EXPECT_EQ(0, std::memcmp(closed->artifact.data(), local_artifact.data(),
                           local_artifact.size()));
}

/// A close racing pipelined appends must not wedge the session's ticket
/// chain: ops after the close answer kNoSession, and every submit gets
/// exactly one response.
TEST(SessionOrdering, CloseMidPipelineAnswersRemainderWithKNoSession) {
  svc::Server server(server_options(/*threads=*/4));
  const auto id = open_session(server, open_request(frame_at(0)));
  ASSERT_NE(id, 0u);

  constexpr std::size_t kBefore = 3, kAfter = 3;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<std::vector<std::uint8_t>> responses;
  const auto record = [&](std::size_t slot) {
    return [&, slot](std::vector<std::uint8_t> resp) {
      std::lock_guard<std::mutex> lock(mu);
      responses[slot] = std::move(resp);
      ++done;
      cv.notify_all();
    };
  };
  responses.resize(kBefore + 1 + kAfter);
  const Field f0 = frame_at(0);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < kBefore; ++i)
    server.submit(svc::encode_append_timestep_request({id, field_bytes(f0)}),
                  record(slot++));
  server.submit(svc::encode_close_stream_request({id}), record(slot++));
  for (std::size_t i = 0; i < kAfter; ++i)
    server.submit(svc::encode_append_timestep_request({id, field_bytes(f0)}),
                  record(slot++));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == responses.size(); });
  }
  for (std::size_t i = 0; i < kBefore; ++i)
    EXPECT_TRUE(
        svc::parse_append_timestep_response(responses[i]).ok())
        << i;
  EXPECT_TRUE(
      svc::parse_close_stream_response(responses[kBefore]).ok());
  for (std::size_t i = kBefore + 1; i < responses.size(); ++i)
    EXPECT_EQ(error_code_of(responses[i]), ErrCode::kNoSession) << i;
}

// ------------------------------------------- client handle + loopback ----

/// Acceptance criterion: a full stream session over real TCP through the
/// EventServer front end — open, pipelined appends, bounded read-back,
/// close returning an artifact that a local TemporalReader decodes.
TEST(SessionLoopback, FullSessionOverTcpThroughEventServer) {
  svc::Server server(server_options(/*threads=*/2));
  auto bound = svc::TcpListener::bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status().str();
  svc::EventServer events(server, **bound, {});
  std::thread loop([&] { events.run(); });

  {
    auto transport = svc::TcpTransport::connect("127.0.0.1",
                                                (*bound)->port());
    ASSERT_TRUE(transport.ok()) << transport.status().str();
    svc::Client client(**transport);

    const Field f0 = frame_at(0);
    auto stream = client.open_stream("SZ2.1", f0.dims(),
                                     ErrorBound::Abs(1e-3), /*gop=*/4);
    ASSERT_TRUE(stream.ok()) << stream.status().str();

    constexpr std::size_t kSteps = 6;
    for (std::size_t t = 0; t < kSteps; ++t) {
      auto info = stream->append(frame_at(t));
      ASSERT_TRUE(info.ok()) << "t=" << t << ": " << info.status().str();
      EXPECT_EQ(info->timestep, t);
    }
    for (std::size_t t = 0; t < kSteps; ++t) {
      auto recon = stream->read_timestep(t);
      ASSERT_TRUE(recon.ok()) << "t=" << t << ": " << recon.status().str();
      EXPECT_LE(metrics::max_abs_err(frame_at(t).values(),
                                     recon->values()),
                1e-3 * (1 + 1e-9))
          << "t=" << t;
    }
    auto artifact = stream->close();
    ASSERT_TRUE(artifact.ok()) << artifact.status().str();
    EXPECT_FALSE(stream->open());

    // The wire artifact is a complete AETC stream a local reader decodes.
    auto reader = temporal::TemporalReader::open(*artifact);
    ASSERT_TRUE(reader.ok()) << reader.status().str();
    EXPECT_EQ((*reader)->timesteps(), kSteps);
    for (std::size_t t = 0; t < kSteps; ++t) {
      auto recon = (*reader)->read(t);
      ASSERT_TRUE(recon.ok()) << recon.status().str();
      EXPECT_LE(metrics::max_abs_err(frame_at(t).values(),
                                     recon->values()),
                1e-3 * (1 + 1e-9));
    }

    // Post-close use of the handle is a local typed error, no round trip.
    EXPECT_EQ(stream->append(f0).status().code, ErrCode::kNoSession);
    (*transport)->shutdown();
  }
  events.stop();
  loop.join();
}

/// An abandoned session on an otherwise quiet server is still freed: the
/// EventServer's wait times out on the idle budget and runs a reap pass
/// with no further request to trigger one (snapshot() itself never reaps).
TEST(SessionLoopback, AbandonedSessionIsReapedOnAQuietServer) {
  auto so = server_options();
  so.session_idle_ms = 50;
  svc::Server server(so);
  auto bound = svc::TcpListener::bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status().str();
  svc::EventServer events(server, **bound, {});
  std::thread loop([&] { events.run(); });

  [&] {
    auto transport = svc::TcpTransport::connect("127.0.0.1",
                                                (*bound)->port());
    ASSERT_TRUE(transport.ok()) << transport.status().str();
    ASSERT_TRUE((*transport)
                    ->send_frame(svc::encode_open_stream_request(
                        open_request(frame_at(0))))
                    .ok());
    auto resp = (*transport)->recv_frame();
    ASSERT_TRUE(resp.ok()) << resp.status().str();
    ASSERT_TRUE(svc::parse_open_stream_response(*resp).ok());

    // Send nothing more; keep the connection open the whole time.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.snapshot().get("sessions_active") != 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto snap = server.snapshot();
    EXPECT_EQ(snap.get("sessions_active"), 0u);
    EXPECT_EQ(snap.get("sessions_reaped"), 1u);
    (*transport)->shutdown();
  }();
  events.stop();
  loop.join();
}

/// The RAII contract: dropping an un-closed handle closes the server-side
/// session (best effort), so abandoned streams do not wait for the reaper.
TEST(SessionClientHandle, DestructorClosesAbandonedSession) {
  svc::Server server(server_options());
  auto [client_end, server_end] = svc::PipeTransport::make_pair();
  std::thread session([&server, &t = *server_end] { server.serve(t); });
  {
    svc::Client client(*client_end);
    const Field f0 = frame_at(0);
    auto stream = client.open_stream("SZ2.1", f0.dims(),
                                     ErrorBound::Abs(1e-3));
    ASSERT_TRUE(stream.ok()) << stream.status().str();
    ASSERT_TRUE(stream->append(f0).ok());
    // `stream` destructs here, still open -> best-effort close round trip.
  }
  auto direct = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->get("sessions_active"), 0u);
  EXPECT_EQ(direct->get("sessions_closed"), 1u);
  client_end->shutdown();
  session.join();
}

/// parallel:AE-SZ as the session's inner codec: the per-element bound
/// must hold through the pipelined container exactly as it does locally
/// (acceptance: bounds across >= 2 inner codecs incl. parallel:AE-SZ —
/// the others run in temporal_test.cpp).
TEST(SessionCodecs, ParallelAeszSessionHoldsTheBound) {
  svc::Server server(server_options(/*threads=*/2));
  const Field f0 = frame_at(0);
  svc::OpenStreamRequest req;
  req.codec = "parallel:AE-SZ";
  req.eb = ErrorBound::Abs(1e-2);
  req.dims = f0.dims();
  req.gop = 3;
  const auto id = open_session(server, req);
  ASSERT_NE(id, 0u);
  constexpr std::size_t kSteps = 5;
  for (std::size_t t = 0; t < kSteps; ++t) {
    const Field f = frame_at(t);
    auto parsed = svc::parse_append_timestep_response(server.handle_frame(
        svc::encode_append_timestep_request({id, field_bytes(f)})));
    ASSERT_TRUE(parsed.ok()) << "t=" << t << ": " << parsed.status().str();
  }
  for (std::size_t t = 0; t < kSteps; ++t) {
    // Bind the response frame: the parsed field span aliases it.
    const auto resp =
        server.handle_frame(svc::encode_read_timestep_request({id, t}));
    auto parsed = svc::parse_read_timestep_response(resp);
    ASSERT_TRUE(parsed.ok()) << "t=" << t << ": " << parsed.status().str();
    std::vector<float> recon(parsed->dims.total());
    std::memcpy(recon.data(), parsed->field.data(), parsed->field.size());
    EXPECT_LE(metrics::max_abs_err(frame_at(t).values(), recon),
              1e-2 * (1 + 1e-6))
        << "t=" << t;
  }
}

}  // namespace
}  // namespace aesz
