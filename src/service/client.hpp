#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/field.hpp"
#include "predictors/error_bound.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "service/transport.hpp"
#include "util/expected.hpp"

namespace aesz::service {

/// Synchronous client over any Transport: one request frame out, one
/// response frame in. An error frame from the server comes back as the
/// typed Status it carries, transport failures as kIoError — callers
/// dispatch on ErrCode exactly like the local Expected-based codec API.
///
/// The client borrows the transport (no ownership) and is NOT thread-safe:
/// give each thread its own connection, or serialize externally. Pipelined
/// use (stacking requests before reading responses) is possible against
/// the raw transport; this wrapper keeps the simple call-and-wait shape.
class Client {
 public:
  explicit Client(Transport& transport) : transport_(&transport) {}

  /// Produces a replacement connection after the current one dies or
  /// desynchronizes; the Client owns the replacement.
  using ReconnectFn = std::function<Expected<std::unique_ptr<Transport>>()>;

  /// Enable transparent retry of idempotent operations (everything except
  /// Stream::append/close — replaying an append after a lost response
  /// would store the timestep twice). `reconnect` is invoked before a
  /// re-attempt when the failure was connection-level: kIoError (peer
  /// gone) or kTimeout (a stale response may still arrive, so the old
  /// connection cannot be trusted to pair responses with requests).
  /// kOverloaded backs off on the same connection. `sleep` exists so
  /// tests run the schedule without wall-clock waits.
  void set_retry(RetryPolicy policy, ReconnectFn reconnect = nullptr,
                 SleepFn sleep = sleep_for_ms) {
    retry_ = policy;
    retry_enabled_ = true;
    reconnect_ = std::move(reconnect);
    sleep_ = std::move(sleep);
  }

  /// Wrap every request in a deadline envelope (op 0x0B): the server
  /// answers kTimeout instead of executing once the budget has expired in
  /// its queue. 0 disables.
  void set_deadline_ms(std::uint64_t ms) { deadline_ms_ = ms; }

  /// Checksum frames in both directions (transport-level CRC32C trailers,
  /// frame.hpp). Remembered across reconnects.
  void set_frame_crc(bool on) {
    want_crc_ = on;
    transport_->set_frame_crc(on);
  }

  struct CompressResult {
    std::vector<std::uint8_t> stream;
    /// The absolute tolerance the server resolved the requested bound to.
    double abs_eb = 0.0;
  };

  /// Compress `f` under `eb` with the named server-side codec.
  Expected<CompressResult> compress(const std::string& codec, const Field& f,
                                    const ErrorBound& eb);

  /// Pipelined compression: send ALL requests before reading any response,
  /// so an event-loop server sees them queued together and can coalesce
  /// compatible ones into one batched inference pass. Result i corresponds
  /// to fields[i] (responses arrive in request order); each slot carries
  /// its own success or typed error. A transport failure mid-pipeline
  /// fails the remaining slots with its status.
  std::vector<Expected<CompressResult>> compress_many(
      const std::string& codec, const std::vector<const Field*>& fields,
      const ErrorBound& eb);

  /// Decompress a stream. Empty `codec` asks the server to identify it by
  /// its magic.
  Expected<Field> decompress(std::span<const std::uint8_t> stream,
                             const std::string& codec = "");

  struct PartialResult {
    /// A valid AEPR stream: the prefix of `stream` carrying the served
    /// layers (decode with progressive::ProgressiveReader, or hand back
    /// to decompress() for full fidelity once all layers are present).
    std::vector<std::uint8_t> stream;
    /// The absolute tolerance the served prefix honors.
    double abs_eb = 0.0;
    std::uint64_t layers = 0;        // layers the prefix carries
    std::uint64_t total_layers = 0;  // layers the full stream declares
  };

  /// Byte-budgeted retrieval from an AEPR progressive stream (op 0x0A):
  /// the largest layer prefix whose bytes fit `budget` — never less than
  /// the coarsest layer, so a tiny budget still answers a usable field.
  Expected<PartialResult> read_partial(std::span<const std::uint8_t> stream,
                                       std::uint64_t budget);

  /// Bound-targeted retrieval: the smallest layer prefix whose recorded
  /// tolerance meets `target` (best effort: the whole stream when the
  /// target outruns its final layer).
  Expected<PartialResult> read_partial(std::span<const std::uint8_t> stream,
                                       const ErrorBound& target);

  Expected<std::vector<CodecSummary>> list_codecs();

  Expected<StatsResponse> stats();

  /// Prometheus text exposition of the server's metrics registry (op
  /// 0x09). A pre-metrics server answers with kBadHeader, surfaced here as
  /// the typed error status.
  Expected<std::string> metrics();

  /// RAII handle on one server-side stream session. Obtained from
  /// open_stream(); move-only. close() ends the session and returns the
  /// complete AETC artifact; if the handle dies without close(), the
  /// destructor closes the session best-effort (artifact discarded) so
  /// abandoned handles do not pin server state until the idle reaper
  /// runs. Borrows the Client — same single-thread discipline, and the
  /// Client (and its transport) must outlive the handle.
  class Stream {
   public:
    Stream(Stream&& other) noexcept;
    Stream& operator=(Stream&& other) noexcept;
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;
    ~Stream();

    struct AppendInfo {
      std::uint64_t timestep = 0;
      bool residual = false;
      double abs_eb = 0.0;
      std::uint64_t stored_bytes = 0;
    };

    /// Compress-and-append one timestep on the server.
    Expected<AppendInfo> append(const Field& f);

    /// Decode timestep t back out of the session's stream.
    Expected<Field> read_timestep(std::uint64_t t);

    /// Close the session and fetch the complete AETC artifact (readable
    /// with temporal::TemporalReader, appendable with TemporalWriter).
    /// After a successful close the handle is inert. If the server
    /// refuses (artifact over the frame cap), the session STAYS open —
    /// timesteps remain readable.
    Expected<std::vector<std::uint8_t>> close();

    std::uint64_t id() const { return id_; }
    bool open() const { return client_ != nullptr; }

   private:
    friend class Client;
    Stream(Client* client, std::uint64_t id) : client_(client), id_(id) {}

    Client* client_ = nullptr;  // null once closed / moved-from
    std::uint64_t id_ = 0;
  };

  /// Open a stream session: the server allocates per-session state (inner
  /// codec, residual reference chain, growing artifact) addressed by the
  /// returned handle. `gop` is the keyframe cadence (0 = single leading
  /// keyframe).
  Expected<Stream> open_stream(const std::string& codec, const Dims& dims,
                               const ErrorBound& eb, std::uint64_t gop = 8);

 private:
  /// Send one frame, receive one frame, check it carries `expected` (an
  /// error frame is unwrapped into its Status instead). Applies the
  /// deadline envelope, and — for idempotent requests when retry is
  /// enabled — the retry/reconnect policy.
  Expected<std::vector<std::uint8_t>> round_trip(
      std::span<const std::uint8_t> request, Op expected,
      bool idempotent = true);
  Expected<std::vector<std::uint8_t>> round_trip_once(
      std::span<const std::uint8_t> request, Op expected);
  void maybe_reconnect(const Status& failure);

  Transport* transport_;               // never null; repointed on reconnect
  std::unique_ptr<Transport> owned_;   // a reconnect-produced replacement
  RetryPolicy retry_;
  bool retry_enabled_ = false;
  ReconnectFn reconnect_;
  SleepFn sleep_ = sleep_for_ms;
  std::uint64_t deadline_ms_ = 0;
  bool want_crc_ = false;
};

}  // namespace aesz::service
