#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "data/field.hpp"
#include "predictors/error_bound.hpp"
#include "util/bytestream.hpp"
#include "util/crc32c.hpp"
#include "util/dims.hpp"
#include "util/expected.hpp"

namespace aesz::sz {

/// Stream-format version of the shared header (v2 added the ErrorBound
/// mode byte + requested value next to the resolved absolute bound; v3
/// added a whole-payload CRC32C at a fixed offset). Writers emit v3;
/// readers accept v2 (no checksum — decode-and-hope, as shipped) and v3
/// (checksum verified before any payload byte is trusted).
constexpr std::uint8_t kFormatVersion = 3;
constexpr std::uint8_t kLegacyFormatVersion = 2;

/// Byte offset of the v3 CRC32C field: magic bytes 0–3, version byte 4,
/// crc32c u32 bytes 5–8 covering everything from byte 9 to the end. The
/// fixed offset is what lets seal_stream() patch the value after the
/// codec has finished writing.
constexpr std::size_t kCrcOffset = 5;

/// Upper bound on total elements a header may declare — rejects hostile
/// dims before any allocation. 2^33 covers a 2048^3 SDRBench-scale volume
/// while keeping the worst hostile-header allocation (~32 GiB) bounded;
/// services handling untrusted streams should additionally gate on their
/// own memory budget before decompressing.
constexpr std::uint64_t kMaxTotalElems = std::uint64_t{1} << 33;

/// Parsed shared header of every codec's stream: magic + version + dims +
/// the bound the user requested (mode + value) + the absolute bound the
/// encoder resolved it to (what the decoder's quantizers need).
struct StreamHeader {
  Dims dims;
  ErrorBound eb;
  double abs_eb = 0.0;
};

// Shared header grammar of every sealed format in the repo — codec
// stream headers, the AEPC/AETC/AEPR containers and the service frames
// all spell these fields the same way and parse them through the readers
// below, so each validation rule lives in exactly one place:
//
//   magic u32 | version u8 | … | rank u8 | dims varint* |
//   eb-mode u8 | eb-value f64
//
// Every reader is fallible and maps each malformed prefix to a typed
// status (kTruncated, kBadMagic, kBadHeader) without reading out of
// bounds or allocating.

/// Cheap sniff: does `stream` lead with `magic`?
inline bool has_magic(std::span<const std::uint8_t> stream,
                      std::uint32_t magic) {
  std::uint32_t m = 0;
  if (stream.size() < sizeof(m)) return false;
  std::memcpy(&m, stream.data(), sizeof(m));
  return m == magic;
}

/// magic u32 | version u8, accepting the `current` version and one
/// `legacy` read-only revision (formats with a single revision pass the
/// same value twice). The version read is returned through `version`.
inline Status read_magic_version(ByteReader& r, std::uint32_t magic,
                                 std::uint8_t current, std::uint8_t legacy,
                                 std::uint8_t& version) {
  std::uint32_t m = 0;
  if (!r.try_get(m))
    return Status::error(ErrCode::kTruncated, "stream too short for magic");
  if (m != magic)
    return Status::error(ErrCode::kBadMagic, "stream magic mismatch");
  if (!r.try_get(version))
    return Status::error(ErrCode::kTruncated, "truncated version");
  if (version != current && version != legacy)
    return Status::error(ErrCode::kBadHeader,
                         "unsupported format version " +
                             std::to_string(version));
  return {};
}

inline void write_dims(ByteWriter& w, const Dims& d) {
  w.put(static_cast<std::uint8_t>(d.rank));
  for (int i = 0; i < d.rank; ++i) w.put_varint(d[i]);
}

/// rank ∈ [1,3], nonzero dims, product capped at kMaxTotalElems with
/// overflow-safe arithmetic — all checked before any allocation.
inline Status read_dims_checked(ByteReader& r, Dims& out) {
  std::uint8_t rank = 0;
  if (!r.try_get(rank))
    return Status::error(ErrCode::kTruncated, "truncated rank");
  if (rank < 1 || rank > 3)
    return Status::error(ErrCode::kBadHeader, "bad rank");
  out.rank = rank;
  std::uint64_t total = 1;
  for (int i = 0; i < rank; ++i) {
    std::uint64_t n = 0;
    if (!r.try_get_varint(n))
      return Status::error(ErrCode::kTruncated, "truncated dims");
    if (n == 0 || n > kMaxTotalElems || total > kMaxTotalElems / n)
      return Status::error(ErrCode::kBadHeader, "dims overflow");
    total *= n;
    out.d[static_cast<std::size_t>(i)] = static_cast<std::size_t>(n);
  }
  return {};
}

inline void write_error_bound(ByteWriter& w, const ErrorBound& eb) {
  w.put(static_cast<std::uint8_t>(eb.mode()));
  w.put(eb.value());
}

/// eb-mode u8 | eb-value f64: a known mode and a finite value. Whether
/// the bound must also be usable (positive) is the caller's rule.
inline Status read_error_bound(ByteReader& r, ErrorBound& out) {
  std::uint8_t mode = 0;
  double value = 0.0;
  if (!r.try_get(mode) || !r.try_get(value))
    return Status::error(ErrCode::kTruncated, "truncated error bound");
  if (mode > static_cast<std::uint8_t>(EbMode::kPSNR))
    return Status::error(ErrCode::kBadHeader, "bad error-bound mode");
  if (!std::isfinite(value))
    return Status::error(ErrCode::kBadHeader, "bad error-bound value");
  out = ErrorBound(static_cast<EbMode>(mode), value);
  return {};
}

/// Cap on an inner-codec-name blob: longer is a hostile header, not a
/// registry lookup.
constexpr std::size_t kMaxInnerName = 256;

inline void write_inner_name(ByteWriter& w, const std::string& name) {
  w.put_blob({reinterpret_cast<const std::uint8_t*>(name.data()),
              name.size()});
}

/// Inner-codec-name blob of the AETC/AEPR headers: 1..kMaxInnerName
/// printable ASCII bytes (the registry spelling of the wrapped codec).
inline Status read_inner_name(ByteReader& r, std::string& out) {
  std::span<const std::uint8_t> name;
  if (!r.try_get_blob(name))
    return Status::error(ErrCode::kTruncated, "truncated inner codec name");
  if (name.empty() || name.size() > kMaxInnerName)
    return Status::error(ErrCode::kBadHeader, "bad inner codec name length");
  out.assign(reinterpret_cast<const char*>(name.data()), name.size());
  for (char c : out) {
    if (c < 0x20 || c > 0x7E)
      return Status::error(ErrCode::kBadHeader,
                           "non-printable inner codec name");
  }
  return {};
}

/// Codec stream header (v3), the shared grammar plus two codec fields:
///   magic u32 | version u8 | crc32c u32 (over bytes 9..end) | rank u8 |
///   dims varint* | eb-mode u8 | eb-value f64 | abs-bound f64
/// The crc field is written as a zero placeholder here; the codec calls
/// seal_stream() on the finished byte vector to fill it in.
inline void write_header(ByteWriter& w, std::uint32_t magic, const Dims& d,
                         const ErrorBound& eb, double abs_eb) {
  w.put(magic);
  w.put(kFormatVersion);
  w.put(std::uint32_t{0});  // crc placeholder, patched by seal_stream()
  write_dims(w, d);
  write_error_bound(w, eb);
  w.put(abs_eb);
}

/// Fill in the v3 whole-payload checksum: CRC32C over every byte after
/// the crc field itself, patched into bytes 5–8. Every codec calls this
/// exactly once, on its finished stream, right before returning it.
inline std::vector<std::uint8_t> seal_stream(std::vector<std::uint8_t> s) {
  AESZ_CHECK_MSG(s.size() >= kCrcOffset + sizeof(std::uint32_t),
                 "stream too short to seal");
  const std::uint32_t crc = util::crc32c(
      std::span<const std::uint8_t>(s).subspan(kCrcOffset + 4));
  std::memcpy(s.data() + kCrcOffset, &crc, sizeof(crc));
  return s;
}

/// Fallible header parse: every malformed prefix (truncation, foreign
/// magic, bad version/rank/mode, zero or overflowing dims, non-finite
/// bound) maps to a typed status without reading out of bounds.
inline Expected<StreamHeader> read_header(ByteReader& r,
                                          std::uint32_t expected_magic) {
  std::uint8_t version = 0;
  if (Status s = read_magic_version(r, expected_magic, kFormatVersion,
                                    kLegacyFormatVersion, version);
      !s.ok())
    return s;
  if (version == kFormatVersion) {
    // v3: verify the whole-payload checksum before trusting a single
    // field past it. This one check covers every codec — they all parse
    // through here.
    std::uint32_t stored = 0;
    if (!r.try_get(stored))
      return Status::error(ErrCode::kTruncated, "truncated checksum");
    if (util::crc32c(r.rest()) != stored)
      return Status::error(ErrCode::kChecksumMismatch,
                           "stream checksum mismatch");
  }
  StreamHeader h;
  if (Status s = read_dims_checked(r, h.dims); !s.ok()) return s;
  if (Status s = read_error_bound(r, h.eb); !s.ok()) return s;
  if (!r.try_get(h.abs_eb))
    return Status::error(ErrCode::kTruncated, "truncated resolved bound");
  if (!std::isfinite(h.abs_eb) || h.abs_eb < 0)
    return Status::error(ErrCode::kBadHeader, "bad resolved bound");
  return h;
}

/// Throwing flavor for use inside decompress_impl bodies (the public
/// Compressor::decompress converts the throw back into the same status).
inline StreamHeader read_header_or_throw(ByteReader& r,
                                         std::uint32_t expected_magic) {
  auto h = read_header(r, expected_magic);
  if (!h.ok()) throw Error(h.status().code, h.status().message);
  return *std::move(h);
}

/// Shared compress-side bound resolution: validates the request and turns
/// it into the absolute tolerance the quantizers enforce (previously
/// duplicated across every codec's compress()).
inline double resolve_abs_eb(const Field& f, const ErrorBound& eb,
                             const char* codec_name) {
  if (!eb.usable())
    throw Error(ErrCode::kInvalidArgument,
                std::string(codec_name) +
                    " requires a positive, finite error bound (got " +
                    eb.str() + ")");
  return eb.absolute(f.value_range());
}

/// Zig-zag signed-to-unsigned mapping for varint coefficient streams.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace aesz::sz
