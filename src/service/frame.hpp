#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/crc32c.hpp"
#include "util/expected.hpp"

namespace aesz::service {

/// The service wire frame, written once: the transports and the event
/// server frame and unframe bytes only through these functions
/// (docs/PROTOCOL.md "Framing"). On the wire a frame is
///
///   u32 LE prefix | body | u32 LE CRC32C trailer (only when flagged)
///
/// The prefix's low 31 bits count the BODY bytes. Bit 31, kFrameCrcFlag
/// (protocol rev 2026-08, wire version unchanged), announces the trailer.
/// It is opt-in per sender and sticky per receiving connection: once a
/// peer sends one checksummed frame, every frame back to it carries a
/// trailer too, while a legacy peer never sees a changed byte. A trailer
/// that does not match is kChecksumMismatch, NOT a framing error: the
/// length was intact, so the connection stays synchronized and usable.
constexpr std::size_t kFramePrefixBytes = 4;
constexpr std::uint32_t kFrameCrcFlag = 0x80000000u;
constexpr std::uint32_t kFrameLenMask = 0x7FFFFFFFu;
constexpr std::size_t kFrameCrcBytes = 4;

/// Upper bound on a frame body. Receivers reject a larger declared length
/// before allocating; at 4 bytes/element this caps a served field at
/// 256 Mi elements per request, far above the bench/test sizes.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

struct FramePrefix {
  std::size_t body_len = 0;
  bool crc = false;  // a CRC32C trailer follows the body
};

namespace detail {
inline std::array<std::uint8_t, 4> le32(std::uint32_t v) {
  std::array<std::uint8_t, 4> out;
  std::memcpy(out.data(), &v, 4);
  return out;
}
}  // namespace detail

/// Prefix for a body of `body_len` (<= kMaxFrameBytes) bytes.
inline std::array<std::uint8_t, kFramePrefixBytes> encode_frame_prefix(
    std::size_t body_len, bool crc) {
  return detail::le32(static_cast<std::uint32_t>(body_len) |
                      (crc ? kFrameCrcFlag : 0u));
}

/// Masks the CRC flag off first, so a checksummed max-size frame is not
/// misread as an oversize one; then a length over kMaxFrameBytes is
/// kCorruptStream, decided before anything is allocated.
inline Expected<FramePrefix> decode_frame_prefix(
    std::span<const std::uint8_t, kFramePrefixBytes> prefix) {
  std::uint32_t word = 0;
  std::memcpy(&word, prefix.data(), kFramePrefixBytes);
  const std::size_t len = word & kFrameLenMask;
  if (len > kMaxFrameBytes)
    return Status::error(ErrCode::kCorruptStream,
                         "declared frame length exceeds limit");
  return FramePrefix{len, (word & kFrameCrcFlag) != 0};
}

/// The CRC32C trailer over `body`.
inline std::array<std::uint8_t, kFrameCrcBytes> frame_trailer(
    std::span<const std::uint8_t> body) {
  return detail::le32(util::crc32c(body));
}

/// kChecksumMismatch unless `trailer` is the CRC32C of `body`.
inline Status verify_frame_trailer(
    std::span<const std::uint8_t> body,
    std::span<const std::uint8_t, kFrameCrcBytes> trailer) {
  const auto want = frame_trailer(body);
  if (!std::equal(want.begin(), want.end(), trailer.begin()))
    return Status::error(ErrCode::kChecksumMismatch,
                         "frame checksum mismatch");
  return {};
}

/// Prefix, body, and the trailer when `crc`: one frame's whole wire image.
inline std::vector<std::uint8_t> frame_wire_image(
    std::span<const std::uint8_t> body, bool crc) {
  std::vector<std::uint8_t> wire(kFramePrefixBytes + body.size() +
                                 (crc ? kFrameCrcBytes : 0));
  const auto prefix = encode_frame_prefix(body.size(), crc);
  auto out = std::copy(prefix.begin(), prefix.end(), wire.begin());
  out = std::copy(body.begin(), body.end(), out);
  if (crc) {
    const auto trailer = frame_trailer(body);
    std::copy(trailer.begin(), trailer.end(), out);
  }
  return wire;
}

/// What end of stream means `have` bytes into a frame. Before a whole
/// prefix the peer is simply gone: kIoError, which the client's retry
/// policy treats as a reconnectable loss. After it the frame was cut
/// short: kCorruptStream.
inline Status frame_eof_status(std::size_t have) {
  if (have < kFramePrefixBytes)
    return Status::error(ErrCode::kIoError, "connection closed");
  return Status::error(ErrCode::kCorruptStream,
                       "connection closed mid-frame");
}

}  // namespace aesz::service
