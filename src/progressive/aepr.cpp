#include "progressive/aepr.hpp"

#include <cmath>
#include <string>

#include "sz/common.hpp"
#include "util/crc32c.hpp"

namespace aesz::progressive {

namespace {

Status parse_header(ByteReader& r, StreamInfo& out) {
  if (Status s = sz::read_magic_version(r, kStreamMagic, kFormatVersion,
                                        kFormatVersionV1, out.version);
      !s.ok())
    return s;
  if (Status s = sz::read_inner_name(r, out.inner); !s.ok()) return s;
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  if (Status s = sz::read_error_bound(r, out.eb); !s.ok()) return s;
  if (!out.eb.usable())
    return Status::error(ErrCode::kBadHeader, "unusable error bound");
  if (!r.try_get(out.value_range))
    return Status::error(ErrCode::kTruncated, "truncated value range");
  if (!std::isfinite(out.value_range) || out.value_range < 0)
    return Status::error(ErrCode::kBadHeader, "bad value range");
  return {};
}

/// Layer-table validation shared by read_stream and peek paths: count
/// capped, offsets tiling the payload region contiguously in order,
/// lengths nonzero, bounds finite/positive and strictly decreasing — all
/// before any payload byte is touched or allocated.
Status parse_layer_table(ByteReader& r, StreamInfo& out) {
  std::uint64_t count = 0;
  if (!r.try_get_varint(count))
    return Status::error(ErrCode::kTruncated, "truncated layer count");
  if (count == 0 || count > kMaxLayers)
    return Status::error(ErrCode::kBadHeader, "layer count out of range");
  out.layers.reserve(static_cast<std::size_t>(count));
  std::size_t prev_end = 0;
  double prev_bound = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    LayerInfo layer;
    std::uint64_t offset = 0, length = 0;
    if (!r.try_get_varint(offset) || !r.try_get_varint(length) ||
        !r.try_get(layer.abs_eb))
      return Status::error(ErrCode::kTruncated, "truncated layer entry");
    if (out.version >= kFormatVersion && !r.try_get(layer.crc))
      return Status::error(ErrCode::kTruncated, "truncated layer entry");
    // Layers must tile the payload region exactly, in order — a table
    // pointing anywhere else (gaps, overlaps, backwards) is corrupt.
    if (offset != prev_end || length == 0)
      return Status::error(ErrCode::kCorruptStream,
                           "layer table does not tile the payload");
    if (length > sz::kMaxTotalElems * sizeof(float))
      return Status::error(ErrCode::kCorruptStream, "layer length overflow");
    if (!std::isfinite(layer.abs_eb) || layer.abs_eb <= 0)
      return Status::error(ErrCode::kCorruptStream, "bad layer bound");
    if (i > 0 && layer.abs_eb >= prev_bound)
      return Status::error(ErrCode::kCorruptStream,
                           "layer bounds must strictly decrease");
    layer.offset = static_cast<std::size_t>(offset);
    layer.length = static_cast<std::size_t>(length);
    prev_end = layer.offset + layer.length;
    prev_bound = layer.abs_eb;
    out.layers.push_back(layer);
  }
  return {};
}

}  // namespace

bool is_progressive(std::span<const std::uint8_t> stream) {
  return sz::has_magic(stream, kStreamMagic);
}

Expected<std::string> peek_inner(std::span<const std::uint8_t> stream) {
  StreamInfo info;
  ByteReader r(stream);
  if (Status s = parse_header(r, info); !s.ok()) return s;
  return info.inner;
}

std::vector<std::uint8_t> write_stream(const std::string& inner,
                                       const Dims& dims, const ErrorBound& eb,
                                       double value_range,
                                       std::span<const LayerInfo> layers) {
  AESZ_CHECK_ARG(!inner.empty() && inner.size() <= sz::kMaxInnerName,
                 "bad inner codec name length");
  AESZ_CHECK_ARG(dims.rank >= 1 && dims.rank <= 3, "bad rank");
  AESZ_CHECK_ARG(eb.usable(), "unusable error bound");
  AESZ_CHECK_ARG(std::isfinite(value_range) && value_range >= 0,
                 "bad value range");
  AESZ_CHECK_ARG(!layers.empty() && layers.size() <= kMaxLayers,
                 "layer count out of range");
  ByteWriter w;
  w.put(kStreamMagic);
  w.put(kFormatVersion);
  sz::write_inner_name(w, inner);
  sz::write_dims(w, dims);
  sz::write_error_bound(w, eb);
  w.put(value_range);
  w.put_varint(layers.size());
  std::size_t offset = 0;
  double prev_bound = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerInfo& layer = layers[i];
    AESZ_CHECK_ARG(!layer.payload.empty(), "empty layer payload");
    AESZ_CHECK_ARG(std::isfinite(layer.abs_eb) && layer.abs_eb > 0,
                   "bad layer bound");
    AESZ_CHECK_ARG(i == 0 || layer.abs_eb < prev_bound,
                   "layer bounds must strictly decrease");
    w.put_varint(offset);
    w.put_varint(layer.payload.size());
    w.put(layer.abs_eb);
    w.put(util::crc32c(layer.payload));
    offset += layer.payload.size();
    prev_bound = layer.abs_eb;
  }
  w.reserve(offset);
  for (const LayerInfo& layer : layers) w.put_bytes(layer.payload);
  return w.take();
}

Expected<StreamInfo> read_stream(std::span<const std::uint8_t> stream) {
  StreamInfo info;
  ByteReader r(stream);
  if (Status s = parse_header(r, info); !s.ok()) return s;
  if (Status s = parse_layer_table(r, info); !s.ok()) return s;
  info.header_bytes = r.pos();
  const std::size_t payload_bytes = r.remaining();

  // The payload region must end at an exact layer boundary: a
  // truncate_to() prefix carries the first k layers and nothing else.
  std::size_t matched = 0;
  std::size_t end = 0;
  for (const LayerInfo& layer : info.layers) {
    end = layer.offset + layer.length;
    if (end > payload_bytes) break;
    ++matched;
    if (end == payload_bytes) break;
  }
  if (matched == 0)
    return Status::error(ErrCode::kTruncated,
                         "payload shorter than the coarsest layer");
  const std::size_t last_end =
      info.layers[matched - 1].offset + info.layers[matched - 1].length;
  if (payload_bytes > last_end) {
    // More bytes than the matched prefix: either mid-layer truncation
    // (next layer started but did not finish) or trailing garbage past
    // the last declared layer.
    if (matched < info.layers.size())
      return Status::error(ErrCode::kTruncated,
                           "payload ends mid-layer (not a valid prefix)");
    return Status::error(ErrCode::kCorruptStream,
                         "trailing bytes after the last layer");
  }
  info.present = matched;
  for (std::size_t i = 0; i < matched; ++i) {
    LayerInfo& layer = info.layers[i];
    layer.payload = stream.subspan(info.header_bytes + layer.offset,
                                   layer.length);
    // v2: only the layers this (possibly truncated) stream carries are
    // verified — absent layers' table checksums simply go unused.
    if (info.version >= kFormatVersion &&
        util::crc32c(layer.payload) != layer.crc)
      return Status::error(ErrCode::kChecksumMismatch,
                           "layer " + std::to_string(i) +
                               " checksum mismatch");
  }
  return info;
}

std::size_t prefix_bytes(const StreamInfo& info, std::size_t k) {
  AESZ_CHECK_ARG(k < info.layers.size(), "layer index out of range");
  return info.header_bytes + info.layers[k].offset + info.layers[k].length;
}

std::size_t layers_for_budget(const StreamInfo& info, std::size_t budget) {
  std::size_t k = 0;
  for (std::size_t i = 1; i < info.present; ++i) {
    if (prefix_bytes(info, i) > budget) break;
    k = i;
  }
  return k;
}

Expected<std::size_t> layers_for_bound(const StreamInfo& info,
                                       const ErrorBound& target) {
  if (!target.usable())
    return Status::error(ErrCode::kInvalidArgument,
                         "unusable target bound " + target.str());
  const double abs = target.absolute(info.value_range);
  for (std::size_t i = 0; i < info.present; ++i)
    if (info.layers[i].abs_eb <= abs) return i;
  // Tighter than anything present: best effort, serve the whole stream.
  return info.present - 1;
}

}  // namespace aesz::progressive
