#include "pipeline/container.hpp"

#include <cmath>
#include <string>

#include "sz/common.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace aesz::pipeline {

bool is_container(std::span<const std::uint8_t> stream) {
  return sz::has_magic(stream, kContainerMagic);
}

namespace {

/// magic | version | inner codec magic — shared by the full parse and the
/// identify() peek.
Status read_prefix(ByteReader& r, std::uint8_t& version,
                   std::uint32_t& inner_magic) {
  if (Status s = sz::read_magic_version(r, kContainerMagic, kContainerVersion,
                                        kContainerVersionV1, version);
      !s.ok())
    return s;
  if (!r.try_get(inner_magic))
    return Status::error(ErrCode::kTruncated, "truncated container header");
  return {};
}

}  // namespace

Expected<std::uint32_t> peek_inner_magic(
    std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  std::uint8_t version = 0;
  std::uint32_t inner = 0;
  if (Status s = read_prefix(r, version, inner); !s.ok()) return s;
  return inner;
}

std::vector<std::uint8_t> write_container(
    std::uint32_t inner_magic, const Dims& dims, const ErrorBound& eb,
    double abs_eb, std::size_t chunk_rows,
    const std::vector<ChunkSpec>& chunks,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  AESZ_CHECK_ARG(chunks.size() == payloads.size(),
                 "chunk/payload count mismatch");
  AESZ_CHECK_ARG(!chunks.empty(), "container needs at least one chunk");
  ByteWriter w;
  w.put(kContainerMagic);
  w.put(kContainerVersion);
  w.put(inner_magic);
  sz::write_dims(w, dims);
  sz::write_error_bound(w, eb);
  w.put(abs_eb);
  w.put_varint(chunk_rows);
  w.put_varint(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    w.put_varint(chunks[i].rows);
    w.put_varint(payloads[i].size());
    w.put(util::crc32c(payloads[i]));
  }
  for (const auto& p : payloads) w.put_bytes(p);
  return w.take();
}

Expected<ContainerInfo> read_container(
    std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  ContainerInfo info;
  std::uint8_t version = 0;
  if (Status s = read_prefix(r, version, info.inner_magic); !s.ok()) return s;
  const bool has_crc = version >= kContainerVersion;
  if (Status s = sz::read_dims_checked(r, info.dims); !s.ok()) return s;
  const int rank = info.dims.rank;
  if (Status s = sz::read_error_bound(r, info.eb); !s.ok()) return s;
  if (!r.try_get(info.abs_eb))
    return Status::error(ErrCode::kTruncated, "truncated resolved bound");
  if (!std::isfinite(info.abs_eb) || info.abs_eb < 0)
    return Status::error(ErrCode::kBadHeader, "bad resolved bound");

  std::uint64_t chunk_rows = 0, chunk_count = 0;
  if (!r.try_get_varint(chunk_rows) || !r.try_get_varint(chunk_count))
    return Status::error(ErrCode::kTruncated, "truncated chunk table");
  // A chunk spans at least one axis-0 plane and its table entry takes at
  // least two bytes — both caps are checked BEFORE the table allocation so
  // a hostile count cannot trigger one.
  if (chunk_count == 0 || chunk_count > info.dims[0] ||
      chunk_count > r.remaining() / 2)
    return Status::error(ErrCode::kBadHeader, "bad chunk count");
  info.chunk_rows = static_cast<std::size_t>(chunk_rows);

  std::size_t stride = 1;
  for (int i = 1; i < rank; ++i) stride *= info.dims[i];
  info.chunks.reserve(static_cast<std::size_t>(chunk_count));
  std::vector<std::uint64_t> lengths;
  lengths.reserve(static_cast<std::size_t>(chunk_count));
  std::vector<std::uint32_t> crcs;
  if (has_crc) crcs.reserve(static_cast<std::size_t>(chunk_count));
  std::uint64_t row0 = 0, payload_total = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    std::uint64_t rows = 0, nbytes = 0;
    if (!r.try_get_varint(rows) || !r.try_get_varint(nbytes))
      return Status::error(ErrCode::kTruncated, "truncated chunk table");
    if (has_crc) {
      std::uint32_t crc = 0;
      if (!r.try_get(crc))
        return Status::error(ErrCode::kTruncated, "truncated chunk table");
      crcs.push_back(crc);
    }
    if (rows == 0 || rows > info.dims[0] - row0)
      return Status::error(ErrCode::kCorruptStream,
                           "chunk table does not tile the field");
    // Bounds-before-accumulate: nbytes is compared against the remaining
    // stream bytes, so payload_total can never overflow.
    if (nbytes > r.remaining() || payload_total > r.remaining() - nbytes)
      return Status::error(ErrCode::kTruncated,
                           "chunk payload exceeds stream");
    ChunkSpec c;
    c.row0 = static_cast<std::size_t>(row0);
    c.rows = static_cast<std::size_t>(rows);
    c.dims = info.dims;
    c.dims.d[0] = c.rows;
    c.elem0 = c.row0 * stride;
    c.elems = c.rows * stride;
    info.chunks.push_back(c);
    lengths.push_back(nbytes);
    row0 += rows;
    payload_total += nbytes;
  }
  if (row0 != info.dims[0])
    return Status::error(ErrCode::kCorruptStream,
                         "chunk table does not cover the field");
  if (payload_total != r.remaining())
    return Status::error(ErrCode::kCorruptStream,
                         "container payload size mismatch");
  info.payloads.reserve(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::span<const std::uint8_t> p;
    if (!r.try_get_bytes(static_cast<std::size_t>(lengths[i]), p))
      return Status::error(ErrCode::kTruncated, "truncated chunk payload");
    if (has_crc && util::crc32c(p) != crcs[i])
      return Status::error(ErrCode::kChecksumMismatch,
                           "chunk " + std::to_string(i) +
                               " checksum mismatch");
    info.payloads.push_back(p);
  }
  return info;
}

}  // namespace aesz::pipeline
