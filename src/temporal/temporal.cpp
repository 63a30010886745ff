#include "temporal/temporal.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "util/bytestream.hpp"
#include "util/error.hpp"

namespace aesz::temporal {

namespace {

/// Re-derive a record's payload span from the record bytes (the writer
/// keeps offsets only — payload spans into a growing body buffer would
/// dangle across reallocations).
std::span<const std::uint8_t> record_payload(
    std::span<const std::uint8_t> stream, const RecordInfo& rec) {
  ByteReader r(stream.subspan(rec.offset, rec.length));
  r.get<std::uint8_t>();  // marker
  r.get<std::uint8_t>();  // mode
  r.get<double>();        // abs bound
  return r.get_blob();
}

/// Index of the nearest keyframe at or before t, or an error when the
/// record sequence has none (corrupt: a stream must open with intra).
Expected<std::size_t> keyframe_before(const std::vector<RecordInfo>& recs,
                                      std::size_t t) {
  std::size_t k = t;
  while (recs[k].mode != kModeIntra) {
    if (k == 0)
      return Status::error(ErrCode::kCorruptStream,
                           "no keyframe before timestep");
    --k;
  }
  return k;
}

/// Decode timestep t from scratch: seek to the nearest keyframe, then
/// chain residuals forward. Shared by the writer's read path and its
/// reopen (which needs the final frame to restore the encoder chain).
Expected<Field> decode_at(Compressor& codec, const Dims& dims,
                          std::span<const std::uint8_t> stream,
                          const std::vector<RecordInfo>& recs,
                          std::size_t t) {
  auto k = keyframe_before(recs, t);
  if (!k.ok()) return k.status();
  Field ref;
  for (std::size_t i = *k; i <= t; ++i) {
    if (Status s = decode_and_fold(codec, record_payload(stream, recs[i]),
                                   dims, recs[i].mode == kModeResidual, ref);
        !s.ok())
      return s;
  }
  return ref;
}

}  // namespace

Expected<Mode> parse_mode(const std::string& spec) {
  std::string s = spec;
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "auto") return Mode::kAuto;
  if (s == "intra") return Mode::kIntra;
  if (s == "residual") return Mode::kResidual;
  return Status::error(ErrCode::kInvalidArgument,
                       "unknown temporal mode '" + spec +
                           "' (use auto|intra|residual)");
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kAuto: return "auto";
    case Mode::kIntra: return "intra";
    case Mode::kResidual: return "residual";
  }
  return "?";
}

TemporalCompressor::TemporalCompressor(std::unique_ptr<Compressor> codec,
                                       Dims dims, ErrorBound eb,
                                       std::size_t gop, Mode mode)
    : codec_(std::move(codec)), dims_(dims), eb_(eb), gop_(gop), mode_(mode) {
  AESZ_CHECK_ARG(codec_ != nullptr, "temporal codec requires an inner codec");
  AESZ_CHECK_ARG(dims_.rank >= 1 && dims_.rank <= 3, "bad rank");
  AESZ_CHECK_ARG(eb_.usable(), "unusable error bound");
  AESZ_CHECK_ARG(gop_ <= kMaxGop, "gop exceeds cap");
  if (!codec_->supports_rank(dims_.rank))
    throw Error(ErrCode::kUnsupported,
                "codec '" + codec_->name() + "' does not support rank " +
                    std::to_string(dims_.rank));
  // An unbounded residual chain compounds error without limit — force
  // snapshot coding for codecs that cannot bound the residual.
  if (!codec_->error_bounded()) mode_ = Mode::kIntra;
}

TemporalCompressor::StepResult TemporalCompressor::compress_step(
    const Field& f) {
  AESZ_CHECK_ARG(f.dims() == dims_,
                 "timestep dims " + f.dims().str() + " != stream dims " +
                     dims_.str());
  StepResult out;
  out.abs_eb = eb_.absolute(f.value_range());
  const bool keyframe = step_ == 0 || (gop_ > 0 && step_ % gop_ == 0);
  const bool try_residual = !keyframe && mode_ != Mode::kIntra;

  std::vector<std::uint8_t> residual_stream;
  if (try_residual) {
    // Abs, not the stream bound: rel/psnr must stay relative to the
    // ORIGINAL frame's range, which out.abs_eb already resolved.
    residual_stream = codec_->compress(residual_of(f, ref_),
                                       ErrorBound::Abs(out.abs_eb));
  }
  if (keyframe || mode_ != Mode::kResidual) {
    std::vector<std::uint8_t> intra_stream = codec_->compress(f, eb_);
    // Auto mode keeps the smaller trial; ties go intra (better error
    // containment at equal cost).
    if (try_residual && residual_stream.size() < intra_stream.size()) {
      out.mode = kModeResidual;
      out.payload = std::move(residual_stream);
    } else {
      out.mode = kModeIntra;
      out.payload = std::move(intra_stream);
    }
  } else {
    out.mode = kModeResidual;
    out.payload = std::move(residual_stream);
  }

  // Advance the reference chain with the DECODED frame, so the encoder
  // state is bit-identical to what any decoder reconstructs.
  auto advanced = decode_step(out.mode, out.payload);
  if (!advanced.ok())
    throw Error(ErrCode::kInternal,
                "self-decode of freshly encoded timestep failed: " +
                    advanced.status().str());
  return out;
}

Expected<Field> TemporalCompressor::decode_step(
    std::uint8_t mode, std::span<const std::uint8_t> payload) {
  if (mode != kModeIntra && mode != kModeResidual)
    return Status::error(ErrCode::kCorruptStream, "bad record mode");
  if (Status s = decode_and_fold(*codec_, payload, dims_,
                                 mode == kModeResidual, ref_);
      !s.ok())
    return s;
  ++step_;
  return ref_;
}

void TemporalCompressor::reset() {
  ref_ = Field();
  step_ = 0;
}

void TemporalCompressor::restore(Field ref, std::size_t step) {
  AESZ_CHECK_ARG(ref.dims() == dims_, "restore dims mismatch");
  AESZ_CHECK_ARG(step > 0, "restore needs a decoded timestep");
  ref_ = std::move(ref);
  step_ = step;
}

TemporalWriter::TemporalWriter(Dims dims, ErrorBound eb, Options opt) {
  inner_ = opt.inner;
  dims_ = dims;
  eb_ = eb;
  gop_ = opt.gop;
  enc_ = std::make_unique<TemporalCompressor>(
      make_inner(opt.factory, inner_, dims.rank).value(), dims_, eb_, gop_,
      opt.mode);
  body_ = write_stream_header(inner_, dims_, eb_, gop_);
}

Expected<std::unique_ptr<TemporalWriter>> TemporalWriter::open(
    std::span<const std::uint8_t> stream, Options opt, bool recover) {
  auto parsed = recover ? recover_stream(stream) : read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  StreamInfo info = std::move(*parsed);

  auto codec = make_inner(opt.factory, info.inner, info.dims.rank);
  if (!codec.ok()) return codec.status();

  std::unique_ptr<TemporalWriter> w(new TemporalWriter());
  w->inner_ = info.inner;
  w->dims_ = info.dims;
  w->eb_ = info.eb;
  w->gop_ = info.gop;
  w->version_ = info.version;
  w->enc_ = std::make_unique<TemporalCompressor>(std::move(*codec), w->dims_,
                                                 w->eb_, w->gop_, opt.mode);
  w->body_.assign(stream.begin(),
                  stream.begin() + static_cast<std::ptrdiff_t>(info.body_bytes));
  w->records_ = std::move(info.records);
  // The parsed payload spans alias the caller's buffer, which this writer
  // outlives — drop them; the offsets into body_ are the durable truth.
  for (RecordInfo& rec : w->records_) rec.payload = {};

  if (!w->records_.empty()) {
    const std::size_t last = w->records_.size() - 1;
    auto ref = decode_at(w->enc_->codec(), w->dims_, w->body_, w->records_,
                         last);
    if (!ref.ok()) return ref.status();
    w->enc_->restore(std::move(*ref), w->records_.size());
  }
  return w;
}

TemporalWriter::AppendResult TemporalWriter::append(const Field& f) {
  auto step = enc_->compress_step(f);
  RecordInfo rec;
  rec.mode = step.mode;
  rec.abs_eb = step.abs_eb;
  rec.offset = body_.size();
  append_record(body_, step.mode, step.abs_eb, step.payload, version_);
  rec.length = body_.size() - rec.offset;
  records_.push_back(rec);
  return {records_.size() - 1, step.mode, step.abs_eb, rec.length};
}

Expected<Field> TemporalWriter::read(std::size_t t) {
  if (t >= records_.size())
    return Status::error(ErrCode::kInvalidArgument,
                         "timestep " + std::to_string(t) + " out of range (" +
                             std::to_string(records_.size()) + " stored)");
  return decode_at(enc_->codec(), dims_, body_, records_, t);
}

std::vector<std::uint8_t> TemporalWriter::bytes() const {
  std::vector<std::uint8_t> out = body_;
  const auto footer = write_footer(records_);
  out.insert(out.end(), footer.begin(), footer.end());
  return out;
}

Expected<std::unique_ptr<TemporalReader>> TemporalReader::open(
    std::span<const std::uint8_t> stream, CodecFactory factory) {
  auto parsed = read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  auto codec = make_inner(factory, parsed->inner, parsed->dims.rank);
  if (!codec.ok()) return codec.status();
  std::unique_ptr<TemporalReader> r(new TemporalReader());
  r->info_ = std::move(*parsed);
  r->dec_ = std::make_unique<TemporalCompressor>(
      std::move(*codec), r->info_.dims, r->info_.eb, r->info_.gop,
      Mode::kAuto);
  return r;
}

Expected<Field> TemporalReader::read(std::size_t t) {
  const auto& recs = info_.records;
  if (t >= recs.size())
    return Status::error(ErrCode::kInvalidArgument,
                         "timestep " + std::to_string(t) + " out of range (" +
                             std::to_string(recs.size()) + " stored)");
  auto k = keyframe_before(recs, t);
  if (!k.ok()) return k.status();
  // Continue the memoized chain when it sits inside [keyframe, t];
  // otherwise re-seek from the keyframe.
  std::size_t start = next_;
  if (next_ == 0 || next_ < *k || next_ > t) {
    dec_->reset();
    start = *k;
  }
  next_ = 0;  // invalid until the loop below completes
  Field out;
  for (std::size_t i = start; i <= t; ++i) {
    auto f = dec_->decode_step(recs[i].mode, recs[i].payload);
    if (!f.ok()) {
      dec_->reset();
      return f.status();
    }
    out = std::move(*f);
  }
  next_ = t + 1;
  return out;
}

}  // namespace aesz::temporal
