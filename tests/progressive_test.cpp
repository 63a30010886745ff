// Progressive subsystem (src/progressive/): the refinement-layer recoder,
// the AEPR layered container, the codec-free truncate queries, and their
// hostile-input behavior. The acceptance contracts under test:
//   - every layer PREFIX decodes to a valid field honoring that layer's
//     recorded absolute bound, for >= 2 inner codecs;
//   - the final layer restores the exact non-progressive guarantee;
//   - a truncate_to() prefix is itself a valid AEPR stream, and truncation
//     anywhere but an exact layer boundary is a typed error;
//   - lying layer tables (gaps, overlaps, zero lengths, non-decreasing
//     bounds, oversized lengths) are rejected before any allocation;
//   - the registry exposes `progressive:<codec>` wrappers and identify()
//     resolves the AEPR magic through the inner-codec name.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "progressive/aepr.hpp"
#include "progressive/progressive.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace aesz::progressive {
namespace {

Field test_field() {
  return synth::value_noise_2d(32, 48, /*octaves=*/3, /*cells0=*/6.0,
                               /*seed=*/77);
}

double max_abs_error(const Field& a, const Field& b) {
  double worst = 0.0;
  auto av = a.values();
  auto bv = b.values();
  for (std::size_t i = 0; i < av.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(av[i]) -
                                     static_cast<double>(bv[i])));
  return worst;
}

std::vector<std::uint8_t> encode(const std::string& inner,
                                 const ErrorBound& eb,
                                 std::size_t layers = 3) {
  ProgressiveWriter::Options opt;
  opt.inner = inner;
  opt.layers = layers;
  return ProgressiveWriter(opt).encode(test_field(), eb);
}

// Slack for float-vs-double rounding in the bound comparisons, same as
// the temporal tests use.
constexpr double kSlack = 1 + 1e-9;

// ------------------------------------------------ per-prefix guarantees --

class ProgressiveInner : public ::testing::TestWithParam<const char*> {};

TEST_P(ProgressiveInner, EveryLayerPrefixHonorsItsRecordedBound) {
  const Field f = test_field();
  const ErrorBound eb = ErrorBound::Abs(1e-2);
  const auto stream = encode(GetParam(), eb);
  auto reader = ProgressiveReader::open(stream);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  ASSERT_EQ((*reader)->present(), 3u);
  double prev_bound = 0.0;
  for (std::size_t k = 0; k < (*reader)->present(); ++k) {
    const double bound = (*reader)->bound_after(k);
    if (k > 0) {
      EXPECT_LT(bound, prev_bound);  // each layer refines
    }
    prev_bound = bound;
    auto recon = (*reader)->read(k);
    ASSERT_TRUE(recon.ok()) << recon.status().str();
    EXPECT_LE(max_abs_error(f, *recon), bound * kSlack)
        << GetParam() << " layer " << k;
  }
  // The final layer restores the exact non-progressive guarantee.
  EXPECT_DOUBLE_EQ((*reader)->bound_after((*reader)->present() - 1),
                   eb.absolute(f.value_range()));
}

TEST_P(ProgressiveInner, RelativeBoundResolvesAgainstTheOriginalRange) {
  const Field f = test_field();
  const ErrorBound eb = ErrorBound::Rel(1e-2);
  const auto stream = encode(GetParam(), eb);
  auto reader = ProgressiveReader::open(stream);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  auto recon = (*reader)->read((*reader)->present() - 1);
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  EXPECT_LE(max_abs_error(f, *recon),
            eb.absolute(f.value_range()) * kSlack);
}

INSTANTIATE_TEST_SUITE_P(Codecs, ProgressiveInner,
                         ::testing::Values("SZ2.1", "ZFP", "SZinterp",
                                           "parallel:SZ2.1"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(ProgressiveWriter_, SameFieldSameKnobsSameBytes) {
  const ErrorBound eb = ErrorBound::Abs(1e-2);
  EXPECT_EQ(encode("SZ2.1", eb), encode("SZ2.1", eb));
}

TEST(ProgressiveWriter_, RejectsNonErrorBoundedInner) {
  ProgressiveWriter::Options opt;
  opt.inner = "AE-B";
  try {
    ProgressiveWriter(opt).encode(test_field(), ErrorBound::Abs(1e-2));
    FAIL() << "AE-B has no bound to ladder";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnsupported);
  }
}

TEST(ProgressiveWriter_, RejectsBadLadderShapes) {
  ProgressiveWriter::Options opt;
  opt.layers = 0;
  EXPECT_THROW(ProgressiveWriter{opt}, Error);
  opt.layers = kMaxLayers + 1;
  EXPECT_THROW(ProgressiveWriter{opt}, Error);
  opt.layers = 3;
  opt.factor = 1.0;  // rungs would not decrease
  EXPECT_THROW(ProgressiveWriter{opt}, Error);
}

TEST(ProgressiveReader_, MemoizedChainSurvivesRewindAndRefine) {
  const Field f = test_field();
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2));
  auto reader = ProgressiveReader::open(stream);
  ASSERT_TRUE(reader.ok());
  const Field full = (*reader)->read(2).value();
  const Field coarse = (*reader)->read(0).value();   // rewind
  const Field full2 = (*reader)->read(2).value();    // refine again
  EXPECT_EQ(full.values().size(), full2.values().size());
  EXPECT_TRUE(std::equal(full.values().begin(), full.values().end(),
                         full2.values().begin()));
  EXPECT_LE(max_abs_error(f, coarse), (*reader)->bound_after(0) * kSlack);
}

// ------------------------------------------------------ prefix validity --

TEST(AeprPrefix, EveryLayerBoundaryPrefixIsItselfAValidStream) {
  const Field f = test_field();
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2));
  auto full = read_stream(stream);
  ASSERT_TRUE(full.ok()) << full.status().str();
  for (std::size_t k = 0; k < full->layers.size(); ++k) {
    const auto prefix =
        std::span<const std::uint8_t>(stream).first(prefix_bytes(*full, k));
    auto info = read_stream(prefix);
    ASSERT_TRUE(info.ok()) << "prefix k=" << k << ": "
                           << info.status().str();
    EXPECT_EQ(info->present, k + 1);
    EXPECT_EQ(info->layers.size(), full->layers.size());
    // The prefix still decodes, honoring ITS tightest present bound.
    auto reader = ProgressiveReader::open(prefix);
    ASSERT_TRUE(reader.ok());
    auto recon = (*reader)->read(k);
    ASSERT_TRUE(recon.ok());
    EXPECT_LE(max_abs_error(f, *recon), info->layers[k].abs_eb * kSlack);
  }
}

TEST(AeprPrefix, TruncationAtEveryByteParsesOnlyAtLayerBoundaries) {
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2), /*layers=*/2);
  auto full = read_stream(stream);
  ASSERT_TRUE(full.ok());
  std::vector<std::size_t> boundaries;
  for (std::size_t k = 0; k < full->layers.size(); ++k)
    boundaries.push_back(prefix_bytes(*full, k));
  for (std::size_t len = 0; len <= stream.size(); ++len) {
    const auto cut = std::span<const std::uint8_t>(stream).first(len);
    auto info = read_stream(cut);
    const bool at_boundary = std::find(boundaries.begin(), boundaries.end(),
                                       len) != boundaries.end();
    if (at_boundary) {
      EXPECT_TRUE(info.ok()) << "boundary prefix " << len << " rejected: "
                             << info.status().str();
    } else {
      ASSERT_FALSE(info.ok()) << "non-boundary prefix " << len << " parsed";
      const auto code = info.status().code;
      EXPECT_TRUE(code == ErrCode::kTruncated ||
                  code == ErrCode::kBadMagic || code == ErrCode::kBadHeader)
          << "len " << len << ": " << info.status().str();
    }
  }
}

TEST(AeprPrefix, TruncatedPrefixCanBeTruncatedAgain) {
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2));
  auto two = truncate_to_bytes(stream, stream.size());
  ASSERT_TRUE(two.ok());
  const auto prefix =
      std::span<const std::uint8_t>(stream).first(two->bytes);
  auto one = truncate_to_bytes(prefix, 0);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->layers, 1u);
  EXPECT_EQ(one->total_layers, two->total_layers);
}

// ---------------------------------------------------- truncate queries --

TEST(TruncateTo, ByteBudgetServesTheLargestFittingPrefix) {
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2));
  auto info = read_stream(stream);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->present, 3u);

  // A budget below the coarsest layer still answers it — never an error.
  auto cut = truncate_to_bytes(stream, 0);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 1u);
  EXPECT_EQ(cut->bytes, prefix_bytes(*info, 0));
  EXPECT_DOUBLE_EQ(cut->abs_eb, info->layers[0].abs_eb);

  // One byte short of the k=1 boundary keeps the answer at k=0.
  cut = truncate_to_bytes(stream, prefix_bytes(*info, 1) - 1);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 1u);

  // Exactly at the boundary includes the layer.
  cut = truncate_to_bytes(stream, prefix_bytes(*info, 1));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 2u);
  EXPECT_DOUBLE_EQ(cut->abs_eb, info->layers[1].abs_eb);

  // A budget covering everything serves everything.
  cut = truncate_to_bytes(stream, stream.size());
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 3u);
  EXPECT_EQ(cut->bytes, stream.size());
  EXPECT_EQ(cut->total_layers, 3u);
}

TEST(TruncateTo, TargetBoundServesTheSmallestSufficientPrefix) {
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2));
  auto info = read_stream(stream);
  ASSERT_TRUE(info.ok());

  // A target looser than the coarsest layer needs only layer 0.
  auto cut = truncate_to_bound(stream,
                               ErrorBound::Abs(info->layers[0].abs_eb * 2));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 1u);

  // Exactly the middle layer's bound stops there.
  cut = truncate_to_bound(stream, ErrorBound::Abs(info->layers[1].abs_eb));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 2u);

  // Tighter than the final layer: best effort, the whole stream.
  cut = truncate_to_bound(stream,
                          ErrorBound::Abs(info->layers[2].abs_eb / 10));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 3u);
  EXPECT_EQ(cut->bytes, stream.size());

  // Relative targets resolve against the STORED value range.
  cut = truncate_to_bound(stream, ErrorBound::Rel(0.5));
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->layers, 1u);

  // An unusable target is a typed argument error.
  auto bad = truncate_to_bound(stream, ErrorBound::Abs(0.0));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, ErrCode::kInvalidArgument);
}

// ------------------------------------------------------ hostile streams --

/// Hand-rolled AEPR bytes so the layer table can lie in precise ways.
struct RawLayer {
  std::uint64_t offset;
  std::uint64_t length;
  double bound;
};

std::vector<std::uint8_t> build_raw(std::uint64_t layer_count,
                                    const std::vector<RawLayer>& table,
                                    std::size_t payload_bytes,
                                    std::uint8_t version = kFormatVersion,
                                    const std::string& name = "SZ2.1",
                                    std::uint8_t eb_mode = 0,
                                    double eb_value = 1e-2,
                                    double value_range = 1.0) {
  ByteWriter w;
  w.put(kStreamMagic);
  w.put(version);
  w.put_blob({reinterpret_cast<const std::uint8_t*>(name.data()),
              name.size()});
  w.put(static_cast<std::uint8_t>(2));  // rank
  w.put_varint(8);
  w.put_varint(8);
  w.put(eb_mode);
  w.put(eb_value);
  w.put(value_range);
  w.put_varint(layer_count);
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i)
    payload[i] = static_cast<std::uint8_t>(i & 0xFF);
  for (const RawLayer& t : table) {
    w.put_varint(t.offset);
    w.put_varint(t.length);
    w.put(t.bound);
    if (version >= kFormatVersion) {
      // Honest checksum over the bytes the entry claims (when they exist)
      // so the structural condition under test — not a checksum mismatch —
      // is what the reader reports.
      std::uint32_t crc = 0;
      if (t.offset <= payload.size() && t.length <= payload.size() - t.offset)
        crc = util::crc32c(std::span<const std::uint8_t>(payload).subspan(
            static_cast<std::size_t>(t.offset),
            static_cast<std::size_t>(t.length)));
      w.put(crc);
    }
  }
  w.put_bytes(payload);
  return w.take();
}

TEST(AeprHostile, LayerTableMustTileThePayload) {
  // A gap between layers.
  auto s = build_raw(2, {{0, 10, 1.0}, {11, 10, 0.5}}, 21);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // Overlapping layers.
  s = build_raw(2, {{0, 10, 1.0}, {5, 10, 0.5}}, 15);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // A layer pointing backwards to offset 0 again.
  s = build_raw(2, {{0, 10, 1.0}, {0, 10, 0.5}}, 20);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // First layer not at offset 0.
  s = build_raw(1, {{4, 10, 1.0}}, 14);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // Zero-length layer.
  s = build_raw(2, {{0, 10, 1.0}, {10, 0, 0.5}}, 10);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
}

TEST(AeprHostile, BoundMonotonicityViolationsAreRejected) {
  // Equal bounds.
  auto s = build_raw(2, {{0, 10, 1.0}, {10, 10, 1.0}}, 20);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // Increasing bounds.
  s = build_raw(2, {{0, 10, 0.5}, {10, 10, 1.0}}, 20);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // Non-finite / non-positive bounds.
  s = build_raw(1, {{0, 10, 0.0}}, 10);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  s = build_raw(1, {{0, 10, -1.0}}, 10);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
}

TEST(AeprHostile, LyingLengthsAreTypedBeforeAnyAllocation) {
  // A declared length absurdly past any real field: rejected from the
  // table alone, no payload read or allocated.
  auto s = build_raw(1, {{0, std::uint64_t{1} << 62, 1.0}}, 4);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
  // Payload shorter than the coarsest layer.
  s = build_raw(1, {{0, 100, 1.0}}, 40);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kTruncated);
  // Payload ends mid-second-layer: truncated, not a valid prefix.
  s = build_raw(2, {{0, 10, 1.0}, {10, 10, 0.5}}, 15);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kTruncated);
  // Bytes past the last declared layer: corrupt, not silently ignored.
  s = build_raw(2, {{0, 10, 1.0}, {10, 10, 0.5}}, 25);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kCorruptStream);
}

TEST(AeprHostile, LayerCountIsCapped) {
  auto s = build_raw(0, {}, 0);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kBadHeader);
  std::vector<RawLayer> table;
  for (std::size_t i = 0; i <= kMaxLayers; ++i)
    table.push_back({i * 4, 4, 1.0 / static_cast<double>(i + 1)});
  s = build_raw(kMaxLayers + 1, table, (kMaxLayers + 1) * 4);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kBadHeader);
}

TEST(AeprHostile, HeaderFieldValidation) {
  // Non-printable inner codec name.
  auto s = build_raw(1, {{0, 4, 1.0}}, 4, kFormatVersion,
                     std::string("SZ\x01", 3));
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kBadHeader);
  // Unusable error-bound value.
  s = build_raw(1, {{0, 4, 1.0}}, 4, kFormatVersion, "SZ2.1", 0, 0.0);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kBadHeader);
  // Negative value range.
  s = build_raw(1, {{0, 4, 1.0}}, 4, kFormatVersion, "SZ2.1", 0, 1e-2,
                -1.0);
  EXPECT_EQ(read_stream(s).status().code, ErrCode::kBadHeader);
}

TEST(AeprHostile, SingleByteCorruptionNeverCrashes) {
  const auto stream = encode("SZ2.1", ErrorBound::Abs(1e-2), /*layers=*/2);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto mutated = stream;
    mutated[i] ^= 0xA5;
    auto info = read_stream(mutated);
    if (!info.ok()) continue;  // typed rejection is the common case
    // Payload corruption can still parse; decoding must stay typed too.
    auto reader = ProgressiveReader::open(mutated);
    if (!reader.ok()) continue;
    (void)(*reader)->read((*reader)->present() - 1);
  }
}

TEST(AeprHostile, RandomByteSoupNeverCrashes) {
  Rng rng(20260809);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> soup(rng.below(512));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below(256));
    if (iter % 2 == 0 && soup.size() >= 4)
      std::memcpy(soup.data(), &kStreamMagic, 4);  // force the magic path
    auto info = read_stream(soup);
    if (info.ok()) continue;  // astronomically unlikely, but not a bug
    EXPECT_NE(info.status().code, ErrCode::kOk);
  }
}

// ------------------------------------------------------------- registry --

TEST(ProgressiveRegistry, WrapperRoundTripsAndIdentifies) {
  auto& reg = CodecRegistry::instance();
  auto codec = reg.create("progressive:SZ2.1", 2);
  ASSERT_TRUE(codec.ok()) << codec.status().str();
  const Field f = test_field();
  const ErrorBound eb = ErrorBound::Abs(1e-2);
  const auto stream = (*codec)->compress(f, eb);
  auto id = reg.identify(stream);
  ASSERT_TRUE(id.ok()) << id.status().str();
  EXPECT_EQ(*id, "progressive:SZ2.1");
  auto recon = (*codec)->decompress(stream);
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  EXPECT_LE(max_abs_error(f, *recon), eb.absolute(f.value_range()) * kSlack);
}

TEST(ProgressiveRegistry, EveryErrorBoundedBuiltinHasAWrapperExceptAEB) {
  auto& reg = CodecRegistry::instance();
  EXPECT_TRUE(reg.contains("progressive:AE-SZ"));
  EXPECT_TRUE(reg.contains("progressive:SZ2.1"));
  EXPECT_TRUE(reg.contains("progressive:SZauto"));
  EXPECT_TRUE(reg.contains("progressive:SZinterp"));
  EXPECT_TRUE(reg.contains("progressive:ZFP"));
  EXPECT_TRUE(reg.contains("progressive:AE-A"));
  // AE-B cannot bound its error, so a bound ladder over it is meaningless.
  EXPECT_FALSE(reg.contains("progressive:AE-B"));
}

TEST(ProgressiveRegistry, IdentifyRejectsWrapperOfUnknownCodec) {
  // A structurally valid AEPR stream naming a codec the registry has
  // never heard of: typed kBadMagic, matching the AEPC container rule.
  auto s = build_raw(1, {{0, 4, 1.0}}, 4, kFormatVersion, "no-such-codec");
  auto id = CodecRegistry::instance().identify(s);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code, ErrCode::kBadMagic);
}

}  // namespace
}  // namespace aesz::progressive
